// Low-overhead per-simulation event recorder.
//
// Design (see docs/tracing.md):
//  - Fixed-size 32-byte records (sim time, proc/node, category, event id,
//    two u64 arguments) appended to pooled 4096-record chunks. Chunks
//    recycle through a thread-local freelist across runs (the frame_pool /
//    ObjectPool discipline), so steady-state tracing allocates O(chunks)
//    and tracing-off runs allocate nothing: a Machine only constructs a
//    Tracer when SimConfig::trace.enabled is set.
//  - Compile-time gate: configure with -DSVMSIM_TRACE=OFF to define
//    SVMSIM_TRACE_DISABLED, turning every SVMSIM_TRACE_EVENT into ((void)0).
//  - Runtime gate: the emission macro null-checks the Simulator's tracer
//    pointer and the per-category mask bit before evaluating arguments.
//  - Records never feed back into the simulation: a traced run is
//    byte-identical to an untraced one.
//
// A finished trace (TraceFile) embeds the run's core::Stats and a build
// provenance string, which makes any trace self-checkable: trace::check()
// recomputes per-category totals from the records and compares.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/stats.hpp"
#include "engine/types.hpp"
#include "trace/config.hpp"

namespace svmsim::trace {

/// Event ids. Each event belongs to exactly one Category (category_of);
/// the comment gives the meaning of the two record arguments.
enum class Event : std::uint8_t {
  // kPage
  kPageFault = 0,  ///< a0=page, a1=1 for a write fault, 0 for a read fault
  kPageFetch,      ///< a0=page, a1=home node
  kPageInstall,    ///< a0=page, a1=0 remote fetch / 1 local (guided) install
  kTwinCreate,     ///< a0=page
  kDiffCreate,     ///< a0=page, a1=diff wire bytes
  kDiffApply,      ///< a0=page, a1=modified bytes (at the home)
  kPageInval,      ///< a0=page
  kWriteNotices,   ///< a0=notice count processed at this acquire
  // kLock
  kLockLocal,      ///< a0=lock id (acquired on the cached free token)
  kLockRequest,    ///< a0=lock id, a1=home node (remote acquire issued)
  kLockGrant,      ///< a0=lock id, a1=requesting node (home grants)
  kLockRecall,     ///< a0=lock id (recall received at the token holder)
  kTokenReturn,    ///< a0=lock id (token returned toward the home)
  kBarrierEnter,   ///< a0=arrival index within the node
  kBarrierExit,    ///< a0=0 waiter / 1 node representative
  // kNet
  kMsgSend,        ///< a0=(type<<32)|dst node, a1=message wire bytes
  kMsgDeliver,     ///< a0=(type<<32)|src node, a1=message wire bytes
  kPacketTx,       ///< a0=dst node, a1=packet wire bytes
  kNiTx,           ///< a0=packet bytes, a1=NI occupancy cycles (send side)
  kNiRx,           ///< a0=packet bytes, a1=NI occupancy cycles (recv side)
  kIoBus,          ///< a0=packet bytes, a1=0 host->NI, 1 NI->host
  kUpdateSend,     ///< a0=page, a1=update payload bytes (AURC)
  kNiOverflow,     ///< a0=0 send queue / 1 receive queue
  // kIrq
  kIrqIssue,       ///< proc=victim processor interrupted for a request
  kPollDeliver,    ///< proc=processor whose poll tick picked up a request
  kHandlerSpan,    ///< a0=handler duration in cycles, a1=entry cost
  // kSched
  kTimeSpan,       ///< a0=cycles, a1=TimeCat (flushed Breakdown increment)
  // kNet (appended: earlier ids are stable in recorded traces)
  kLinkHop,        ///< a0=topology link id, a1=cycles queued for the link
  kCount,
};

[[nodiscard]] Category category_of(Event e) noexcept;
[[nodiscard]] std::string_view to_string(Event e) noexcept;

/// One trace record; the on-disk format is this struct verbatim
/// (native-endian, see docs/tracing.md).
struct Record {
  std::uint64_t time;  ///< global simulated time of emission
  std::uint64_t a0;
  std::uint64_t a1;
  std::int16_t proc;   ///< global processor id, -1 for node-level events
  std::int16_t node;
  std::uint8_t cat;    ///< Category
  std::uint8_t event;  ///< Event
  std::uint16_t pad;

  bool operator==(const Record&) const = default;
};
static_assert(sizeof(Record) == 32, "trace records are exactly 32 bytes");

/// Number of Counters fields serialized into a trace (format contract —
/// bump kFormatVersion when Counters grows).
inline constexpr int kCounterCount = 20;
inline constexpr std::uint32_t kFormatVersion = 1;

[[nodiscard]] std::array<std::uint64_t, kCounterCount> counters_to_array(
    const Counters& c) noexcept;
[[nodiscard]] Counters counters_from_array(
    const std::array<std::uint64_t, kCounterCount>& a) noexcept;
[[nodiscard]] std::string_view counter_name(int i) noexcept;
/// Which trace category must be enabled for counter `i` to be recomputable
/// from the records.
[[nodiscard]] Category counter_category(int i) noexcept;

/// A complete captured trace: header, provenance, the run's Stats, and the
/// time-ordered records.
struct TraceFile {
  std::uint32_t version = kFormatVersion;
  std::uint32_t mask = kAllCategories;
  int procs = 0;
  int nodes = 0;
  Cycles end_time = 0;
  std::string provenance;
  Stats stats{0};
  std::vector<Record> records;
};

/// Serialize to `path` (via a temp file + atomic rename). Throws
/// std::runtime_error on I/O failure.
void write_file(const TraceFile& f, const std::string& path);
/// Parse a trace written by write_file. Throws std::runtime_error on a
/// missing/corrupt file or a format-version mismatch.
[[nodiscard]] TraceFile read_file(const std::string& path);

/// One line describing this build: git revision (when configured in),
/// sanitize/pool flags, trace compile gate.
[[nodiscard]] std::string build_provenance();

/// The per-run recorder. Constructed by Machine when the run's
/// SimConfig::trace.enabled is set (and tracing is compiled in); reached by
/// every layer through engine::Simulator::tracer().
class Tracer {
 public:
  Tracer(const Config& cfg, int procs, int nodes);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool wants(Category c) const noexcept {
    return (mask_ & category_bit(c)) != 0;
  }
  [[nodiscard]] std::uint32_t mask() const noexcept { return mask_; }
  [[nodiscard]] std::size_t record_count() const noexcept { return count_; }

  void emit(Cycles time, Category cat, Event ev, int proc, int node,
            std::uint64_t a0, std::uint64_t a1) {
    if (cur_ == nullptr || cur_->n == kChunkRecords) next_chunk();
    Record& r = cur_->recs[cur_->n++];
    ++count_;
    r.time = time;
    r.a0 = a0;
    r.a1 = a1;
    r.proc = static_cast<std::int16_t>(proc);
    r.node = static_cast<std::int16_t>(node);
    r.cat = static_cast<std::uint8_t>(cat);
    r.event = static_cast<std::uint8_t>(ev);
    r.pad = 0;
  }

  /// Materialize the trace with the run's final Stats embedded.
  [[nodiscard]] TraceFile capture(const Stats& stats, Cycles end_time) const;

  /// Runner hook: capture and write to the configured path (no-op when the
  /// path is empty, i.e. an in-memory-only tracer).
  void finish(const Stats& stats, Cycles end_time);

 private:
  static constexpr std::size_t kChunkRecords = 4096;  // 128 KiB per chunk
  struct Chunk {
    std::array<Record, kChunkRecords> recs;
    std::size_t n = 0;
  };

  void next_chunk();
  /// Thread-local recycled chunk storage (see trace.cpp).
  static std::vector<std::unique_ptr<Chunk>>& freelist();

  std::uint32_t mask_;
  std::string path_;
  int procs_;
  int nodes_;
  std::size_t count_ = 0;
  Chunk* cur_ = nullptr;
  std::vector<std::unique_ptr<Chunk>> chunks_;
};

}  // namespace svmsim::trace

// Emission macro: compiled out entirely under -DSVMSIM_TRACE=OFF; otherwise
// a null check + mask bit test before any argument is evaluated. `sim` is
// an engine::Simulator&; the record is stamped with sim.now().
#ifndef SVMSIM_TRACE_DISABLED
#define SVMSIM_TRACE_EVENT(sim, cat, ev, proc, node, a0, a1)                 \
  do {                                                                       \
    if (::svmsim::trace::Tracer* svmsim_tr_ = (sim).tracer();                \
        svmsim_tr_ != nullptr && svmsim_tr_->wants(cat)) {                   \
      svmsim_tr_->emit((sim).now(), (cat), (ev), (proc), (node),             \
                       static_cast<std::uint64_t>(a0),                       \
                       static_cast<std::uint64_t>(a1));                      \
    }                                                                        \
  } while (0)
#else
// Arguments vanish into an unevaluated operand: no code is generated, but
// the variables still count as used (no -Wunused warnings in OFF builds).
#define SVMSIM_TRACE_EVENT(sim, cat, ev, proc, node, a0, a1)                  \
  ((void)sizeof(((void)(sim), (void)(cat), (void)(ev), (void)(proc),          \
                 (void)(node), (void)(a0), (void)(a1), 0)))
#endif
