// Low-overhead per-simulation event recorder, and the probe that feeds both
// it and core::Counters.
//
// Design (see docs/tracing.md):
//  - One emission point per protocol event: SVMSIM_PROBE. It always updates
//    the Simulator's Counters through the constexpr projection
//    trace::count, so Counters are a projection of the event stream and a
//    trace reproduces them by construction. When a tracer is attached and
//    wants the event's category (category_of), it also appends a record.
//  - Fixed-size 32-byte records (sim time, proc/node, category, event id,
//    two u64 arguments) appended to pooled 4096-record chunks. Chunks
//    recycle through a thread-local freelist across runs (the frame_pool /
//    ObjectPool discipline), so steady-state tracing allocates O(chunks)
//    and tracing-off runs allocate nothing: a Machine only constructs a
//    Tracer when SimConfig::trace.enabled is set.
//  - Compile-time gate: configure with -DSVMSIM_TRACE=OFF to define
//    SVMSIM_TRACE_DISABLED, which compiles the recording half of every probe
//    out. The counting half stays.
//  - Runtime gate: the probe null-checks the Simulator's tracer pointer and
//    the per-category mask bit before it records anything.
//  - Records never feed back into the simulation: a traced run is
//    byte-identical to an untraced one.
//
// A finished trace (TraceFile) embeds the run's core::Stats and a build
// provenance string, which makes any trace self-checkable: trace::check()
// re-applies the projection to the records and compares.
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

inline constexpr int kEvents = static_cast<int>(Event::kCount);

[[nodiscard]] constexpr Category category_of(Event e) noexcept {
  switch (e) {
    case Event::kPageFault:
    case Event::kPageFetch:
    case Event::kPageInstall:
    case Event::kTwinCreate:
    case Event::kDiffCreate:
    case Event::kDiffApply:
    case Event::kPageInval:
    case Event::kWriteNotices:
      return Category::kPage;
    case Event::kLockLocal:
    case Event::kLockRequest:
    case Event::kLockGrant:
    case Event::kLockRecall:
    case Event::kTokenReturn:
    case Event::kBarrierEnter:
    case Event::kBarrierExit:
      return Category::kLock;
    case Event::kMsgSend:
    case Event::kMsgDeliver:
    case Event::kPacketTx:
    case Event::kNiTx:
    case Event::kNiRx:
    case Event::kIoBus:
    case Event::kUpdateSend:
    case Event::kNiOverflow:
    case Event::kLinkHop:
      return Category::kNet;
    case Event::kIrqIssue:
    case Event::kPollDeliver:
    case Event::kHandlerSpan:
      return Category::kIrq;
    case Event::kTimeSpan:
    case Event::kCount:
      break;
  }
  return Category::kSched;
}

[[nodiscard]] std::string_view to_string(Event e) noexcept;

/// The projection from protocol events to Counters: the one place that says
/// which counter an event feeds. SVMSIM_PROBE applies it as the event
/// happens; trace::analyze applies it to the recorded events.
constexpr void count(Counters& c, Event e, std::uint64_t a0,
                     std::uint64_t a1) noexcept {
  switch (e) {
    case Event::kPageFault:
      ++c.page_faults;
      ++(a1 != 0 ? c.write_faults : c.read_faults);
      return;
    case Event::kPageFetch: ++c.page_fetches; return;
    case Event::kTwinCreate: ++c.twins_created; return;
    case Event::kDiffCreate:
      ++c.diffs_created;
      c.diff_bytes += a1;
      return;
    case Event::kPageInval: ++c.invalidations; return;
    case Event::kWriteNotices: c.write_notices += a0; return;
    case Event::kLockLocal: ++c.local_lock_acquires; return;
    case Event::kLockRequest: ++c.remote_lock_acquires; return;
    case Event::kBarrierEnter: ++c.barriers; return;
    case Event::kMsgSend: ++c.messages_sent; return;
    case Event::kPacketTx:
      ++c.packets_sent;
      c.bytes_sent += a1;
      return;
    case Event::kUpdateSend:
      ++c.updates_sent;
      c.update_bytes += a1;
      return;
    case Event::kNiOverflow: ++c.ni_queue_overflows; return;
    case Event::kIrqIssue: ++c.interrupts; return;
    case Event::kPollDeliver: ++c.polled_requests; return;
    default:
      // Timeline-only events (installs, lock handoffs, NI/bus legs, link
      // hops, handler and time spans) feed no counter.
      return;
  }
}

/// Whether `e` feeds any counter (the probe skips counting otherwise).
[[nodiscard]] constexpr bool counted(Event e) noexcept {
  Counters c;
  count(c, e, 1, 1);
  return c != Counters{};
}

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
static_assert(kCounterFields.size() == kCounterCount,
              "Counters changed: bump kFormatVersion and kCounterCount");

[[nodiscard]] std::array<std::uint64_t, kCounterCount> counters_to_array(
    const Counters& c) noexcept;
[[nodiscard]] Counters counters_from_array(
    const std::array<std::uint64_t, kCounterCount>& a) noexcept;
[[nodiscard]] std::string_view counter_name(int i) noexcept;

/// Which trace category must be enabled for counter `i` to be recomputable
/// from the records: the category of the events that feed it, read off the
/// projection (tests pin that every feeder of a counter shares one category).
inline constexpr auto kCounterCategories = [] {
  std::array<Category, kCounterCount> cats{};
  cats.fill(Category::kCount);
  for (int e = 0; e < kEvents; ++e) {
    const auto ev = static_cast<Event>(e);
    for (const std::uint64_t a1 : {0u, 1u}) {
      Counters c;
      count(c, ev, 1, a1);
      for (std::size_t i = 0; i < cats.size(); ++i) {
        if (c.*kCounterFields[i].member != 0 && cats[i] == Category::kCount) {
          cats[i] = category_of(ev);
        }
      }
    }
  }
  return cats;
}();

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

  void emit(Cycles time, Event ev, int proc, int node, std::uint64_t a0,
            std::uint64_t a1) {
    if (cur_ == nullptr || cur_->n == kChunkRecords) next_chunk();
    Record& r = cur_->recs[cur_->n++];
    ++count_;
    r.time = time;
    r.a0 = a0;
    r.a1 = a1;
    r.proc = static_cast<std::int16_t>(proc);
    r.node = static_cast<std::int16_t>(node);
    r.cat = static_cast<std::uint8_t>(category_of(ev));
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

/// The tracer a probe of `ev` should record to: `t` when it is attached and
/// wants category_of(ev), else nullptr. Always nullptr under
/// -DSVMSIM_TRACE=OFF, which compiles the recording half of every probe out
/// and keeps the counting half.
[[nodiscard]] inline Tracer* recorder(Tracer* t, Event ev) noexcept {
#ifdef SVMSIM_TRACE_DISABLED
  (void)t;
  (void)ev;
  return nullptr;
#else
  return t != nullptr && t->wants(category_of(ev)) ? t : nullptr;
#endif
}

}  // namespace svmsim::trace

// The probe: the one emission point of protocol event `ev` (an Event
// enumerator name) at sim.now(), where `sim` is an engine::Simulator&. It
// feeds sim.counters() through trace::count — at compile time it skips that
// step for events that feed no counter — and appends a record when
// trace::recorder finds a tracer that wants the event. The arguments must be
// free of side effects: a traced, counted event evaluates them twice. The
// macro declares no locals beyond the tracer pointer, because a coroutine
// keeps every local of its body in its frame.
#define SVMSIM_PROBE(sim, ev, proc, node, a0, a1)                              \
  do {                                                                         \
    if constexpr (::svmsim::trace::counted(::svmsim::trace::Event::ev)) {      \
      ::svmsim::trace::count(*(sim).counters(), ::svmsim::trace::Event::ev,    \
                             static_cast<std::uint64_t>(a0),                   \
                             static_cast<std::uint64_t>(a1));                  \
    }                                                                          \
    if (::svmsim::trace::Tracer* svmsim_tr_ = ::svmsim::trace::recorder(       \
            (sim).tracer(), ::svmsim::trace::Event::ev)) {                     \
      svmsim_tr_->emit((sim).now(), ::svmsim::trace::Event::ev, (proc),        \
                       (node), static_cast<std::uint64_t>(a0),                 \
                       static_cast<std::uint64_t>(a1));                        \
    }                                                                          \
  } while (0)
