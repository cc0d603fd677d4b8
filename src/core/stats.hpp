// Execution-time breakdowns and protocol event counters.
//
// The paper's analysis (§6, Table 2, Figures 3/4/6/9/11) is driven by
// exactly these quantities: where each processor's time went, and how many
// protocol events / messages / bytes each processor generated per unit of
// compute time.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "engine/types.hpp"

namespace svmsim {

/// Where a processor's cycles go. Buckets are disjoint; their sum is the
/// processor's busy+waiting time.
enum class TimeCat : int {
  kCompute = 0,     ///< application instructions (incl. private-data access)
  kMemStall,        ///< local cache-miss / memory stall
  kWriteBufStall,   ///< stalled on a full write buffer
  kDataWait,        ///< waiting for a remote page fetch
  kLockWait,        ///< waiting to acquire a lock
  kBarrierWait,     ///< waiting at a barrier
  kHandler,         ///< servicing interrupts/handlers for other nodes
  kProtocol,        ///< local protocol work (traps, twins, diffs, sends)
  kCount,
};

inline constexpr int kTimeCats = static_cast<int>(TimeCat::kCount);

[[nodiscard]] std::string_view to_string(TimeCat c);

struct Breakdown {
  std::array<Cycles, kTimeCats> t{};

  void add(TimeCat c, Cycles v) noexcept { t[static_cast<int>(c)] += v; }
  [[nodiscard]] Cycles get(TimeCat c) const noexcept {
    return t[static_cast<int>(c)];
  }
  [[nodiscard]] Cycles total() const noexcept {
    Cycles s = 0;
    for (auto v : t) s += v;
    return s;
  }
  /// Compute + local stall: the denominator of the paper's "ideal" speedup.
  [[nodiscard]] Cycles local_only() const noexcept {
    return get(TimeCat::kCompute) + get(TimeCat::kMemStall) +
           get(TimeCat::kWriteBufStall);
  }
  Breakdown& operator+=(const Breakdown& o) noexcept {
    for (int i = 0; i < kTimeCats; ++i) t[i] += o.t[i];
    return *this;
  }
  bool operator==(const Breakdown&) const = default;
};

/// Protocol/communication event counts (whole machine unless noted).
struct Counters {
  // SVM protocol events (Table 2).
  std::uint64_t page_faults = 0;        // read+write faults taken
  std::uint64_t read_faults = 0;
  std::uint64_t write_faults = 0;
  std::uint64_t page_fetches = 0;       // faults that fetched a remote page
  std::uint64_t local_lock_acquires = 0;
  std::uint64_t remote_lock_acquires = 0;
  std::uint64_t barriers = 0;           // per-processor barrier crossings

  // Communication (Figures 3/4).
  std::uint64_t messages_sent = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t interrupts = 0;
  std::uint64_t polled_requests = 0;  ///< requests serviced by polling

  // Protocol internals.
  std::uint64_t twins_created = 0;
  std::uint64_t diffs_created = 0;
  std::uint64_t diff_bytes = 0;
  std::uint64_t write_notices = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t updates_sent = 0;        // AURC automatic updates (runs)
  std::uint64_t update_bytes = 0;
  std::uint64_t ni_queue_overflows = 0;

  Counters& operator+=(const Counters& o) noexcept;
  bool operator==(const Counters&) const = default;
};

/// One Counters field: the member and its name. kCounterFields is the one
/// list of the fields above, in declaration order; merging, the trace file's
/// counter block and counter naming all iterate it.
struct CounterField {
  std::uint64_t Counters::*member;
  std::string_view name;
};

inline constexpr auto kCounterFields = std::to_array<CounterField>({
    {&Counters::page_faults, "page_faults"},
    {&Counters::read_faults, "read_faults"},
    {&Counters::write_faults, "write_faults"},
    {&Counters::page_fetches, "page_fetches"},
    {&Counters::local_lock_acquires, "local_lock_acquires"},
    {&Counters::remote_lock_acquires, "remote_lock_acquires"},
    {&Counters::barriers, "barriers"},
    {&Counters::messages_sent, "messages_sent"},
    {&Counters::packets_sent, "packets_sent"},
    {&Counters::bytes_sent, "bytes_sent"},
    {&Counters::interrupts, "interrupts"},
    {&Counters::polled_requests, "polled_requests"},
    {&Counters::twins_created, "twins_created"},
    {&Counters::diffs_created, "diffs_created"},
    {&Counters::diff_bytes, "diff_bytes"},
    {&Counters::write_notices, "write_notices"},
    {&Counters::invalidations, "invalidations"},
    {&Counters::updates_sent, "updates_sent"},
    {&Counters::update_bytes, "update_bytes"},
    {&Counters::ni_queue_overflows, "ni_queue_overflows"},
});
static_assert(sizeof(Counters) ==
                  kCounterFields.size() * sizeof(std::uint64_t),
              "a Counters field is missing from kCounterFields");

/// Per-physical-link occupancy for contended topology runs (src/topo/):
/// one row per directed link, filled by Machine::finalize_stats. Empty on
/// the contention-free network, so its Stats (and their byte-identity
/// diffs) are untouched. `kind` is a topo::LinkKind value
/// (topo::to_string decodes it).
struct LinkUse {
  std::int32_t id = 0;
  std::int32_t owner = 0;   ///< owning node
  std::int8_t kind = 0;     ///< topo::LinkKind
  std::uint64_t grants = 0; ///< packets serialized
  std::uint64_t busy = 0;   ///< cycles spent serializing
  std::uint64_t wait = 0;   ///< cycles packets queued for the link
  std::uint64_t bytes = 0;

  bool operator==(const LinkUse&) const = default;
};

/// Per-run statistics: one breakdown per processor plus global counters.
class Stats {
 public:
  explicit Stats(int procs) : per_proc_(static_cast<std::size_t>(procs)) {}

  [[nodiscard]] Breakdown& proc(int p) {
    return per_proc_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const Breakdown& proc(int p) const {
    return per_proc_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] int procs() const {
    return static_cast<int>(per_proc_.size());
  }

  [[nodiscard]] Counters& counters() noexcept { return counters_; }
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

  [[nodiscard]] Breakdown aggregate() const;
  /// Max over processors of compute + local stall (ideal-time denominator).
  [[nodiscard]] Cycles max_local_only() const;
  [[nodiscard]] Cycles total_compute() const;

  /// Per-link occupancy (empty unless a contended topology ran). Included
  /// in operator==, so Stats equality covers link state too.
  [[nodiscard]] const std::vector<LinkUse>& links() const noexcept {
    return links_;
  }
  void set_links(std::vector<LinkUse> links) { links_ = std::move(links); }

  bool operator==(const Stats&) const = default;

 private:
  std::vector<Breakdown> per_proc_;
  Counters counters_;
  std::vector<LinkUse> links_;
};

}  // namespace svmsim
