// Conservative windowed synchronization for the node-partitioned PDES mode.
//
// Each partition owns one EventQueue and one worker thread. The driver runs
// an adaptive variant of the classic conservative window (YAWNS-style)
// protocol. Per window, every partition:
//
//   1. *publishes*: seals its outgoing channel batches and computes two
//      bounds — its head-of-queue event time (folded with the sealed
//      batches' minimum timestamp) and a conservative lower bound on its
//      next cross-partition *send* (kNever when provably none is pending),
//   2. crosses one combining barrier that min-reduces both bounds while
//      threads arrive; the last arriver opens the window [T, E) with
//      T = min(next) and E = max(T, min(send)) + L, L being the network's
//      minimum inter-node latency (the lookahead),
//   3. *drains* every sealed incoming batch into its scheduler's wire band
//      and runs its queue up to E - 1; the next publish closes the window.
//
// Safety: each partition's send bound under-approximates its own next
// cross-partition transmit, so any packet launched during [T, E) leaves at
// >= min(send) and arrives at >= min(send) + L = E — never inside the
// window that produced it. Sealed-batch minima feed *both* reductions
// because a record still in flight is an event the consumer's queue does not
// know about yet, and once delivered it can trigger a send no earlier than
// its own timestamp. Progress: send bounds never undercut head-of-queue
// times, so E >= T + L and the partition holding the global minimum fires at
// least one event per window; when no cross-traffic is pending anywhere
// (min(send) = kNever) the remaining work collapses into a single window to
// the horizon. Determinism: a partition is a sequential deterministic
// machine; its inputs — the channel records and the window boundaries — are
// pure functions of the partition states meeting at the barrier, independent
// of wall-clock interleaving, so the parallel run replays the serial order
// exactly (docs/engine.md, "PDES mode").
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "engine/event_queue.hpp"
#include "engine/types.hpp"

namespace svmsim::engine {

/// Number of partitions actually used for `par_cores` over `node_count`
/// simulated nodes: at least one, never more than one per node.
[[nodiscard]] constexpr int effective_partitions(int par_cores,
                                                 int node_count) noexcept {
  if (par_cores < 1) return 1;
  return par_cores < node_count ? par_cores : node_count;
}

/// Contiguous block partition map: node `n` of `node_count` belongs to
/// partition floor(n * parts / node_count). Contiguity keeps a node group's
/// procs, NICs and pools on one worker.
[[nodiscard]] constexpr int partition_of(int node, int node_count,
                                         int parts) noexcept {
  return static_cast<int>(static_cast<std::int64_t>(node) * parts /
                          node_count);
}

/// Runs a set of partition EventQueues under the windowed protocol above.
/// Partition 0 runs on the calling thread; partitions 1..P-1 each get a
/// worker thread for the duration of run().
class WindowDriver {
 public:
  /// What a partition's publish hook reports at each window boundary.
  struct Published {
    /// Smallest timestamp among the cross-partition records the partition
    /// just sealed into its outgoing channels (kNever if none): traffic no
    /// consumer queue accounts for yet, folded into both reductions.
    Cycles in_flight = kNever;
    /// Conservative lower bound on the partition's next cross-partition
    /// send time; kNever means provably no cross-traffic is pending.
    Cycles next_send = kNever;
  };

  struct Hooks {
    /// Seal partition p's outgoing channel batches and report its bounds.
    /// Called on p's worker before every barrier crossing. May be null
    /// (a partition with no cross-partition traffic at all).
    std::function<Published(int)> publish;
    /// Deliver every sealed incoming batch into partition p's queue
    /// (schedule_wire_batch). Called on p's worker right after every
    /// barrier crossing, before the window runs. May be null.
    std::function<void(int)> drain;
    /// Called once on p's worker thread before the first window — bind
    /// partition-owned thread-affine state (frame registries) to it.
    std::function<void(int)> worker_begin;
    /// Called once on p's worker thread after the last window.
    std::function<void(int)> worker_end;
  };

  WindowDriver(std::vector<EventQueue*> queues, Cycles lookahead, Hooks hooks);

  /// Run all partitions until globally idle or until the next window would
  /// start beyond `max_cycles`. Returns true if the queues drained (mirrors
  /// EventQueue::run_until). No event past `max_cycles` is fired. An
  /// exception thrown by an event action aborts the run and rethrows here.
  bool run(Cycles max_cycles);

  /// Windows executed by the last run() (the sync-overhead figure perfbench
  /// reports as engine.pdes_windows).
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }

 private:
  std::vector<EventQueue*> queues_;
  Cycles lookahead_;
  Hooks hooks_;

  // Per-run window state: written only by the combining barrier's completion
  // function and read by workers after the crossing, which is all the
  // ordering they need.
  Cycles window_end_ = 0;
  bool stop_ = false;
  bool drained_ = false;
  std::uint64_t windows_ = 0;
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
};

}  // namespace svmsim::engine
