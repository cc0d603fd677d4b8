// The simulated cluster: nodes x processors, network, shared address space
// and one protocol agent per node. This is the library's main entry type.
//
// PDES mode (cfg.par_cores > 1): the nodes are split into contiguous
// partitions (engine/partition.hpp), each with its own Simulator, protocol
// pools and frame registry. Same-node and same-partition traffic schedules
// directly; cross-partition packets travel over timestamped SPSC channels
// and are synchronized by the conservative window protocol, with lookahead
// equal to the crossbar's minimum wire latency. The parallel run produces
// byte-identical Stats to the serial one (docs/engine.md, "PDES mode").
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "core/node.hpp"
#include "core/params.hpp"
#include "core/stats.hpp"
#include "engine/partition.hpp"
#include "engine/ring_queue.hpp"
#include "engine/simulator.hpp"
#include "engine/task.hpp"
#include "net/nic.hpp"
#include "svm/address_space.hpp"
#include "svm/aurc.hpp"
#include "svm/hlrc.hpp"
#include "svm/pools.hpp"
#include "topo/topology.hpp"

namespace svmsim::trace {
class Tracer;
}  // namespace svmsim::trace

namespace svmsim::check {
class Checker;
}  // namespace svmsim::check

namespace svmsim {

class Machine {
 public:
  /// Lock-id pool available to applications (ids are taken modulo this).
  static constexpr int kMaxLocks = 8192;

  explicit Machine(const SimConfig& cfg);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }
  /// Partition 0's simulator — the only one in serial mode. Global-time
  /// queries against a multi-partition machine should use the clock of the
  /// partition that owns the object in question (e.g. Processor::sim()).
  [[nodiscard]] engine::Simulator& sim() noexcept { return sims_.front(); }
  [[nodiscard]] Stats& stats() noexcept { return stats_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] svm::AddressSpace& space() noexcept { return space_; }

  /// The run's event recorder, or nullptr when cfg.trace is disabled (or
  /// tracing is compiled out). Also reachable as sim().tracer().
  [[nodiscard]] trace::Tracer* tracer() noexcept { return tracer_.get(); }

  /// The run's consistency checker, or nullptr when cfg.check is disabled
  /// (or checking is compiled out). Also reachable as sim().checker().
  [[nodiscard]] check::Checker* checker() noexcept { return checker_.get(); }

  [[nodiscard]] int total_procs() const noexcept {
    return cfg_.comm.total_procs;
  }
  [[nodiscard]] int node_count() const noexcept {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] NodeId node_of(ProcId p) const noexcept {
    return p / cfg_.comm.procs_per_node;
  }

  [[nodiscard]] Node& node(NodeId n) { return *nodes_.at(n); }
  [[nodiscard]] Processor& proc(ProcId p) {
    return nodes_.at(node_of(p))->proc(p % cfg_.comm.procs_per_node);
  }
  [[nodiscard]] svm::SvmAgent& agent(NodeId n) { return *agents_.at(n); }
  [[nodiscard]] svm::SvmAgent& agent_of(ProcId p) {
    return agent(node_of(p));
  }

  // ---- PDES mode ----

  /// Number of simulation partitions (1 in serial mode).
  [[nodiscard]] int partitions() const noexcept { return parts_; }
  [[nodiscard]] int partition_of_node(NodeId n) const noexcept {
    return engine::partition_of(n, cfg_.comm.node_count(), parts_);
  }
  [[nodiscard]] engine::Simulator& partition_sim(int p) { return sims_.at(p); }
  /// The registry a spawn targeting partition p's objects must land in
  /// (install with engine::ScopedFrameRegistry around the spawn).
  [[nodiscard]] engine::FrameRegistry& partition_registry(int p) {
    return registries_.at(static_cast<std::size_t>(p));
  }
  [[nodiscard]] std::uint64_t partition_events(int p) {
    return sims_.at(p).queue().events_fired();
  }
  /// Events fired across all partitions.
  [[nodiscard]] std::uint64_t events_fired();
  /// High-water mark of simultaneously outstanding pooled clock bodies
  /// (full clocks + deltas, summed over partitions): the sparse-transport
  /// footprint figure perf_selfcheck records per scale point.
  [[nodiscard]] std::uint64_t peak_clock_pool() const noexcept {
    std::uint64_t peak = 0;
    for (const svm::ProtocolPools& p : pools_) {
      peak += p.vclocks.peak_outstanding() +
              p.clock_deltas.peak_outstanding();
    }
    return peak;
  }
  /// Conservative windows executed by run_parallel (sync-overhead figure).
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }

  /// Run all partitions under the windowed protocol until globally idle or
  /// `max_cycles`; returns true if the queues drained (mirrors
  /// EventQueue::run_until, which it falls back to when partitions() == 1).
  bool run_parallel(Cycles max_cycles);

  /// Allocate shared memory (application setup).
  svm::GlobalAddr alloc(std::uint64_t bytes, svm::Distribution d) {
    return space_.alloc(bytes, d);
  }

  /// Out-of-band data access for initialization/validation.
  void debug_read(svm::GlobalAddr a, void* dst, std::uint64_t bytes) {
    space_.debug_read(a, dst, bytes);
  }
  /// Out-of-band write; mirrored into the checker's shadow (initialization
  /// data is happens-before everything), hence out of line.
  void debug_write(svm::GlobalAddr a, const void* src, std::uint64_t bytes);

  /// The installed topology backend, or nullptr when cfg.topology is legacy.
  [[nodiscard]] topo::Topology* topology() noexcept { return topo_.get(); }

  /// Copy per-link occupancy out of the topology into stats().links() (a
  /// no-op on the contention-free network, which models no links). Called
  /// by the runner after the run; safe to call repeatedly.
  void finalize_stats();

 private:
  /// Where partition p's simulator counts protocol events: the global
  /// Stats directly in serial mode, a per-partition staging Counters
  /// otherwise — merged by run_parallel, which keeps the hot increments
  /// unsynchronized.
  [[nodiscard]] Counters& partition_counters(int p) noexcept {
    return parts_ == 1 ? stats_.counters()
                       : part_counters_[static_cast<std::size_t>(p)];
  }

  SimConfig cfg_;
  int parts_;
  // Deques: Simulator/FrameRegistry/ProtocolPools addresses must be stable
  // (everything downstream keeps pointers) and none of them need be movable.
  std::deque<engine::Simulator> sims_;        // [partition]
  std::deque<engine::FrameRegistry> registries_;  // [partition]
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<check::Checker> checker_;
  Stats stats_;
  std::vector<Counters> part_counters_;  // staging; meaningful when parts_ > 1
  std::deque<svm::ProtocolPools> pools_;  // [partition]
  svm::AddressSpace space_;
  svm::SharedState shared_;
  /// Topology backend (null in legacy mode). Declared before network_ so
  /// the Network's raw topology pointer outlives the Network; link Resources
  /// reference partition simulators, so this also sits after sims_.
  std::unique_ptr<topo::Topology> topo_;
  net::Network network_;
  /// channels_[src partition][dst partition]; off-diagonal entries carry
  /// cross-partition packet deliveries (empty in serial mode).
  std::vector<std::vector<engine::TimedChannel<net::Network::Action>>>
      channels_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<svm::SvmAgent>> agents_;
  std::uint64_t windows_ = 0;
};

}  // namespace svmsim
