// The simulated cluster: nodes x processors, network, shared address space
// and one protocol agent per node. This is the library's main entry type.
//
// A Machine owns one Simulator, one FrameRegistry and one ProtocolPools, and
// it and everything it hands out stay on the thread that built it. Sweeps
// run many Machines at once, one per JobPool worker (harness/job_pool.hpp).
#pragma once

#include <memory>
#include <vector>

#include "core/node.hpp"
#include "core/params.hpp"
#include "core/stats.hpp"
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
  [[nodiscard]] engine::Simulator& sim() noexcept { return sim_; }
  /// The registry spawns targeting this machine's objects must land in
  /// (install with engine::ScopedFrameRegistry around the spawn), so that
  /// ~Machine can destroy the frames a stopped run leaves suspended.
  [[nodiscard]] engine::FrameRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] Stats& stats() noexcept { return stats_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] svm::AddressSpace& space() noexcept { return space_; }

  /// The run's event recorder, or nullptr when cfg.trace is disabled. Also
  /// reachable as sim().tracer().
  [[nodiscard]] trace::Tracer* tracer() noexcept { return tracer_.get(); }

  /// The run's consistency checker, or nullptr when cfg.check is disabled.
  /// Also reachable as sim().checker().
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
  SimConfig cfg_;
  engine::Simulator sim_;
  engine::FrameRegistry registry_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<check::Checker> checker_;
  Stats stats_;
  svm::ProtocolPools pools_;
  svm::AddressSpace space_;
  svm::SharedState shared_;
  /// Topology backend (null in legacy mode). Declared before network_ so
  /// the Network's raw topology pointer outlives the Network; link Resources
  /// reference sim_, so this also sits after it.
  std::unique_ptr<topo::Topology> topo_;
  net::Network network_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<svm::SvmAgent>> agents_;
};

}  // namespace svmsim
