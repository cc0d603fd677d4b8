// One SMP node: c processors with private cache hierarchies sharing a
// split-transaction memory bus, one NIC on the I/O bus, and the node's
// messaging endpoint. Figure 2 of the paper.
#pragma once

#include <memory>
#include <vector>

#include "core/params.hpp"
#include "core/processor.hpp"
#include "core/stats.hpp"
#include "engine/simulator.hpp"
#include "memsys/memory_bus.hpp"
#include "net/messaging.hpp"
#include "net/nic.hpp"
#include "svm/hlrc.hpp"

namespace svmsim {

class Node {
 public:
  /// Per-processor breakdowns come from `stats` (rows are disjoint per
  /// node). Machine-wide counters accumulate in sim.counters() (see SVMSIM_PROBE).
  Node(engine::Simulator& sim, const SimConfig& cfg, NodeId id, int procs,
       ProcId first_proc, net::Network& network, Stats& stats);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] int proc_count() const noexcept {
    return static_cast<int>(procs_.size());
  }
  [[nodiscard]] Processor& proc(int local) { return *procs_.at(local); }
  [[nodiscard]] memsys::MemoryBus& membus() noexcept { return membus_; }
  [[nodiscard]] net::Nic& nic(int k = 0) noexcept { return *nics_.at(k); }
  [[nodiscard]] int nic_count() const noexcept {
    return static_cast<int>(nics_.size());
  }
  [[nodiscard]] net::NodeComm& comm() noexcept { return *comm_; }

  /// Wire the protocol agent to this node: interrupt dispatch and cache
  /// invalidation callbacks.
  void wire(svm::SvmAgent& agent);

  /// Drop stale cached lines on every processor of this node.
  void invalidate_caches(std::uint64_t addr, std::uint64_t len);

 private:
  [[nodiscard]] Processor& pick_interrupt_victim();

  engine::Simulator* sim_;
  const SimConfig* cfg_;
  NodeId id_;
  memsys::MemoryBus membus_;
  std::vector<std::unique_ptr<net::Nic>> nics_;
  std::unique_ptr<net::NodeComm> comm_;
  std::vector<std::unique_ptr<Processor>> procs_;
  int rr_next_ = 0;
};

}  // namespace svmsim
