// k-ary fat tree (three tiers, nearest-common-ancestor routing).
//
// Standard k-ary fat-tree shape: k pods, each with k/2 edge and k/2
// aggregation switches; (k/2)^2 core switches; capacity k^3/4 hosts.
// Partial trees (fewer hosts than capacity) are allowed — the bench's
// 64-node machine runs on a fattree:8 whose capacity is 128.
//
// Routing is up*-down* through the nearest common ancestor, with the
// equal-cost choice (which aggregation switch, which core switch) made by a
// pure function of the destination address — the classic destination-based
// ECMP spread, and exactly what route()'s determinism contract requires.
//
// Every edge of the physical tree is two directed Links (up and down
// contend independently, as on real full-duplex ports). Host<->edge links
// are the intra-node class; everything above is inter-node.
#pragma once

#include <vector>

#include "topo/topology.hpp"

namespace svmsim::topo {

class FatTree final : public Topology {
 public:
  /// Throws std::invalid_argument when nodes > k^3/4.
  FatTree(const ArchParams& arch, int nodes, int k);

  [[nodiscard]] const char* name() const noexcept override {
    return "fattree";
  }
  void route(NodeId src, NodeId dst, RouteBuf& out) const noexcept override;

 private:
  int nodes_;
  int k_;
  int half_;       ///< k/2: up-ports per switch, hosts per edge switch
  int pod_hosts_;  ///< (k/2)^2: hosts per pod

  // Link-id tables, indexed by the tree coordinates. All full-capacity
  // slots exist (partial trees simply never route through the empty pods);
  // owners of links past the populated hosts are clamped modulo nodes_.
  std::vector<LinkId> host_up_;    // [host]            host -> edge
  std::vector<LinkId> host_down_;  // [host]            edge -> host
  std::vector<LinkId> edge_up_;    // [(pod*half+e)*half+a]  edge -> aggr
  std::vector<LinkId> aggr_down_;  // [(pod*half+a)*half+e]  aggr -> edge
  std::vector<LinkId> aggr_up_;    // [(pod*half+a)*half+ci] aggr -> core
  std::vector<LinkId> core_down_;  // [core*k + pod]         core -> aggr
};

}  // namespace svmsim::topo
