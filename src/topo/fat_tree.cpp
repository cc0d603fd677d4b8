#include "topo/fat_tree.hpp"

#include <stdexcept>
#include <string>

namespace svmsim::topo {

FatTree::FatTree(const ArchParams& arch, int nodes, int k)
    : Topology(arch), nodes_(nodes), k_(k), half_(k / 2),
      pod_hosts_(half_ * half_) {
  const int capacity = k * pod_hosts_;  // k pods x (k/2)^2 hosts = k^3/4
  if (nodes < 1 || nodes > capacity) {
    throw std::invalid_argument(
        "fattree:" + std::to_string(k) + " hosts at most " +
        std::to_string(capacity) + " nodes, got " + std::to_string(nodes));
  }
  const int hosts = capacity;
  const int switches = half_;  // per tier per pod
  // A link's owner is the host it is "near" (the host itself, or the first
  // host under the switch); it only labels the link's occupancy row.
  // Owners for slots past the populated hosts wrap modulo nodes_.
  const auto owner_of = [this](int host) -> NodeId {
    return static_cast<NodeId>(host % nodes_);
  };

  host_up_.resize(static_cast<std::size_t>(hosts));
  host_down_.resize(static_cast<std::size_t>(hosts));
  for (int h = 0; h < hosts; ++h) {
    const NodeId o = owner_of(h);
    host_up_[static_cast<std::size_t>(h)] =
        add_link(o, LinkKind::kInject);
    host_down_[static_cast<std::size_t>(h)] =
        add_link(o, LinkKind::kEject);
  }

  edge_up_.resize(static_cast<std::size_t>(k * switches * half_));
  aggr_down_.resize(static_cast<std::size_t>(k * switches * half_));
  aggr_up_.resize(static_cast<std::size_t>(k * switches * half_));
  for (int pod = 0; pod < k; ++pod) {
    for (int e = 0; e < switches; ++e) {
      // Edge (pod, e) serves hosts [pod*pod_hosts + e*half, +half).
      const NodeId edge_owner = owner_of(pod * pod_hosts_ + e * half_);
      for (int a = 0; a < half_; ++a) {
        edge_up_[static_cast<std::size_t>((pod * half_ + e) * half_ + a)] =
            add_link(edge_owner, LinkKind::kUp);
      }
    }
    const NodeId pod_owner = owner_of(pod * pod_hosts_);
    for (int a = 0; a < switches; ++a) {
      for (int e = 0; e < half_; ++e) {
        // Down links are owned near their target edge switch.
        const NodeId o = owner_of(pod * pod_hosts_ + e * half_);
        aggr_down_[static_cast<std::size_t>((pod * half_ + a) * half_ + e)] =
            add_link(o, LinkKind::kDown);
      }
      for (int ci = 0; ci < half_; ++ci) {
        aggr_up_[static_cast<std::size_t>((pod * half_ + a) * half_ + ci)] =
            add_link(pod_owner, LinkKind::kUp);
      }
    }
  }

  const int cores = half_ * half_;
  core_down_.resize(static_cast<std::size_t>(cores * k));
  for (int c = 0; c < cores; ++c) {
    for (int pod = 0; pod < k; ++pod) {
      const NodeId o = owner_of(pod * pod_hosts_);  // toward the target pod
      core_down_[static_cast<std::size_t>(c * k_ + pod)] =
          add_link(o, LinkKind::kDown);
    }
  }

}

void FatTree::route(NodeId src, NodeId dst, RouteBuf& out) const noexcept {
  out.hops = 0;
  const int s = src;
  const int d = dst;
  const int ps = s / pod_hosts_;
  const int pd = d / pod_hosts_;
  const int es = (s % pod_hosts_) / half_;
  const int ed = (d % pod_hosts_) / half_;

  out.push(host_up_[static_cast<std::size_t>(s)]);
  if (ps == pd && es == ed) {
    // Nearest common ancestor is the shared edge switch.
    out.push(host_down_[static_cast<std::size_t>(d)]);
    return;
  }
  // Destination-based ECMP: the aggregation slot (and, cross-pod, the core
  // within that slot's group) are pure functions of the destination
  // address, spreading distinct destinations over the equal-cost ancestors.
  const int a = d % half_;
  out.push(edge_up_[static_cast<std::size_t>((ps * half_ + es) * half_ + a)]);
  if (ps != pd) {
    const int ci = (d / half_) % half_;
    const int c = a * half_ + ci;
    out.push(
        aggr_up_[static_cast<std::size_t>((ps * half_ + a) * half_ + ci)]);
    out.push(core_down_[static_cast<std::size_t>(c * k_ + pd)]);
  }
  out.push(
      aggr_down_[static_cast<std::size_t>((pd * half_ + a) * half_ + ed)]);
  out.push(host_down_[static_cast<std::size_t>(d)]);
}

}  // namespace svmsim::topo
