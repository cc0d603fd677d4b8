#include "topo/topology.hpp"

#include <stdexcept>

#include "topo/fat_tree.hpp"
#include "topo/torus.hpp"

namespace svmsim::topo {

std::string_view to_string(LinkKind k) noexcept {
  switch (k) {
    case LinkKind::kInject: return "inject";
    case LinkKind::kEject: return "eject";
    case LinkKind::kUp: return "up";
    case LinkKind::kDown: return "down";
    case LinkKind::kRing: return "ring";
  }
  return "?";
}

LinkId Topology::add_link(engine::Simulator& sim, NodeId owner,
                          LinkKind kind) {
  const bool intra = kind == LinkKind::kInject || kind == LinkKind::kEject;
  const Cycles lat = intra ? arch_->intra_hop_latency_cycles
                           : arch_->inter_hop_latency_cycles;
  const double bw = intra ? arch_->intra_link_bytes_per_cycle
                          : arch_->inter_link_bytes_per_cycle;
  links_.emplace_back(sim, owner, lat, bw, kind);
  return static_cast<LinkId>(links_.size() - 1);
}

void Topology::seal_links() noexcept {
  // Minimum advance of one hop: the serving link's latency plus at least
  // the packet header's serialization (truncation is monotone in bytes).
  Cycles floor = kNever;
  for (const Link& l : links_) {
    const auto header_ser = static_cast<Cycles>(
        static_cast<double>(arch_->packet_header_bytes) / l.bytes_per_cycle);
    const Cycles hop = l.latency + header_ser;
    if (hop < floor) floor = hop;
  }
  min_latency_ = (floor == kNever || floor < 1) ? 1 : floor;
}

bool fits(const Spec& spec, int nodes) noexcept {
  switch (spec.kind) {
    case Kind::kLegacy:
      return nodes >= 1;
    case Kind::kFatTree: {
      const int half = spec.fat_k / 2;
      return nodes >= 1 && nodes <= spec.fat_k * half * half;
    }
    case Kind::kTorus: {
      const int z = spec.dims[2] > 0 ? spec.dims[2] : 1;
      return static_cast<long>(spec.dims[0]) * spec.dims[1] * z == nodes;
    }
  }
  return false;
}

std::unique_ptr<Topology> make_topology(const Spec& spec,
                                        const ArchParams& arch, int nodes,
                                        const SimOfNode& sim_of_node) {
  switch (spec.kind) {
    case Kind::kLegacy:
      return nullptr;
    case Kind::kFatTree:
      return std::make_unique<FatTree>(arch, nodes, spec.fat_k, sim_of_node);
    case Kind::kTorus:
      return std::make_unique<Torus>(arch, nodes, spec.dims, sim_of_node);
  }
  throw std::invalid_argument("unknown topology kind");
}

}  // namespace svmsim::topo
