// Pluggable interconnect topologies with link-level contention.
//
// The legacy network (paper §2) is a contention-free crossbar: a packet's
// in-flight time is wire latency + serialization, independent of every other
// packet. A Topology replaces that single formula with a deterministic route
// — a sequence of physical links — where each link is a FIFO server:
// packets serialize at the link's bandwidth in arrival order and queue
// behind each other, so congestion on a shared fat-tree up-link or a torus
// ring is actually modeled. Links split into two cost classes (ArchParams): the
// intra-node injection/ejection links between a host and its first
// switch/router, and the inter-node switch-to-switch links.
//
// Contract (docs/topology.md):
//  - route() is a pure function of (src, dst): same pair, same link
//    sequence, every call. Link state is touched in wire-band (time, key)
//    order, so a contended run is as deterministic as a crossbar one.
//  - Every link's owner names the node it sits next to; it labels the
//    link's occupancy row (Stats::LinkUse::owner).
//  - Every backend is contended. The paper's contention-free crossbar is
//    not a backend: it is the network with no Topology installed
//    (Kind::kLegacy, also spelled --topology=crossbar).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/params.hpp"
#include "engine/types.hpp"
#include "topo/spec.hpp"

namespace svmsim::topo {

/// Link cost/role classes, stored in Stats::LinkUse::kind.
enum class LinkKind : std::int8_t {
  kInject = 0,  ///< host -> first switch/router (intra-node class)
  kEject,       ///< last switch/router -> host (intra-node class)
  kUp,          ///< fat tree: toward the core
  kDown,        ///< fat tree: toward the hosts
  kRing,        ///< torus: directed neighbor link
};

[[nodiscard]] std::string_view to_string(LinkKind k) noexcept;

using LinkId = std::uint32_t;

/// One directed physical link: a FIFO server whose backlog drains at
/// `free_at` (a packet serializes from max(now, free_at) on, from a
/// scheduled hop event), with the tallies of its Stats occupancy row.
struct Link {
  NodeId owner;            ///< node the link sits next to (row label)
  Cycles latency;          ///< propagation delay after serialization
  double bytes_per_cycle;  ///< serialization bandwidth
  LinkKind kind;
  Cycles free_at = 0;             ///< end of the last packet's serialization
  std::uint64_t grants = 0;       ///< packets serialized
  Cycles busy_cycles = 0;         ///< accumulated serialization time
  std::uint64_t wait_cycles = 0;  ///< accumulated queueing delay
  std::uint64_t bytes = 0;        ///< bytes serialized
};

class Topology {
 public:
  /// Routes never exceed this many links: the per-packet hop index travels
  /// in 8 bits of pooled wire state (net::Network::Hop). Backends whose
  /// diameter could exceed it (a long thin torus) reject at construction.
  static constexpr int kMaxHops = 255;

  /// Allocation-free route output buffer (route() runs once per packet on
  /// the transmit hot path).
  struct RouteBuf {
    std::array<LinkId, kMaxHops> link;
    int hops = 0;
    void push(LinkId id) noexcept {
      link[static_cast<std::size_t>(hops++)] = id;
    }
  };

  virtual ~Topology() = default;
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Deterministic route computation: fill `out` with the link sequence
  /// from src's injection link to dst's ejection link. Pure in (src, dst).
  virtual void route(NodeId src, NodeId dst, RouteBuf& out) const noexcept = 0;

  [[nodiscard]] std::size_t link_count() const noexcept {
    return links_.size();
  }
  [[nodiscard]] Link& link(std::size_t i) noexcept { return links_[i]; }
  [[nodiscard]] const Link& link(std::size_t i) const noexcept {
    return links_[i];
  }

 protected:
  explicit Topology(const ArchParams& arch) noexcept : arch_(&arch) {}

  /// Register one directed link of the given class; returns its id.
  LinkId add_link(NodeId owner, LinkKind kind);

  const ArchParams* arch_;
  std::vector<Link> links_;
};

/// Whether `spec` can host a cluster of `nodes` nodes: fat tree capacity is
/// k^3/4 hosts (partial trees allowed), torus extents must multiply to
/// exactly `nodes`. kLegacy fits everything.
[[nodiscard]] bool fits(const Spec& spec, int nodes) noexcept;

/// Construct the backend for `spec`: nullptr for kLegacy, which needs none.
/// Throws std::invalid_argument when the spec cannot host `nodes` nodes
/// (callers that want an exit code instead check topo::fits first — see
/// bench_common).
[[nodiscard]] std::unique_ptr<Topology> make_topology(
    const Spec& spec, const ArchParams& arch, int nodes);

}  // namespace svmsim::topo
