// Pluggable interconnect topologies with link-level contention.
//
// The legacy network (paper §2) is a contention-free crossbar: a packet's
// in-flight time is wire latency + serialization, independent of every other
// packet. A Topology replaces that single formula with a deterministic route
// — a sequence of physical links — where each link is an engine::Resource:
// packets serialize at the link's bandwidth in FIFO order and queue behind
// each other, so congestion on a shared fat-tree up-link or a torus ring is
// actually modeled. Links split into two cost classes (ArchParams): the
// intra-node injection/ejection links between a host and its first
// switch/router, and the inter-node switch-to-switch links.
//
// Contract (docs/topology.md):
//  - route() is a pure function of (src, dst): same pair, same link
//    sequence, every call, on every thread. This is what makes the PDES
//    replay of a contended network deterministic — link state is only ever
//    touched by its owner partition, in wire-band (time, key) order.
//  - Every link's owner names the node whose partition serves the link.
//  - min_latency() is the analytic minimum advance of a single hop
//    (latency + header serialization over the fastest link class) and is
//    the PDES lookahead floor: a hop event firing at t schedules its
//    successor no earlier than t + min_latency().
//  - Every backend is contended. The paper's contention-free crossbar is
//    not a backend: it is the network with no Topology installed
//    (Kind::kLegacy, also spelled --topology=crossbar).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string_view>

#include "core/params.hpp"
#include "engine/resource.hpp"
#include "engine/simulator.hpp"
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

/// One directed physical link. The Resource provides the FIFO serialization
/// point (reserve(): no coroutine needed from a scheduled hop event); the
/// tallies feed the per-link occupancy rows of Stats.
struct Link {
  engine::Resource server;
  NodeId owner;            ///< node whose partition serves this link
  Cycles latency;          ///< propagation delay after serialization
  double bytes_per_cycle;  ///< serialization bandwidth
  LinkKind kind;
  std::uint64_t wait_cycles = 0;  ///< accumulated queueing delay
  std::uint64_t bytes = 0;        ///< bytes serialized

  Link(engine::Simulator& sim, NodeId owner_node, Cycles lat, double bw,
       LinkKind k) noexcept
      : server(sim),
        owner(owner_node),
        latency(lat),
        bytes_per_cycle(bw),
        kind(k) {}
};

/// Which partition simulator owns a node — the Machine curries its
/// partition mapping through this when constructing a backend, so each
/// link's Resource is bound to the owner partition's clock.
using SimOfNode = std::function<engine::Simulator&(NodeId)>;

class Topology {
 public:
  /// Routes never exceed this many links: the per-packet hop index travels
  /// in 8 bits of pooled wire state (net::Network::Hop). Backends whose
  /// diameter could exceed it (a long thin torus) reject at construction.
  static constexpr int kMaxHops = 255;

  /// Allocation-free route output buffer (route() runs per hop on the
  /// transmit hot path).
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

  /// Analytic PDES lookahead floor; see the header comment.
  [[nodiscard]] Cycles min_latency() const noexcept { return min_latency_; }

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
  LinkId add_link(engine::Simulator& sim, NodeId owner, LinkKind kind);
  /// Compute min_latency_ over the registered links. Every contended
  /// backend's constructor ends with this.
  void seal_links() noexcept;

  const ArchParams* arch_;
  std::deque<Link> links_;  // deque: Resource addresses must be stable
  Cycles min_latency_ = 1;
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
    const Spec& spec, const ArchParams& arch, int nodes,
    const SimOfNode& sim_of_node);

}  // namespace svmsim::topo
