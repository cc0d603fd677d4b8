// Properties of the pluggable interconnect layer (src/topo/, see
// docs/topology.md): spec parsing, route determinism and shape (torus hop
// counts are exactly the wraparound Manhattan distance; fat-tree paths go
// up*-then-down* and never repeat a link), and the per-link occupancy rows
// a contended run reports in Stats.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "apps/registry.hpp"
#include "core/machine.hpp"
#include "core/runner.hpp"
#include "topo/spec.hpp"
#include "topo/topology.hpp"

namespace svmsim {
namespace {

using topo::Kind;
using topo::LinkKind;
using topo::Spec;

// ---- Spec parsing -------------------------------------------------------

TEST(TopoSpec, ParsesEveryValidForm) {
  // "crossbar" names the paper's contention-free network: the default spec,
  // which prints as "legacy".
  EXPECT_EQ(Spec::parse("legacy"), Spec{});
  EXPECT_EQ(Spec::parse("crossbar"), Spec{});
  EXPECT_EQ(Spec{}.to_string(), "legacy");

  const auto ft = Spec::parse("fattree:4");
  ASSERT_TRUE(ft.has_value());
  EXPECT_EQ(ft->kind, Kind::kFatTree);
  EXPECT_EQ(ft->fat_k, 4);

  const auto t2 = Spec::parse("torus:4x4");
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(t2->kind, Kind::kTorus);
  EXPECT_EQ(t2->dims, (std::array<int, 3>{4, 4, 1}));

  const auto t3 = Spec::parse("torus:2x4x8");
  ASSERT_TRUE(t3.has_value());
  EXPECT_EQ(t3->dims, (std::array<int, 3>{2, 4, 8}));
}

TEST(TopoSpec, RejectsMalformedSpecs) {
  // Unknown names and empty input.
  EXPECT_FALSE(Spec::parse("").has_value());
  EXPECT_FALSE(Spec::parse("hypercube").has_value());
  EXPECT_FALSE(Spec::parse("crossbar:4").has_value());
  // Fat tree: odd, zero, out-of-range or junk arity.
  EXPECT_FALSE(Spec::parse("fattree:3").has_value());
  EXPECT_FALSE(Spec::parse("fattree:0").has_value());
  EXPECT_FALSE(Spec::parse("fattree:66").has_value());
  EXPECT_FALSE(Spec::parse("fattree:4x").has_value());
  EXPECT_FALSE(Spec::parse("fattree:-2").has_value());
  // Torus: 1D, >3D, zero extents, trailing separators.
  EXPECT_FALSE(Spec::parse("torus:4").has_value());
  EXPECT_FALSE(Spec::parse("torus:2x2x2x2").has_value());
  EXPECT_FALSE(Spec::parse("torus:0x4").has_value());
  EXPECT_FALSE(Spec::parse("torus:4x0").has_value());
  EXPECT_FALSE(Spec::parse("torus:4x4x").has_value());
  EXPECT_FALSE(Spec::parse("torus:4x 4").has_value());
}

TEST(TopoSpec, ToStringRoundTrips) {
  for (const char* text :
       {"legacy", "fattree:8", "torus:4x4", "torus:2x4x8"}) {
    const auto spec = Spec::parse(text);
    ASSERT_TRUE(spec.has_value()) << text;
    EXPECT_EQ(spec->to_string(), text);
    EXPECT_EQ(Spec::parse(spec->to_string()), spec);
  }
}

TEST(TopoSpec, FitsChecksCapacityAndExactProduct) {
  // fattree:4 hosts up to k^3/4 = 16 nodes (partial trees allowed).
  const Spec ft = *Spec::parse("fattree:4");
  EXPECT_TRUE(topo::fits(ft, 1));
  EXPECT_TRUE(topo::fits(ft, 16));
  EXPECT_FALSE(topo::fits(ft, 17));
  // Torus extents must multiply to exactly the node count.
  const Spec to = *Spec::parse("torus:4x4");
  EXPECT_TRUE(topo::fits(to, 16));
  EXPECT_FALSE(topo::fits(to, 8));
  EXPECT_FALSE(topo::fits(to, 17));
  // The contention-free network fits everything.
  EXPECT_TRUE(topo::fits(Spec{}, 1024));
}

// ---- Backend construction helpers ---------------------------------------

std::unique_ptr<topo::Topology> make(const char* spec, int nodes,
                                     const ArchParams& arch = ArchParams{}) {
  return topo::make_topology(*Spec::parse(spec), arch, nodes);
}

TEST(TopoBackend, ContentionFreeNetworkHasNone) {
  // The crossbar is the network with no backend installed.
  EXPECT_EQ(make("crossbar", 4), nullptr);
}

// ---- Route properties ---------------------------------------------------

TEST(TopoRoute, IsDeterministicAcrossCalls) {
  for (const char* spec : {"fattree:4", "torus:4x4"}) {
    const auto t = make(spec, 16);
    for (NodeId s = 0; s < 16; ++s) {
      for (NodeId d = 0; d < 16; ++d) {
        topo::Topology::RouteBuf a;
        topo::Topology::RouteBuf b;
        t->route(s, d, a);
        t->route(s, d, b);
        ASSERT_EQ(a.hops, b.hops) << spec << " " << s << "->" << d;
        for (int i = 0; i < a.hops; ++i) {
          ASSERT_EQ(a.link[static_cast<std::size_t>(i)],
                    b.link[static_cast<std::size_t>(i)])
              << spec << " " << s << "->" << d << " hop " << i;
        }
      }
    }
  }
}

TEST(TopoRoute, TorusHopCountIsWraparoundManhattanDistance) {
  const int X = 4;
  const int Y = 4;
  const auto t = make("torus:4x4", X * Y);
  for (NodeId s = 0; s < static_cast<NodeId>(X * Y); ++s) {
    for (NodeId d = 0; d < static_cast<NodeId>(X * Y); ++d) {
      topo::Topology::RouteBuf r;
      t->route(s, d, r);
      const auto ring_dist = [](int a, int b, int n) {
        const int fwd = (b - a + n) % n;
        return fwd <= n - fwd ? fwd : n - fwd;
      };
      const int manhattan = ring_dist(s % X, d % X, X) +
                            ring_dist(s / X, d / X, Y);
      // inject + one ring link per grid step + eject.
      EXPECT_EQ(r.hops, 2 + manhattan) << s << "->" << d;
      EXPECT_EQ(t->link(r.link[0]).kind, LinkKind::kInject);
      EXPECT_EQ(t->link(r.link[static_cast<std::size_t>(r.hops - 1)]).kind,
                LinkKind::kEject);
      for (int i = 1; i + 1 < r.hops; ++i) {
        EXPECT_EQ(t->link(r.link[static_cast<std::size_t>(i)]).kind,
                  LinkKind::kRing);
      }
    }
  }
}

TEST(TopoRoute, FatTreePathsGoUpThenDownAndNeverRepeatALink) {
  const auto t = make("fattree:4", 16);
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 0; d < 16; ++d) {
      topo::Topology::RouteBuf r;
      t->route(s, d, r);
      ASSERT_GE(r.hops, 2) << s << "->" << d;
      EXPECT_EQ(t->link(r.link[0]).kind, LinkKind::kInject);
      EXPECT_EQ(t->link(r.link[static_cast<std::size_t>(r.hops - 1)]).kind,
                LinkKind::kEject);
      // Between inject and eject the kind sequence must match kUp* kDown*:
      // once a path turns downward it never climbs again (up*-down* routing
      // is what makes the fat tree loop-free).
      bool descending = false;
      std::set<topo::LinkId> seen;
      for (int i = 0; i < r.hops; ++i) {
        const topo::LinkId id = r.link[static_cast<std::size_t>(i)];
        EXPECT_TRUE(seen.insert(id).second)
            << "repeated link on " << s << "->" << d;
        const LinkKind k = t->link(id).kind;
        if (k == LinkKind::kDown) descending = true;
        if (k == LinkKind::kUp) {
          EXPECT_FALSE(descending) << "up after down on " << s << "->" << d;
        }
      }
    }
  }
}

// ---- Validation at Machine construction ---------------------------------

TEST(TopoMachine, RejectsInvalidArchParams) {
  SimConfig cfg;
  cfg.arch.link_bytes_per_cycle = 0.0;
  EXPECT_THROW(Machine{cfg}, std::invalid_argument);
  cfg = SimConfig{};
  cfg.arch.wire_latency_cycles = 0;
  EXPECT_THROW(Machine{cfg}, std::invalid_argument);
  cfg = SimConfig{};
  cfg.arch.intra_link_bytes_per_cycle = -1.0;
  EXPECT_THROW(Machine{cfg}, std::invalid_argument);
  // A full packet, (mtu_payload_bytes + packet_header_bytes) / bandwidth,
  // must serialize in fewer than 2^53 cycles on each link class; 1e-6
  // bytes/cycle (about 4e9 cycles for the default 4128-byte packet) does.
  for (double ArchParams::*bw : {&ArchParams::intra_link_bytes_per_cycle,
                                 &ArchParams::inter_link_bytes_per_cycle}) {
    cfg = SimConfig{};
    cfg.arch.*bw = 1e-300;
    EXPECT_THROW(Machine{cfg}, std::invalid_argument);
    EXPECT_NE(cfg.arch.validate().find("is too small"), std::string::npos);
    cfg.arch.*bw = 1e-6;
    EXPECT_EQ(cfg.arch.validate(), "");
  }
  cfg = SimConfig{};
  cfg.arch.inter_link_bytes_per_cycle = 4128.0 / 0x1p53;  // exactly 2^53
  EXPECT_EQ(cfg.arch.validate(),
            "inter_link_bytes_per_cycle is too small: a full packet would "
            "take 2^53 cycles or more");
}

TEST(TopoMachine, RejectsUnfittingTopology) {
  SimConfig cfg;  // the default machine has 4 nodes
  ASSERT_EQ(cfg.comm.node_count(), 4);
  cfg.topology = *Spec::parse("torus:4x4");
  EXPECT_THROW(Machine{cfg}, std::invalid_argument);
  cfg.topology = *Spec::parse("fattree:2");  // capacity 2 < 4 nodes
  EXPECT_THROW(Machine{cfg}, std::invalid_argument);
}

// ---- End-to-end runs ----------------------------------------------------

TEST(TopoRun, ContendedRunReportsPerLinkOccupancy) {
  SimConfig cfg;
  cfg.topology = *Spec::parse("torus:2x2");
  auto w = apps::make_app("fft", apps::Scale::kTiny);
  const RunResult r = run(*w, cfg);
  ASSERT_TRUE(r.validated);

  // 4 nodes x (inject + eject + 2 directed ring links per dimension x 2).
  ASSERT_EQ(r.stats.links().size(), 4u * 6u);
  std::uint64_t grants = 0;
  std::uint64_t bytes = 0;
  for (const auto& l : r.stats.links()) {
    grants += l.grants;
    bytes += l.bytes;
  }
  EXPECT_GT(grants, 0u);
  EXPECT_GT(bytes, 0u);

  // The legacy network reports no link rows at all.
  auto wl = apps::make_app("fft", apps::Scale::kTiny);
  EXPECT_TRUE(run(*wl, SimConfig{}).stats.links().empty());
}

}  // namespace
}  // namespace svmsim
