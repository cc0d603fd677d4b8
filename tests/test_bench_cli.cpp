// CLI-layer tests for the shared bench option parser (bench_common): the
// --trace / --par-cores conflict must terminate with its own exit code
// (kExitTracedParallel) and a diagnostic naming both flags and the docs,
// an unknown --apps name is a usage error, and --par-cores / --topology
// propagate into every sweep point. Exit codes are part of the contract —
// scripts branch on them — so the failure paths are exercised as death/exit
// tests.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.hpp"

namespace svmsim::bench {
namespace {

/// Run Options::parse over a fake argv. --jobs=1 is forced so no worker
/// pool is spawned (keeps the death tests' fork clean of threads).
Options parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench_test");
  args.push_back("--jobs=1");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return Options::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchCliDeathTest, TracedParallelExitsWithDistinctCode) {
  EXPECT_EXIT(parse({"--trace=/tmp/t.bin", "--par-cores=4"}),
              ::testing::ExitedWithCode(kExitTracedParallel),
              "--trace cannot be combined with --par-cores=4");
}

TEST(BenchCliDeathTest, TracedParallelDiagnosticPointsAtDocs) {
  EXPECT_EXIT(parse({"--trace=/tmp/t.bin", "--par-cores=2"}),
              ::testing::ExitedWithCode(kExitTracedParallel),
              "docs/tracing.md");
}

TEST(BenchCliDeathTest, UnknownAppExitsWithUsageCode) {
  EXPECT_EXIT(parse({"--apps=fft,nosuchapp"}), ::testing::ExitedWithCode(2),
              "unknown --apps value 'nosuchapp'");
}

TEST(BenchCliDeathTest, MalformedStressSeedExitsWithUsageCode) {
  EXPECT_EXIT(parse({"--apps=stress-gen@x"}), ::testing::ExitedWithCode(2),
              "unknown --apps value 'stress-gen@x'");
}

TEST(BenchCli, KnownAppsParse) {
  EXPECT_EQ(parse({"--apps=fft,stress-gen@7,stress-micro@3"}).app_names,
            (std::vector<std::string>{"fft", "stress-gen@7",
                                      "stress-micro@3"}));
}

TEST(BenchCliDeathTest, ZeroProcsExitsWithBadProcsCode) {
  EXPECT_EXIT(checked_total_procs("bench_test", "--pdes-procs", 0, 4),
              ::testing::ExitedWithCode(kExitBadProcs), "out of range");
}

TEST(BenchCliDeathTest, NegativeProcsExitsWithBadProcsCode) {
  EXPECT_EXIT(checked_total_procs("bench_test", "--pdes-procs", -8, 4),
              ::testing::ExitedWithCode(kExitBadProcs), "out of range");
}

TEST(BenchCliDeathTest, OverMaxProcsExitsWithBadProcsCode) {
  EXPECT_EXIT(
      checked_total_procs("bench_test", "--procs", kMaxTotalProcs + 1, 4),
      ::testing::ExitedWithCode(kExitBadProcs), "between 1 and");
}

TEST(BenchCliDeathTest, IndivisibleProcsNamesFlagAndDivisor) {
  EXPECT_EXIT(checked_total_procs("bench_test", "--pdes-procs", 10, 4),
              ::testing::ExitedWithCode(kExitBadProcs),
              "--pdes-procs=10 is not a multiple of procs_per_node=4");
}

TEST(BenchCli, ValidProcsPassThrough) {
  EXPECT_EQ(checked_total_procs("bench_test", "--pdes-procs", 256, 4), 256);
  EXPECT_EQ(checked_total_procs("bench_test", "--pdes-procs", 4, 4), 4);
  EXPECT_EQ(checked_total_procs("bench_test", "--pdes-procs", kMaxTotalProcs,
                                4),
            kMaxTotalProcs);
}

TEST(BenchCli, TraceAloneAndParCoresAloneAreAccepted) {
  EXPECT_EQ(parse({"--par-cores=4"}).par_cores, 4);
  EXPECT_TRUE(parse({"--trace=/tmp/t.bin"}).trace.enabled);
}

TEST(BenchCli, SweepPointsCarryParCores) {
  auto opt = parse({"--par-cores=2", "--apps=fft"});
  auto pts = suite_points({0.0}, [](SimConfig&, double) {}, opt);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].cfg.par_cores, 2);
}

// ---- --topology (src/topo/): malformed or unfitting specs must exit with
// kExitBadTopology, distinct from 2/3/4, because the equivalence scripts
// branch on it. ----

TEST(BenchCliDeathTest, ZeroTorusExtentExitsWithBadTopologyCode) {
  EXPECT_EXIT(parse({"--topology=torus:0x4"}),
              ::testing::ExitedWithCode(kExitBadTopology),
              "unknown --topology value 'torus:0x4'");
}

TEST(BenchCliDeathTest, OddFatTreeArityExitsWithBadTopologyCode) {
  EXPECT_EXIT(parse({"--topology=fattree:3"}),
              ::testing::ExitedWithCode(kExitBadTopology),
              "unknown --topology value 'fattree:3'");
}

TEST(BenchCliDeathTest, BogusTopologyExitsWithBadTopologyCode) {
  EXPECT_EXIT(parse({"--topology=hypercube"}),
              ::testing::ExitedWithCode(kExitBadTopology), "hypercube");
}

TEST(BenchCliDeathTest, UnfittingTopologyExitsWithBadTopologyCode) {
  // A 4x4 torus is well-formed but needs exactly 16 nodes.
  const auto spec = topo::Spec::parse("torus:4x4");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EXIT(checked_topology("bench_test", *spec, 4),
              ::testing::ExitedWithCode(kExitBadTopology),
              "does not fit a 4-node cluster");
}

TEST(BenchCliDeathTest, SweepPointsRejectUnfittingTopology) {
  // The paper's default machine is 4 nodes; a 4x4 torus cannot fit it, and
  // the misfit must surface at point-construction time, not as a Machine
  // constructor throw mid-sweep.
  auto opt = parse({"--topology=torus:4x4", "--apps=fft"});
  EXPECT_EXIT(suite_points({0.0}, [](SimConfig&, double) {}, opt),
              ::testing::ExitedWithCode(kExitBadTopology), "does not fit");
}

// ---- Architecture overrides: values ArchParams::validate() rejects must
// exit kExitBadArch before any simulation is constructed. ----

TEST(BenchCliDeathTest, ZeroLinkBandwidthExitsWithBadArchCode) {
  EXPECT_EXIT(parse({"--link-bytes-per-cycle=0"}),
              ::testing::ExitedWithCode(kExitBadArch),
              "link_bytes_per_cycle must be > 0");
}

TEST(BenchCliDeathTest, ZeroWireLatencyExitsWithBadArchCode) {
  EXPECT_EXIT(parse({"--wire-latency=0"}),
              ::testing::ExitedWithCode(kExitBadArch),
              "wire_latency_cycles must be nonzero");
}

TEST(BenchCli, TopologyFlagParsesAndPropagates) {
  EXPECT_EQ(parse({}).topology.kind, topo::Kind::kLegacy);
  EXPECT_EQ(parse({"--topology=crossbar"}).topology, topo::Spec{});
  const auto ft = parse({"--topology=fattree:8"}).topology;
  EXPECT_EQ(ft.kind, topo::Kind::kFatTree);
  EXPECT_EQ(ft.fat_k, 8);
  const auto to = parse({"--topology=torus:2x2"}).topology;
  EXPECT_EQ(to.kind, topo::Kind::kTorus);
  EXPECT_EQ(to.dims[0], 2);
  EXPECT_EQ(to.dims[1], 2);
  EXPECT_EQ(to.dims[2], 1);

  // A fitting spec lands on every sweep point (default machine: 4 nodes).
  auto opt = parse({"--topology=torus:2x2", "--apps=fft"});
  auto pts = suite_points({0.0}, [](SimConfig&, double) {}, opt);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].cfg.topology.kind, topo::Kind::kTorus);
}

TEST(BenchCli, ArchOverridesPropagateWhenValid) {
  auto opt = parse({"--link-bytes-per-cycle=4", "--wire-latency=50",
                    "--apps=fft"});
  EXPECT_DOUBLE_EQ(opt.arch.link_bytes_per_cycle, 4.0);
  EXPECT_EQ(opt.arch.wire_latency_cycles, 50u);
  auto pts = suite_points({0.0}, [](SimConfig&, double) {}, opt);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_DOUBLE_EQ(pts[0].cfg.arch.link_bytes_per_cycle, 4.0);
  EXPECT_EQ(pts[0].cfg.arch.wire_latency_cycles, 50u);
}

}  // namespace
}  // namespace svmsim::bench
