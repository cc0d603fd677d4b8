// CLI-layer tests for the shared bench option parser (bench_common) and the
// paper driver's figure table (figures.hpp): the --trace / --par-cores
// conflict must terminate with its own exit code (kExitTracedParallel) and a
// diagnostic naming both flags and the docs, an unknown --apps, --scale or
// figure name, a valued --check-consistency and a --csv that names no
// writable directory are usage errors, a failed point ends the raw-result
// drivers with exit 1, and every Options field reaches every point of every
// figure. Exit codes are part of the contract — scripts branch on them — so
// the failure paths are exercised as death/exit tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "figures.hpp"

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

/// The single point PointBuilder makes for the first --apps entry.
std::vector<harness::SweepPoint> one_point(const Options& opt) {
  PointBuilder b("test", opt);
  b.add(opt.app_names.front(), 0.0);
  return b.take();
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

TEST(BenchCliDeathTest, UnknownScaleExitsWithUsageCode) {
  EXPECT_EXIT(parse({"--scale=smal"}), ::testing::ExitedWithCode(2),
              "unknown --scale value 'smal'");
}

TEST(BenchCliDeathTest, ValuedCheckConsistencyExitsWithUsageCode) {
  // The Cli reads a word after a bare flag as its value: a figure name put
  // after --check-consistency must not vanish into it.
  EXPECT_EXIT(parse({"--check-consistency", "fig05_host_overhead"}),
              ::testing::ExitedWithCode(2),
              "--check-consistency takes no value, got "
              "'fig05_host_overhead'");
}

TEST(BenchCliDeathTest, CsvWithoutDirectoryExitsWithUsageCode) {
  // Rejected at parse time, before any point runs, instead of an uncaught
  // throw when the first finished table is written.
  EXPECT_EXIT(parse({"--csv=/nonexistent/svmsim-csv"}),
              ::testing::ExitedWithCode(2),
              "--csv directory '/nonexistent/svmsim-csv' does not exist");
  const std::string file = ::testing::TempDir() + "svmsim_csv_not_a_dir";
  { std::ofstream(file) << "x"; }
  EXPECT_EXIT(parse({"--csv=" + file}), ::testing::ExitedWithCode(2),
              "--csv directory");
  std::remove(file.c_str());
}

TEST(BenchCli, ExistingCsvDirParses) {
  const std::string dir = ::testing::TempDir();
  EXPECT_EQ(parse({"--csv=" + dir}).csv_dir, dir);
}

TEST(BenchCli, BareCheckConsistencyParses) {
  EXPECT_TRUE(parse({"--check-consistency"}).check.enabled);
  EXPECT_FALSE(parse({}).check.enabled);
}

TEST(BenchCliDeathTest, FailedPointExitsOne) {
  // ArchParams::validate() rejects a zero link bandwidth, so that point's
  // Machine constructor throws and run_points records a failed slot; the
  // drivers that print raw results must not pass it off as a row of zeros.
  SimConfig bad = base_config();
  bad.arch.link_bytes_per_cycle = 0;
  harness::Sweep sweep(apps::Scale::kTiny);
  const auto runs =
      sweep.run_points({{"fft", base_config(), 0.0}, {"fft", bad, 1.0}});
  ASSERT_FALSE(runs[0].failed()) << runs[0].error;
  exit_on_failed_point("bench_test", std::span(runs).first(1));  // returns
  EXPECT_EXIT(exit_on_failed_point("bench_test", runs),
              ::testing::ExitedWithCode(1),
              "bench_test: fft at 1 failed: .*link_bytes_per_cycle");
}

TEST(BenchCli, KnownScalesParse) {
  EXPECT_EQ(parse({"--scale=tiny"}).scale, apps::Scale::kTiny);
  EXPECT_EQ(parse({"--scale=small"}).scale, apps::Scale::kSmall);
  EXPECT_EQ(parse({"--scale=large"}).scale, apps::Scale::kLarge);
  EXPECT_EQ(parse({}).scale, apps::Scale::kSmall);
}

TEST(BenchCli, KnownAppsParse) {
  EXPECT_EQ(parse({"--apps=fft,stress-gen@7,stress-micro@3"}).app_names,
            (std::vector<std::string>{"fft", "stress-gen@7",
                                      "stress-micro@3"}));
}

TEST(BenchCliDeathTest, ZeroProcsExitsWithBadProcsCode) {
  EXPECT_EXIT(checked_total_procs("bench_test", "--procs", 0, 4),
              ::testing::ExitedWithCode(kExitBadProcs), "out of range");
}

TEST(BenchCliDeathTest, NegativeProcsExitsWithBadProcsCode) {
  EXPECT_EXIT(checked_total_procs("bench_test", "--procs", -8, 4),
              ::testing::ExitedWithCode(kExitBadProcs), "out of range");
}

TEST(BenchCliDeathTest, OverMaxProcsExitsWithBadProcsCode) {
  EXPECT_EXIT(
      checked_total_procs("bench_test", "--procs", kMaxTotalProcs + 1, 4),
      ::testing::ExitedWithCode(kExitBadProcs), "between 1 and");
}

TEST(BenchCliDeathTest, IndivisibleProcsNamesFlagAndDivisor) {
  EXPECT_EXIT(checked_total_procs("bench_test", "--procs", 10, 4),
              ::testing::ExitedWithCode(kExitBadProcs),
              "--procs=10 is not a multiple of procs_per_node=4");
}

TEST(BenchCli, ValidProcsPassThrough) {
  EXPECT_EQ(checked_total_procs("bench_test", "--procs", 256, 4), 256);
  EXPECT_EQ(checked_total_procs("bench_test", "--procs", 4, 4), 4);
  EXPECT_EQ(checked_total_procs("bench_test", "--procs", kMaxTotalProcs, 4),
            kMaxTotalProcs);
}

TEST(BenchCli, TraceAloneAndParCoresAloneAreAccepted) {
  EXPECT_EQ(parse({"--par-cores=4"}).par_cores, 4);
  EXPECT_TRUE(parse({"--trace=/tmp/t.bin"}).trace.enabled);
}

TEST(BenchCli, SweepPointsCarryParCores) {
  auto opt = parse({"--par-cores=2", "--apps=fft"});
  auto pts = one_point(opt);
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
  EXPECT_EXIT(one_point(opt),
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
  auto pts = one_point(opt);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].cfg.topology.kind, topo::Kind::kTorus);
}

TEST(BenchCli, ArchOverridesPropagateWhenValid) {
  auto opt = parse({"--link-bytes-per-cycle=4", "--wire-latency=50",
                    "--apps=fft"});
  EXPECT_DOUBLE_EQ(opt.arch.link_bytes_per_cycle, 4.0);
  EXPECT_EQ(opt.arch.wire_latency_cycles, 50u);
  auto pts = one_point(opt);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_DOUBLE_EQ(pts[0].cfg.arch.link_bytes_per_cycle, 4.0);
  EXPECT_EQ(pts[0].cfg.arch.wire_latency_cycles, 50u);
}

// ---- The paper driver's figures: one point path for all of them. ----

TEST(PaperFigures, EveryPointCarriesEveryOption) {
  // Two option sets, because --trace excludes --par-cores > 1. fattree:4
  // fits every cluster the figures build (1 to 16 nodes).
  const Options parallel =
      parse({"--par-cores=2", "--topology=fattree:4", "--wire-latency=50",
             "--link-bytes-per-cycle=4", "--check-consistency",
             "--apps=fft,lu"});
  const Options traced = parse({"--trace=/tmp/paper_test.bin",
                                "--check-consistency", "--apps=fft,lu"});
  std::set<std::string> trace_paths;
  for (const Figure& f : figures()) {
    for (const Options* opt : {&parallel, &traced}) {
      const auto pts = figure_points(f, *opt);
      EXPECT_EQ(pts.empty(), f.name == "table1_params") << f.name;
      for (const auto& p : pts) {
        EXPECT_EQ(p.cfg.arch, opt->arch) << f.name;
        EXPECT_EQ(p.cfg.topology, opt->topology) << f.name;
        EXPECT_EQ(p.cfg.par_cores, opt->par_cores) << f.name;
        EXPECT_EQ(p.cfg.trace.enabled, opt->trace.enabled) << f.name;
        EXPECT_EQ(p.cfg.trace.mask, opt->trace.mask) << f.name;
        EXPECT_TRUE(p.cfg.check.enabled) << f.name;
        if (!opt->trace.enabled) continue;
        const std::string prefix =
            "/tmp/paper_test.bin." + f.name + "." + p.app + "-";
        EXPECT_EQ(p.cfg.trace.path.rfind(prefix, 0), 0u) << p.cfg.trace.path;
        EXPECT_EQ(p.cfg.check.trace_path, p.cfg.trace.path + ".violation");
        EXPECT_TRUE(trace_paths.insert(p.cfg.trace.path).second)
            << "two points write " << p.cfg.trace.path;
      }
    }
  }
}

TEST(PaperFigures, NoNameSelectsEveryFigureInPaperOrder) {
  const auto all = select_figures({}, "paper");
  ASSERT_EQ(all.size(), 22u);
  EXPECT_EQ(all.front()->name, "table1_params");
  EXPECT_EQ(all[5]->name, "fig05_host_overhead");
  EXPECT_EQ(all.back()->name, "extra_multi_nic");
  const auto two = select_figures({"table3_max_slowdowns", "fig01_speedups"},
                                  "paper");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0]->name, "table3_max_slowdowns");
  EXPECT_EQ(two[1]->name, "fig01_speedups");
}

TEST(PaperFiguresDeathTest, UnknownFigureExitsWithUsageCode) {
  EXPECT_EXIT((void)select_figures({"fig05_host_overhead", "fig99"}, "paper"),
              ::testing::ExitedWithCode(2),
              "unknown figure 'fig99'; valid names:");
}

}  // namespace
}  // namespace svmsim::bench
