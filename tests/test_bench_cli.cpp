// CLI-layer tests for the shared bench option parser (bench_common), the
// paper driver's figure table (figures.hpp) and the flag tables of every
// bench and example binary: an undeclared or repeated flag, a malformed
// number, an out-of-range --jobs, an unknown --apps, --scale, --protocol or
// figure name, a valued --check-consistency and a --csv that names no
// writable directory are usage errors, a failed point ends the raw-result
// drivers with exit 1, and every Options field reaches every point of every
// figure. Exit codes are part of the contract — scripts
// branch on them — so the failure paths are exercised as death/exit tests.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "figures.hpp"

namespace svmsim::bench {
namespace {

/// Run Options::parse over a fake argv. --jobs=1 is added unless `args`
/// sets --jobs, so no worker pool is spawned (keeps the death tests' fork
/// clean of threads).
Options parse(std::vector<std::string> args) {
  if (std::none_of(args.begin(), args.end(), [](const std::string& a) {
        return a.rfind("--jobs", 0) == 0;
      })) {
    args.push_back("--jobs=1");
  }
  args.insert(args.begin(), "bench_test");
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

/// Exit status and stderr of `binary args`, run through the shell. Only
/// ever given arguments that fail at parse time, so nothing is simulated.
struct Exit {
  int code = -1;
  std::string err;
};
Exit run_binary(const std::string& binary, const std::string& args) {
  const std::string err_file = ::testing::TempDir() + "svmsim_cli_stderr";
  const int status = std::system(
      (binary + " " + args + " > /dev/null 2> " + err_file).c_str());
  Exit e;
  if (WIFEXITED(status)) e.code = WEXITSTATUS(status);
  std::ifstream in(err_file);
  e.err.assign(std::istreambuf_iterator<char>(in), {});
  std::remove(err_file.c_str());
  return e;
}

// A flag the binary does not declare must fail, not run as if absent: the
// removed --par-cores would otherwise fall back to a serial run unnoticed.
TEST(BenchCliDeathTest, UnknownFlagExitsWithUsageCode) {
  EXPECT_EXIT(parse({"--par-cores=4"}), ::testing::ExitedWithCode(2),
              "unknown flag '--par-cores'");
  EXPECT_EXIT(parse({"--apps=fft", "--bogus"}), ::testing::ExitedWithCode(2),
              "unknown flag '--bogus'");
}

TEST(BenchCli, BinariesRejectUnknownFlags) {
  for (const char* binary :
       {SVMSIM_PAPER_BIN, SVMSIM_SWEEP_DUMP_BIN, SVMSIM_EXPLORE_BIN,
        SVMSIM_TRACE_ANALYZE_BIN, SVMSIM_QUICKSTART_BIN,
        SVMSIM_PARAMETER_STUDY_BIN}) {
    for (const char* name : {"par-cores", "bogus"}) {
      const std::string arg = std::string("--") + name;
      const Exit e = run_binary(binary, arg + "=4");
      EXPECT_EQ(e.code, 2) << binary << " " << arg;
      EXPECT_NE(e.err.find("unknown flag '" + arg + "'"), std::string::npos)
          << binary << ": " << e.err;
    }
  }
}

// A value that does not parse in full, or a flag given twice, must fail
// naming the flag and the value instead of running some other machine.
TEST(BenchCli, BinariesRejectMalformedValues) {
  const struct {
    const char* binary;
    const char* args;
    const char* diagnostic;
  } cases[] = {
      {SVMSIM_PAPER_BIN, "--jobs=abc", "--jobs value 'abc' is not an integer"},
      {SVMSIM_PAPER_BIN, "--link-bytes-per-cycle=2x",
       "--link-bytes-per-cycle value '2x' is not a number"},
      {SVMSIM_PAPER_BIN, "--jobs=1 --jobs=4", "repeated flag '--jobs'"},
      {SVMSIM_SWEEP_DUMP_BIN, "--procs=16x",
       "--procs value '16x' is not an integer"},
      {SVMSIM_SWEEP_DUMP_BIN, "--procs=16 --procs=64",
       "repeated flag '--procs'"},
      {SVMSIM_EXPLORE_BIN, "--max-states=abc",
       "--max-states value 'abc' is not an integer"},
      {SVMSIM_EXPLORE_BIN, "--expect-states=abc",
       "--expect-states value 'abc' is not an integer"},
      {SVMSIM_EXPLORE_BIN, "--protocol=x", "unknown --protocol value 'x'"},
      {SVMSIM_TRACE_ANALYZE_BIN, "--run --scale=huge",
       "unknown --scale value 'huge'"},
      {SVMSIM_QUICKSTART_BIN, "--scale=huge", "unknown --scale value 'huge'"},
  };
  for (const auto& c : cases) {
    const Exit e = run_binary(c.binary, c.args);
    EXPECT_EQ(e.code, 2) << c.binary << " " << c.args;
    EXPECT_NE(e.err.find(c.diagnostic), std::string::npos)
        << c.binary << " " << c.args << ": " << e.err;
  }
}

// A value the Cli accepts but the simulator rejects (an unknown application,
// a page size that is not a power of two) exits 1 with `<prog>: <what>`,
// not with an uncaught exception.
TEST(BenchCli, BinariesReportRejectedValues) {
  const struct {
    const char* binary;
    const char* args;
    const char* diagnostic;
  } cases[] = {
      {SVMSIM_QUICKSTART_BIN, "nosuchapp --scale=tiny",
       "quickstart: unknown application: nosuchapp"},
      {SVMSIM_EXPLORE_BIN,
       "--page-bytes=48 --app=stress-micro@3 --procs=2 --ppn=1 "
       "--max-states=4",
       "explore: page_bytes must be a nonzero power of two"},
      {SVMSIM_EXPLORE_BIN, "--app=nosuch --max-states=4",
       "explore: unknown application: nosuch"},
  };
  for (const auto& c : cases) {
    const Exit e = run_binary(c.binary, c.args);
    EXPECT_EQ(e.code, 1) << c.binary << " " << c.args;
    EXPECT_NE(e.err.find(c.diagnostic), std::string::npos)
        << c.binary << " " << c.args << ": " << e.err;
  }
}

// Death tests fork without running the pool: --jobs=257 fails in the Cli,
// before any worker would be spawned.
TEST(BenchCliDeathTest, JobsOutsideOneTo256ExitsWithUsageCode) {
  EXPECT_EXIT(parse({"--jobs=257"}), ::testing::ExitedWithCode(2),
              "--jobs value '257' is outside \\[1, 256\\]");
  EXPECT_EXIT(parse({"--jobs=0"}), ::testing::ExitedWithCode(2),
              "--jobs value '0' is outside");
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
  // A bool flag never takes the next word: a figure name after
  // --check-consistency stays a name, and only --flag=value is an error.
  const Options opt = parse({"--check-consistency", "fig05_host_overhead"});
  EXPECT_TRUE(opt.check.enabled);
  EXPECT_EQ(opt.names, std::vector<std::string>{"fig05_host_overhead"});
  EXPECT_EXIT(parse({"--check-consistency=x"}), ::testing::ExitedWithCode(2),
              "--check-consistency takes no value, got 'x'");
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

TEST(BenchCli, TraceFlagIsAccepted) {
  EXPECT_TRUE(parse({"--trace=/tmp/t.bin"}).trace.enabled);
}

// ---- --topology (src/topo/): malformed or unfitting specs must exit with
// kExitBadTopology, distinct from 2 and kExitBadProcs, because scripts
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

// A bandwidth so small that a full packet's serialization time overflows
// the conversion to Cycles is rejected by name; 1e-6 still runs.
TEST(BenchCli, OverflowingLinkBandwidthExitsWithBadArchCode) {
  const Exit e = run_binary(SVMSIM_PAPER_BIN,
                            "fig01_speedups --scale=tiny --apps=fft "
                            "--link-bytes-per-cycle=1e-300");
  EXPECT_EQ(e.code, kExitBadArch);
  EXPECT_NE(e.err.find("link_bytes_per_cycle is too small"),
            std::string::npos)
      << e.err;
  EXPECT_DOUBLE_EQ(parse({"--link-bytes-per-cycle=1e-6"})
                       .arch.link_bytes_per_cycle,
                   1e-6);
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
  // Two option sets: a non-default fabric and architecture, and a traced
  // run. fattree:4 fits every cluster the figures build (1 to 16 nodes).
  const Options fabric =
      parse({"--topology=fattree:4", "--wire-latency=50",
             "--link-bytes-per-cycle=4", "--check-consistency",
             "--apps=fft,lu"});
  const Options traced = parse({"--trace=/tmp/paper_test.bin",
                                "--check-consistency", "--apps=fft,lu"});
  std::set<std::string> trace_paths;
  for (const Figure& f : figures()) {
    for (const Options* opt : {&fabric, &traced}) {
      const auto pts = figure_points(f, *opt);
      EXPECT_EQ(pts.empty(), f.name == "table1_params") << f.name;
      for (const auto& p : pts) {
        EXPECT_EQ(p.cfg.arch, opt->arch) << f.name;
        EXPECT_EQ(p.cfg.topology, opt->topology) << f.name;
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
