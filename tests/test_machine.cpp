// Machine/Processor/Stats/Params level tests.
#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "common.hpp"
#include "harness/sweep.hpp"

namespace svmsim::test {
namespace {

using apps::Shm;

TEST(Params, AchievableMatchesPaperTable1) {
  const CommParams p = CommParams::achievable();
  EXPECT_EQ(p.host_overhead, 500u);
  EXPECT_DOUBLE_EQ(p.io_bus_mb_per_mhz, 0.5);
  EXPECT_EQ(p.ni_occupancy, 1000u);
  EXPECT_EQ(p.interrupt_cost, 500u);
  EXPECT_EQ(p.page_bytes, 4096u);
  EXPECT_EQ(p.procs_per_node, 4);
  EXPECT_EQ(p.total_procs, 16);
}

TEST(Params, BestZeroesSweptCostsAndMatchesMemoryBusBandwidth) {
  const CommParams p = CommParams::best();
  EXPECT_EQ(p.host_overhead, 0u);
  EXPECT_EQ(p.ni_occupancy, 0u);
  EXPECT_EQ(p.interrupt_cost, 0u);
  // Best I/O bandwidth equals the memory bus: 2 bytes/cycle.
  EXPECT_DOUBLE_EQ(p.io_bus_mb_per_mhz, 2.0);
}

TEST(Params, IoBusCyclesScaleInversely) {
  CommParams p;
  p.io_bus_mb_per_mhz = 0.5;
  EXPECT_EQ(p.io_bus_cycles(1000), 2000u);
  p.io_bus_mb_per_mhz = 2.0;
  EXPECT_EQ(p.io_bus_cycles(1000), 500u);
}

TEST(Params, NodeCount) {
  CommParams p;
  p.total_procs = 16;
  p.procs_per_node = 4;
  EXPECT_EQ(p.node_count(), 4);
  p.procs_per_node = 1;
  EXPECT_EQ(p.node_count(), 16);
}

TEST(Machine, RejectsIndivisibleClustering) {
  SimConfig cfg = achievable_config();
  cfg.comm.total_procs = 16;
  cfg.comm.procs_per_node = 3;
  EXPECT_THROW(Machine m(cfg), std::invalid_argument);
}

TEST(Machine, RejectsPageSizesThatAreNotPowersOfTwo) {
  // Addresses split into page and offset with a shift and a mask, so any
  // other page size would map addresses to the wrong pages silently.
  SimConfig cfg = config_with(4, 2);
  cfg.comm.page_bytes = 3000;
  EXPECT_THROW(Machine m(cfg), std::invalid_argument);
  cfg.comm.page_bytes = 0;
  EXPECT_THROW(Machine m(cfg), std::invalid_argument);

  // In a sweep the rejected config is a failed point, not a crash.
  cfg.comm.page_bytes = 3000;
  harness::Sweep sweep(apps::Scale::kTiny);
  const auto runs = sweep.run_points({{"fft", cfg, 3000.0}});
  ASSERT_TRUE(runs[0].failed());
  EXPECT_NE(runs[0].error.find("page_bytes"), std::string::npos)
      << runs[0].error;
}

TEST(Machine, RunsWithPagesSmallerThanACacheLine) {
  SimConfig cfg = config_with(4, 2);
  cfg.comm.page_bytes = 32;
  auto app = apps::make_app("fft", apps::Scale::kTiny);
  const RunResult r = svmsim::run(*app, cfg);
  EXPECT_TRUE(r.validated);
}

TEST(Machine, ProcessorNodeMapping) {
  SimConfig cfg = config_with(16, 4);
  Machine m(cfg);
  EXPECT_EQ(m.node_count(), 4);
  EXPECT_EQ(m.node_of(0), 0);
  EXPECT_EQ(m.node_of(3), 0);
  EXPECT_EQ(m.node_of(4), 1);
  EXPECT_EQ(m.node_of(15), 3);
  EXPECT_EQ(m.proc(5).id(), 5);
  EXPECT_EQ(m.proc(5).local_index(), 1);
  EXPECT_EQ(m.proc(5).node(), 1);
}

// SimConfig::par_cores and RunResult::windows outlive the parallel engine
// only because the frozen benchmark still assigns and reads them: setting
// par_cores must change nothing, and windows must read 0.
TEST(Machine, ParCoresFieldIsInert) {
  SimConfig cfg;
  cfg.comm = CommParams::achievable();
  auto a1 = apps::make_app("fft", apps::Scale::kTiny);
  const RunResult serial = svmsim::run(*a1, cfg);
  cfg.par_cores = 4;
  auto a2 = apps::make_app("fft", apps::Scale::kTiny);
  const RunResult r = svmsim::run(*a2, cfg);
  ASSERT_TRUE(r.validated);
  EXPECT_EQ(r.time, serial.time);
  EXPECT_EQ(r.events, serial.events);
  EXPECT_TRUE(r.stats == serial.stats);
  EXPECT_EQ(r.windows, 0u);
}

TEST(Stats, BreakdownSumsMatchExecutionTime) {
  // Per-processor breakdown buckets must account for (approximately) the
  // whole execution time: the books have to balance.
  SimConfig cfg = config_with(8, 4);
  auto app = apps::make_app("ocean", apps::Scale::kTiny);
  auto r = svmsim::run(*app, cfg);
  ASSERT_TRUE(r.validated);
  for (int p = 0; p < 8; ++p) {
    const Cycles sum = r.stats.proc(p).total();
    const double ratio =
        static_cast<double>(sum) / static_cast<double>(r.time);
    EXPECT_GT(ratio, 0.97) << "proc " << p;
    EXPECT_LT(ratio, 1.03) << "proc " << p;
  }
}

TEST(Stats, CountersAccumulate) {
  Counters a, b;
  a.page_fetches = 3;
  a.messages_sent = 5;
  b.page_fetches = 2;
  b.bytes_sent = 100;
  a += b;
  EXPECT_EQ(a.page_fetches, 5u);
  EXPECT_EQ(a.messages_sent, 5u);
  EXPECT_EQ(a.bytes_sent, 100u);
}

TEST(Stats, BreakdownHelpers) {
  Breakdown b;
  b.add(TimeCat::kCompute, 100);
  b.add(TimeCat::kMemStall, 20);
  b.add(TimeCat::kWriteBufStall, 5);
  b.add(TimeCat::kDataWait, 50);
  EXPECT_EQ(b.total(), 175u);
  EXPECT_EQ(b.local_only(), 125u);
}

TEST(Runner, UniprocessorConfigCollapsesCluster) {
  SimConfig cfg = config_with(16, 4);
  SimConfig uni = uniprocessor_config(cfg);
  EXPECT_EQ(uni.comm.total_procs, 1);
  EXPECT_EQ(uni.comm.procs_per_node, 1);
  // Other parameters preserved.
  EXPECT_EQ(uni.comm.host_overhead, cfg.comm.host_overhead);
}

TEST(Runner, ThrowsOnDeadlock) {
  SimConfig cfg = config_with(2, 1);
  LambdaWorkload w(
      "deadlock", nullptr,
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        if (pid == 0) co_await shm.barrier();  // pid 1 never arrives...
        if (pid == 1) co_await shm.lock(1), co_await shm.lock(1);  // self-deadlock
      });
  EXPECT_THROW(svmsim::run(w, cfg), std::runtime_error);
}

TEST(Runner, PerProcPerMCyclesNormalization) {
  RunResult r;
  r.stats = Stats(4);
  r.stats.proc(0).add(TimeCat::kCompute, 1000000);
  r.stats.proc(1).add(TimeCat::kCompute, 1000000);
  r.stats.proc(2).add(TimeCat::kCompute, 1000000);
  r.stats.proc(3).add(TimeCat::kCompute, 1000000);
  // 400 events over 4M total compute cycles = 100 per M.
  EXPECT_DOUBLE_EQ(r.per_proc_per_mcycles(400), 100.0);
}

TEST(Determinism, IdenticalRunsProduceIdenticalResults) {
  SimConfig cfg = config_with(8, 2);
  auto a1 = apps::make_app("fft", apps::Scale::kTiny);
  auto a2 = apps::make_app("fft", apps::Scale::kTiny);
  auto r1 = svmsim::run(*a1, cfg);
  auto r2 = svmsim::run(*a2, cfg);
  EXPECT_EQ(r1.time, r2.time);
  EXPECT_EQ(r1.stats.counters().messages_sent,
            r2.stats.counters().messages_sent);
  EXPECT_EQ(r1.stats.counters().page_fetches,
            r2.stats.counters().page_fetches);
  EXPECT_EQ(r1.stats.counters().bytes_sent, r2.stats.counters().bytes_sent);
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(r1.stats.proc(p).total(), r2.stats.proc(p).total());
  }
}

TEST(InterruptScheme, RoundRobinSpreadsHandlerLoad) {
  SimConfig cfg = config_with(4, 4);
  cfg.comm.interrupt_scheme = InterruptScheme::kRoundRobin;
  auto app = apps::make_app("fft", apps::Scale::kTiny);
  auto r = svmsim::run(*app, cfg);
  EXPECT_TRUE(r.validated);
}

}  // namespace
}  // namespace svmsim::test
