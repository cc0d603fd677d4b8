// Sensitivity sanity tests: varying each of the paper's communication
// parameters must move end performance in the documented direction.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "apps/registry.hpp"
#include "common.hpp"
#include "harness/sweep.hpp"

namespace svmsim::test {
namespace {

Cycles time_with(const std::string& app, SimConfig cfg) {
  auto a = apps::make_app(app, apps::Scale::kTiny);
  auto r = svmsim::run(*a, cfg);
  EXPECT_TRUE(r.validated);
  return r.time;
}

TEST(Sensitivity, InterruptCostHurtsEveryApp) {
  for (const auto& name : {"fft", "water-nsq", "barnes"}) {
    SimConfig lo = achievable_config();
    lo.comm.interrupt_cost = 0;
    SimConfig hi = achievable_config();
    hi.comm.interrupt_cost = 5000;
    EXPECT_GT(time_with(name, hi), time_with(name, lo)) << name;
  }
}

TEST(Sensitivity, BandwidthHelpsDataIntensiveApps) {
  SimConfig lo = achievable_config();
  lo.comm.io_bus_mb_per_mhz = 0.125;
  SimConfig hi = achievable_config();
  hi.comm.io_bus_mb_per_mhz = 2.0;
  EXPECT_GT(time_with("fft", lo), time_with("fft", hi));
  EXPECT_GT(time_with("radix", lo), time_with("radix", hi));
}

TEST(Sensitivity, HostOverheadHasModestEffect) {
  SimConfig lo = achievable_config();
  lo.comm.host_overhead = 0;
  SimConfig hi = achievable_config();
  hi.comm.host_overhead = 2000;
  const Cycles tlo = time_with("fft", lo);
  const Cycles thi = time_with("fft", hi);
  EXPECT_GE(thi, tlo);
  // Host overhead is amortized over page-grain transfers (paper §5):
  // a 2000-cycle overhead must cost far less than 2000 x messages.
  EXPECT_LT(static_cast<double>(thi) / static_cast<double>(tlo), 2.0);
}

TEST(Sensitivity, BestIsAtLeastAsFastAsAchievable) {
  for (const auto& name : {"fft", "lu", "water-nsq"}) {
    SimConfig ach = achievable_config();
    SimConfig best = achievable_config();
    best.comm = CommParams::best();
    EXPECT_LE(time_with(name, best), time_with(name, ach)) << name;
  }
}

TEST(Sensitivity, AurcIsMoreOccupancySensitiveThanHlrc) {
  // Figure 12's qualitative claim: raising NI occupancy hurts AURC more
  // than HLRC (updates are fine-grained packets).
  auto slowdown = [&](Protocol proto) {
    SimConfig lo = achievable_config();
    lo.comm.protocol = proto;
    lo.comm.ni_occupancy = 0;
    SimConfig hi = lo;
    hi.comm.ni_occupancy = 4000;
    return static_cast<double>(time_with("water-nsq", hi)) /
           static_cast<double>(time_with("water-nsq", lo));
  };
  EXPECT_GT(slowdown(Protocol::kAURC), slowdown(Protocol::kHLRC) * 0.95);
}

TEST(Sweep, BaselineIsCachedPerApp) {
  harness::Sweep sweep(apps::Scale::kTiny);
  SimConfig cfg = achievable_config();
  const Cycles b1 = sweep.baseline("fft", cfg);
  const Cycles b2 = sweep.baseline("fft", cfg);
  EXPECT_EQ(b1, b2);
  EXPECT_GT(b1, 0u);
}

TEST(Sweep, RunSweepProducesOnePointPerValue) {
  harness::Sweep sweep(apps::Scale::kTiny);
  SimConfig cfg = achievable_config();
  auto runs = sweep.run_sweep("lu", cfg, {0, 1000, 5000},
                              [](SimConfig& c, double v) {
                                c.comm.interrupt_cost = static_cast<Cycles>(v);
                              });
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].param, 0.0);
  EXPECT_EQ(runs[2].param, 5000.0);
  for (const auto& r : runs) {
    EXPECT_GT(r.speedup(), 0.0);
    EXPECT_GE(r.ideal_speedup(), r.speedup() * 0.99);
  }
  // Higher interrupt cost, lower speedup at the extremes.
  EXPECT_GT(runs[0].speedup(), runs[2].speedup());
  EXPECT_GT(harness::max_slowdown_pct(runs), 0.0);
}

TEST(Sweep, IdealSpeedupIgnoresCommunication) {
  harness::Sweep sweep(apps::Scale::kTiny);
  SimConfig cfg = achievable_config();
  auto point = sweep.run_point("ocean", cfg, 0);
  EXPECT_GT(point.ideal_speedup(), point.speedup());
}

// The tag store indexes sets with a shift and a mask; any geometry it cannot
// index that way is rejected up front, in release builds too.
TEST(CacheGeometry, MachineRejectsNonPowerOfTwoLine) {
  SimConfig cfg = achievable_config();
  cfg.arch.l2.line_bytes = 48;
  try {
    Machine m(cfg);
    FAIL() << "Machine accepted a 48-byte L2 line";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("l2.line_bytes"), std::string::npos)
        << e.what();
  }
}

TEST(CacheGeometry, ValidateNamesTheOffendingField) {
  EXPECT_EQ(ArchParams{}.validate(), "");
  EXPECT_EQ((CacheParams{16 * 1024, 1, 64, 1}.validate()), "");
  EXPECT_NE((CacheParams{0, 1, 64, 1}.validate()), "");
  EXPECT_NE((CacheParams{16 * 1024, 0, 64, 1}.validate()), "");
  EXPECT_NE((CacheParams{16 * 1024, 1, 0, 1}.validate()), "");
  // 48 KB / 64 B = 768 sets: not a power of two.
  EXPECT_NE((CacheParams{48 * 1024, 1, 64, 1}.validate()), "");
  ArchParams arch;
  arch.l1.associativity = 0;
  EXPECT_EQ(arch.validate().rfind("l1.", 0), 0u) << arch.validate();
}

}  // namespace
}  // namespace svmsim::test
