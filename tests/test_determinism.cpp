// Bit-reproducibility guarantees: the same app+config simulated twice gives
// identical results, and a parallel (--jobs) sweep is byte-identical to the
// serial one.
#include <gtest/gtest.h>

#include <vector>

#include "apps/registry.hpp"
#include "core/runner.hpp"
#include "harness/job_pool.hpp"
#include "harness/sweep.hpp"

namespace svmsim {
namespace {

SimConfig achievable_config() {
  SimConfig cfg;
  cfg.comm = CommParams::achievable();
  return cfg;
}

TEST(Determinism, RepeatedRunIsBitIdentical) {
  const SimConfig cfg = achievable_config();
  auto w1 = apps::make_app("fft", apps::Scale::kTiny);
  RunResult r1 = run(*w1, cfg);
  auto w2 = apps::make_app("fft", apps::Scale::kTiny);
  RunResult r2 = run(*w2, cfg);

  ASSERT_TRUE(r1.validated);
  ASSERT_TRUE(r2.validated);
  EXPECT_EQ(r1.time, r2.time);
  EXPECT_EQ(r1.events, r2.events);
  EXPECT_TRUE(r1.stats == r2.stats);
  EXPECT_TRUE(r1.stats.counters() == r2.stats.counters());
}

TEST(Determinism, RunResultCountsEvents) {
  auto w = apps::make_app("fft", apps::Scale::kTiny);
  RunResult r = run(*w, achievable_config());
  EXPECT_GT(r.events, 0u);
}

// The fig05 host-overhead matrix over fft and lu at tiny scale, serial vs a
// four-worker --jobs pool.
TEST(Determinism, SerialAndParallelSweepIdentical) {
  const std::vector<double> values{0, 500, 1000, 2000};
  const auto apply = [](SimConfig& c, double v) {
    c.comm.host_overhead = static_cast<Cycles>(v);
  };

  std::vector<harness::SweepPoint> points;
  for (const char* app : {"fft", "lu"}) {
    for (double v : values) {
      harness::SweepPoint p{app, achievable_config(), v};
      apply(p.cfg, v);
      points.push_back(std::move(p));
    }
  }

  harness::Sweep serial_sweep(apps::Scale::kTiny);
  auto serial = serial_sweep.run_points(points, nullptr);

  harness::JobPool pool(4);
  harness::Sweep parallel_sweep(apps::Scale::kTiny);
  auto parallel = parallel_sweep.run_points(points, &pool);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Two failed slots would compare equal.
    EXPECT_FALSE(serial[i].failed()) << serial[i].error;
    EXPECT_FALSE(parallel[i].failed()) << parallel[i].error;
    EXPECT_EQ(serial[i].app, parallel[i].app) << "point " << i;
    EXPECT_EQ(serial[i].param, parallel[i].param) << "point " << i;
    EXPECT_EQ(serial[i].uniprocessor, parallel[i].uniprocessor)
        << "point " << i;
    EXPECT_EQ(serial[i].result.time, parallel[i].result.time) << "point " << i;
    EXPECT_EQ(serial[i].result.events, parallel[i].result.events)
        << "point " << i;
    EXPECT_TRUE(serial[i].result.stats == parallel[i].result.stats)
        << "point " << i;
  }
}

TEST(Determinism, SweepBaselineCacheIsSharedAcrossPoints) {
  // All points of one app at one page size / protocol must report the same
  // uniprocessor baseline (one cache entry, computed once).
  harness::Sweep sweep(apps::Scale::kTiny);
  auto runs = sweep.run_sweep(
      "fft", achievable_config(), {0, 1000},
      [](SimConfig& c, double v) {
        c.comm.host_overhead = static_cast<Cycles>(v);
      });
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].uniprocessor, runs[1].uniprocessor);
  EXPECT_GT(runs[0].uniprocessor, 0u);
}

}  // namespace
}  // namespace svmsim
