// Regression tests for core::Stats: per-processor Breakdown merge
// arithmetic, the bucket-sum invariant against execution time, the
// Counters <-> trace array mapping, and counter freshness across sweep
// points (a new run must never inherit a previous run's statistics).
#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "common.hpp"
#include "harness/sweep.hpp"
#include "trace/trace.hpp"

namespace {

using namespace svmsim;
using test::config_with;

TEST(Breakdown, MergeSumsEveryBucket) {
  Breakdown a, b;
  for (int i = 0; i < kTimeCats; ++i) {
    a.add(static_cast<TimeCat>(i), static_cast<Cycles>(10 * (i + 1)));
    b.add(static_cast<TimeCat>(i), static_cast<Cycles>(i + 1));
  }
  a += b;
  for (int i = 0; i < kTimeCats; ++i) {
    EXPECT_EQ(a.get(static_cast<TimeCat>(i)),
              static_cast<Cycles>(11 * (i + 1)));
  }
  EXPECT_EQ(a.total(), static_cast<Cycles>(11 * kTimeCats * (kTimeCats + 1) / 2));
}

TEST(Stats, AggregateEqualsPerProcSum) {
  Stats s(4);
  for (int p = 0; p < 4; ++p) {
    s.proc(p).add(TimeCat::kCompute, static_cast<Cycles>(100 * (p + 1)));
    s.proc(p).add(TimeCat::kLockWait, static_cast<Cycles>(p));
  }
  const Breakdown agg = s.aggregate();
  EXPECT_EQ(agg.get(TimeCat::kCompute), 1000u);
  EXPECT_EQ(agg.get(TimeCat::kLockWait), 6u);
  EXPECT_EQ(s.max_local_only(), 400u);
  EXPECT_EQ(s.total_compute(), 1000u);
}

static_assert(kCounterFields.size() == trace::kCounterCount &&
                  trace::kCounterCount == 20,
              "the Counters field table and the trace format list 20 fields");

TEST(Counters, MergeCoversAllTwentyFields) {
  // Drive the += through the trace array mapping so a field added to
  // Counters without updating either the merge or the mapping fails here.
  std::array<std::uint64_t, trace::kCounterCount> av{}, bv{};
  for (int i = 0; i < trace::kCounterCount; ++i) {
    av[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(i + 1);
    bv[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(100 + i);
  }
  Counters a = trace::counters_from_array(av);
  const Counters b = trace::counters_from_array(bv);
  a += b;
  const auto merged = trace::counters_to_array(a);
  for (int i = 0; i < trace::kCounterCount; ++i) {
    EXPECT_EQ(merged[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(101 + 2 * i))
        << trace::counter_name(i);
  }
}

TEST(Counters, ArrayMappingRoundtrips) {
  Counters c;
  c.page_faults = 11;
  c.bytes_sent = 1u << 20;
  c.ni_queue_overflows = 7;
  EXPECT_TRUE(trace::counters_from_array(trace::counters_to_array(c)) == c);
}

TEST(Stats, BucketSumInvariantOnRealRun) {
  // Every processor's buckets must account for its whole execution time,
  // and the machine-wide max must track the run's end time.
  SimConfig cfg = config_with(8, 4);
  auto app = apps::make_app("fft", apps::Scale::kTiny);
  const RunResult r = svmsim::run(*app, cfg);
  ASSERT_TRUE(r.validated);
  Cycles max_total = 0;
  for (int p = 0; p < 8; ++p) {
    const Cycles sum = r.stats.proc(p).total();
    EXPECT_GT(sum, 0u) << "proc " << p;
    const double ratio = static_cast<double>(sum) / static_cast<double>(r.time);
    EXPECT_GT(ratio, 0.97) << "proc " << p;
    EXPECT_LT(ratio, 1.03) << "proc " << p;
    max_total = std::max(max_total, sum);
  }
  EXPECT_LE(r.stats.max_local_only(), max_total);
}

TEST(Stats, CountersResetBetweenSweepPoints) {
  // Two sweep points at identical configurations must report identical
  // statistics: nothing may leak from one run into the next (a fresh
  // Machine per point). A differing middle point makes leakage visible.
  SimConfig base = config_with(8, 4);
  SimConfig other = base;
  other.comm.host_overhead = base.comm.host_overhead + 2000;

  harness::Sweep sweep(apps::Scale::kTiny);
  const std::vector<harness::SweepPoint> points = {
      {"fft", base, 0.0}, {"fft", other, 1.0}, {"fft", base, 2.0}};
  const std::vector<harness::AppRun> runs = sweep.run_points(points);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].result.time, runs[2].result.time);
  EXPECT_TRUE(runs[0].result.stats == runs[2].result.stats);
  // The perturbed middle point really did differ (the test has teeth).
  EXPECT_NE(runs[0].result.time, runs[1].result.time);
}

}  // namespace
