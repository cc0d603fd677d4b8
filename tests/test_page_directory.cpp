#include "svm/page_directory.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <vector>

namespace svmsim::svm {
namespace {

/// Every notice in (have, target]: each node's pages_between range in turn.
std::vector<PageId> notices(const PageDirectory& dir, const VClock& have,
                            const VClock& target) {
  std::vector<PageId> out;
  for (NodeId n = 0; n < dir.nodes(); ++n) {
    for (PageId p : dir.pages_between(n, have.get(n), target.get(n))) {
      out.push_back(p);
    }
  }
  return out;
}

TEST(PageDirectory, CollectsOnlyUncoveredIntervals) {
  PageDirectory dir(2);
  dir.record_interval(0, 1, {10, 11});
  dir.record_interval(0, 2, {12});
  dir.record_interval(1, 1, {20});

  VClock have(2);  // has seen nothing
  VClock target(2);
  target.set(0, 2);
  target.set(1, 1);

  const std::vector<PageId> got = notices(dir, have, target);
  EXPECT_EQ(got.size(), 4u);
  EXPECT_EQ(std::multiset<PageId>(got.begin(), got.end()),
            (std::multiset<PageId>{10, 11, 12, 20}));
}

TEST(PageDirectory, SkipsCoveredIntervals) {
  PageDirectory dir(2);
  dir.record_interval(0, 1, {10});
  dir.record_interval(0, 2, {11});
  VClock have(2);
  have.set(0, 1);
  VClock target(2);
  target.set(0, 2);
  EXPECT_EQ(notices(dir, have, target), (std::vector<PageId>{11}));
}

TEST(PageDirectory, RangesBelongToTheirWriter) {
  PageDirectory dir(3);
  dir.record_interval(2, 1, {5});
  dir.record_interval(2, 2, {6, 7});
  EXPECT_TRUE(dir.pages_between(0, 0, 0).empty());
  EXPECT_TRUE(dir.pages_between(2, 1, 1).empty());
  EXPECT_TRUE(dir.pages_between(2, 2, 1).empty());  // from past to: empty
  EXPECT_EQ(std::vector<PageId>(dir.pages_between(2, 0, 2).begin(),
                                dir.pages_between(2, 0, 2).end()),
            (std::vector<PageId>{5, 6, 7}));
  EXPECT_EQ(std::vector<PageId>(dir.pages_between(2, 1, 2).begin(),
                                dir.pages_between(2, 1, 2).end()),
            (std::vector<PageId>{6, 7}));
}

TEST(PageDirectory, CountMatchesCollect) {
  PageDirectory dir(2);
  dir.record_interval(0, 1, {1, 2, 3});
  dir.record_interval(1, 1, {4});
  dir.record_interval(1, 2, {5, 6});
  VClock have(2);
  have.set(1, 1);
  VClock target(2);
  target.set(0, 1);
  target.set(1, 2);
  const std::size_t collected = notices(dir, have, target).size();
  EXPECT_EQ(dir.count_notices(have, target), collected);
  EXPECT_EQ(collected, 5u);
}

// For random clock pairs, including ones where `have` is ahead of `target`
// in some components, the span sizes sum to count_notices, on both sides of
// the inline-clock boundary.
TEST(PageDirectory, SpanSizesSumToCountAtOneTo256Nodes) {
  std::mt19937 rng(7);
  for (const int nodes : {1, 2, 3, 16, 17, 64, 256}) {
    PageDirectory dir(nodes);
    std::vector<std::uint32_t> intervals(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n) {
      const std::uint32_t k = rng() % 9;
      for (std::uint32_t i = 1; i <= k; ++i) {
        std::vector<PageId> pages(rng() % 5);
        for (PageId& p : pages) p = rng() % 32;
        dir.record_interval(n, i, pages);
      }
      intervals[static_cast<std::size_t>(n)] = k;
    }
    for (int trial = 0; trial < 50; ++trial) {
      VClock have(nodes), target(nodes);
      for (int n = 0; n < nodes; ++n) {
        const std::uint32_t k = intervals[static_cast<std::size_t>(n)];
        have.set(n, rng() % (k + 1));
        target.set(n, rng() % (k + 1));
      }
      std::uint64_t sum = 0;
      for (NodeId n = 0; n < nodes; ++n) {
        sum += dir.pages_between(n, have.get(n), target.get(n)).size();
      }
      ASSERT_EQ(sum, dir.count_notices(have, target))
          << nodes << " nodes, trial " << trial;
    }
  }
}

TEST(PageDirectory, IntervalsOf) {
  PageDirectory dir(2);
  EXPECT_EQ(dir.intervals_of(0), 0u);
  dir.record_interval(0, 1, {});
  dir.record_interval(0, 2, {});
  EXPECT_EQ(dir.intervals_of(0), 2u);
  EXPECT_EQ(dir.intervals_of(1), 0u);
}

TEST(PageDirectory, EmptyIntervalContributesNothing) {
  PageDirectory dir(1);
  dir.record_interval(0, 1, {});
  VClock have(1);
  VClock target(1);
  target.set(0, 1);
  EXPECT_EQ(dir.count_notices(have, target), 0u);
}

// Large-machine growth: every node's flat log grows through many
// reallocations while count and range scans interleave with the appends.
// A scan only targets interval counts already recorded, as a clock carried
// by a message names only completed intervals.
TEST(PageDirectory, GrowthAt256NodesUnderInterleavedScans) {
  constexpr int kNodes = 256;
  constexpr std::uint32_t kIntervals = 64;
  PageDirectory dir(kNodes);
  VClock have(kNodes), target(kNodes);
  for (std::uint32_t idx = 1; idx <= kIntervals; ++idx) {
    for (int n = 0; n < kNodes; ++n) {
      const PageId pages[3] = {static_cast<PageId>(n), 1000u + idx,
                               2000u + static_cast<PageId>(n) + idx};
      dir.record_interval(n, idx, pages);
      target.set(n, idx);
      have.set(n, idx / 2);
      if (n % 64 != 0) continue;
      const std::uint64_t collected = notices(dir, have, target).size();
      // Both scans are bounded by the same (have, target) pair, so the
      // wire-sizing count and the walk must agree while the logs grow.
      ASSERT_EQ(collected, dir.count_notices(have, target));
    }
  }

  // Final state: every interval of every node is visible and exact.
  VClock none(kNodes), all(kNodes);
  for (int n = 0; n < kNodes; ++n) all.set(n, kIntervals);
  EXPECT_EQ(dir.count_notices(none, all),
            static_cast<std::uint64_t>(kNodes) * kIntervals * 3);
  for (int n = 0; n < kNodes; ++n) {
    ASSERT_EQ(dir.intervals_of(n), kIntervals);
  }
}

}  // namespace
}  // namespace svmsim::svm
