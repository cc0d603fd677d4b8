#include "svm/vclock.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>

#include "svm/page_directory.hpp"

namespace svmsim::svm {
namespace {

TEST(VClock, StartsAtZero) {
  VClock v(4);
  for (int n = 0; n < 4; ++n) EXPECT_EQ(v.get(n), 0u);
}

TEST(VClock, AdvanceIncrementsOneComponent) {
  VClock v(4);
  EXPECT_EQ(v.advance(2), 1u);
  EXPECT_EQ(v.advance(2), 2u);
  EXPECT_EQ(v.get(2), 2u);
  EXPECT_EQ(v.get(0), 0u);
}

TEST(VClock, CoversInterval) {
  VClock v(2);
  v.set(1, 3);
  EXPECT_TRUE(v.covers(1, 3));
  EXPECT_TRUE(v.covers(1, 1));
  EXPECT_FALSE(v.covers(1, 4));
  EXPECT_TRUE(v.covers(0, 0));
}

TEST(VClock, CoversIsComponentWise) {
  VClock a(3), b(3);
  a.set(0, 2);
  a.set(1, 2);
  b.set(0, 1);
  b.set(1, 2);
  EXPECT_TRUE(a.covers(b));
  EXPECT_FALSE(b.covers(a));
  b.set(2, 1);
  EXPECT_FALSE(a.covers(b));  // incomparable
  EXPECT_FALSE(b.covers(a));
}

TEST(VClock, MergeTakesComponentMax) {
  VClock a(3), b(3);
  a.set(0, 5);
  b.set(1, 7);
  b.set(0, 2);
  a.merge(b);
  EXPECT_EQ(a.get(0), 5u);
  EXPECT_EQ(a.get(1), 7u);
  EXPECT_EQ(a.get(2), 0u);
  EXPECT_TRUE(a.covers(b));
}

TEST(VClock, EqualityAndToString) {
  VClock a(2), b(2);
  EXPECT_EQ(a, b);
  a.advance(0);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.to_string(), "[1 0]");
}

// ---------------------------------------------------------------------------
// Property tests (fixed seed, sizes straddling the SBO boundary).
// ---------------------------------------------------------------------------

const int kPropertySizes[] = {1, 4, 15, 16, 17, 64, 256};

VClock random_clock(std::mt19937& rng, int nodes, std::uint32_t cap) {
  VClock v(nodes);
  std::uniform_int_distribution<std::uint32_t> d(0, cap);
  for (int i = 0; i < nodes; ++i) v.set(i, d(rng));
  return v;
}

// A lock grant carries the lock's clock t alone. The requester's clock when
// it asked, base, is covered by its clock have when the grant lands (clocks
// only grow), so folding base into t changes neither the notices the grant
// names nor the clock the acquire ends with.
TEST(VClockProperty, CoveredBaseChangesNoNoticesOrMerge) {
  constexpr std::uint32_t kIntervals = 10;
  std::mt19937 rng(7);
  for (int nodes : kPropertySizes) {
    PageDirectory dir(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
      for (std::uint32_t i = 1; i <= kIntervals; ++i) {
        dir.record_interval(n, i, {static_cast<PageId>(n), 1000 + i});
      }
    }
    for (int trial = 0; trial < 100; ++trial) {
      const VClock base = random_clock(rng, nodes, kIntervals);
      VClock have = base;
      if (trial % 4 != 0) have.merge(random_clock(rng, nodes, kIntervals));
      const VClock t = random_clock(rng, nodes, kIntervals);
      VClock folded = base;
      folded.merge(t);
      for (NodeId n = 0; n < nodes; ++n) {
        ASSERT_TRUE(std::ranges::equal(
            dir.pages_between(n, have.get(n), folded.get(n)),
            dir.pages_between(n, have.get(n), t.get(n))))
            << "nodes=" << nodes << " trial=" << trial << " node=" << n;
      }
      ASSERT_EQ(have.covers(folded), have.covers(t));
      VClock via_folded = have;
      via_folded.merge(folded);
      VClock via_t = have;
      via_t.merge(t);
      ASSERT_EQ(via_folded, via_t) << "nodes=" << nodes << " trial=" << trial;
    }
  }
}

TEST(VClockProperty, CoversMatchesNaiveAndIsAntisymmetric) {
  std::mt19937 rng(99);
  for (int nodes : kPropertySizes) {
    for (int trial = 0; trial < 100; ++trial) {
      const VClock a = random_clock(rng, nodes, 4);
      VClock b = trial % 2 == 0 ? random_clock(rng, nodes, 4) : a;
      if (trial % 4 == 1) b.advance(static_cast<NodeId>(trial % nodes));
      bool naive = true;
      for (int i = 0; i < nodes; ++i) {
        naive = naive && a.get(i) >= b.get(i);
      }
      ASSERT_EQ(a.covers(b), naive);
      // Antisymmetry: mutual covers is exactly equality.
      ASSERT_EQ(a.covers(b) && b.covers(a), a == b);
      // A merge dominates both inputs; a covers it only when a covers b.
      VClock m = a;
      m.merge(b);
      ASSERT_TRUE(m.covers(a));
      ASSERT_TRUE(m.covers(b));
      ASSERT_EQ(a.covers(m), a.covers(b));
    }
  }
}

TEST(VClockProperty, SummariesTrackValuesThroughRandomOps) {
  std::mt19937 rng(1234);
  for (int nodes : kPropertySizes) {
    VClock v(nodes);
    VClock other = random_clock(rng, nodes, 20);
    std::uniform_int_distribution<int> op(0, 3);
    std::uniform_int_distribution<int> pick(0, nodes - 1);
    std::uniform_int_distribution<std::uint32_t> val(0, 20);
    for (int step = 0; step < 300; ++step) {
      switch (op(rng)) {
        case 0:
          v.advance(static_cast<NodeId>(pick(rng)));
          break;
        case 1:
          v.set(static_cast<NodeId>(pick(rng)), val(rng));
          break;
        case 2:
          v.merge(other);
          break;
        case 3:
          other = random_clock(rng, nodes, 20);
          v = other;  // copy assignment must refresh the summaries too
          break;
      }
      std::uint64_t sum = 0;
      std::uint32_t max = 0;
      for (int i = 0; i < nodes; ++i) {
        sum += v.get(i);
        max = std::max(max, v.get(i));
      }
      ASSERT_EQ(v.sum(), sum) << "nodes=" << nodes << " step=" << step;
      ASSERT_EQ(v.max_component(), max);
      // The summary-based short circuits agree with value semantics.
      VClock copy = v;
      ASSERT_EQ(copy, v);
      ASSERT_TRUE(v.covers(copy) && copy.covers(v));
    }
  }
}

}  // namespace
}  // namespace svmsim::svm
