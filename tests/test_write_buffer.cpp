#include "memsys/write_buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <random>
#include <vector>

namespace svmsim::memsys {
namespace {

TEST(WriteBuffer, NoStallWhileBelowCapacity) {
  WriteBuffer wb(8, 4, 10);
  std::vector<std::uint64_t> retired;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(wb.push(static_cast<std::uint64_t>(i) * 64, 0, retired), 0u);
  }
}

TEST(WriteBuffer, CoalescesSameLine) {
  WriteBuffer wb(4, 4, 10);
  std::vector<std::uint64_t> retired;
  wb.push(0, 0, retired);
  wb.push(0, 1, retired);
  wb.push(0, 2, retired);
  EXPECT_EQ(wb.occupancy(), 1u);
  EXPECT_EQ(wb.coalesced(), 2u);
}

TEST(WriteBuffer, RetiresOncePolicyThresholdReached) {
  WriteBuffer wb(8, 4, 10);
  std::vector<std::uint64_t> retired;
  for (int i = 0; i < 4; ++i) {
    wb.push(static_cast<std::uint64_t>(i) * 64, 0, retired);
  }
  // At time 0 we have 4 entries: draining starts; after 10 cycles the first
  // entry retires.
  wb.advance(9, retired);
  EXPECT_TRUE(retired.empty());
  wb.advance(10, retired);
  EXPECT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0], 0u);
  EXPECT_EQ(wb.occupancy(), 3u);
}

TEST(WriteBuffer, DrainStopsBelowThreshold) {
  WriteBuffer wb(8, 4, 10);
  std::vector<std::uint64_t> retired;
  for (int i = 0; i < 4; ++i) {
    wb.push(static_cast<std::uint64_t>(i) * 64, 0, retired);
  }
  wb.advance(1000, retired);
  // Retire down to threshold-1 entries, then stop.
  EXPECT_EQ(retired.size(), 1u);
  EXPECT_EQ(wb.occupancy(), 3u);
}

TEST(WriteBuffer, FullBufferStallsUntilRetirement) {
  WriteBuffer wb(4, 4, 10);
  std::vector<std::uint64_t> retired;
  for (int i = 0; i < 4; ++i) {
    wb.push(static_cast<std::uint64_t>(i) * 64, 0, retired);
  }
  // Buffer full at t=5: the in-flight retirement (started at t=0) completes
  // at t=10, so we stall 5 cycles.
  const Cycles stall = wb.push(1000, 5, retired);
  EXPECT_EQ(stall, 5u);
  EXPECT_EQ(wb.full_stalls(), 1u);
  EXPECT_EQ(wb.occupancy(), 4u);
}

TEST(WriteBuffer, NoStallWhenRetirementAlreadyDone) {
  WriteBuffer wb(4, 2, 10);
  std::vector<std::uint64_t> retired;
  for (int i = 0; i < 4; ++i) {
    wb.push(static_cast<std::uint64_t>(i) * 64, 0, retired);
  }
  // By t=100 the drain (threshold 2) got occupancy down to 1.
  const Cycles stall = wb.push(1000, 100, retired);
  EXPECT_EQ(stall, 0u);
}

TEST(WriteBuffer, ContainsReportsBufferedLines) {
  WriteBuffer wb(8, 4, 10);
  std::vector<std::uint64_t> retired;
  wb.push(128, 0, retired);
  EXPECT_TRUE(wb.contains(128));
  EXPECT_FALSE(wb.contains(64));
}

TEST(WriteBuffer, RetirementIsFifo) {
  WriteBuffer wb(8, 2, 10);
  std::vector<std::uint64_t> retired;
  wb.push(64, 0, retired);
  wb.push(128, 0, retired);
  wb.push(192, 0, retired);
  wb.advance(100, retired);
  ASSERT_EQ(retired.size(), 2u);
  EXPECT_EQ(retired[0], 64u);
  EXPECT_EQ(retired[1], 128u);
}

/// Reference model: the retire-at-K buffer written over a std::deque, as
/// plainly as possible. WriteBuffer must match it call for call.
class DequeWriteBuffer {
 public:
  DequeWriteBuffer(std::uint32_t entries, std::uint32_t retire_at,
                   Cycles retire_cost)
      : entries_(entries), retire_at_(retire_at), retire_cost_(retire_cost) {}

  void advance(Cycles now, std::vector<std::uint64_t>& retired) {
    bool chained = false;
    while (!pending_.empty()) {
      if (draining_) {
        if (drain_done_ > now) return;
        retired.push_back(pending_.front());
        pending_.pop_front();
        draining_ = false;
        chained = true;
        continue;
      }
      if (pending_.size() < retire_at_) return;
      draining_ = true;
      const Cycles start = chained ? drain_done_ : now;
      drain_done_ = start + retire_cost_;
      chained = false;
    }
  }

  Cycles push(std::uint64_t line_addr, Cycles now,
              std::vector<std::uint64_t>& retired) {
    advance(now, retired);
    if (contains(line_addr)) {
      ++coalesced_;
      return 0;
    }
    Cycles stall = 0;
    if (pending_.size() >= entries_) {
      if (!draining_) {
        draining_ = true;
        drain_done_ = std::max(drain_done_, now) + retire_cost_;
      }
      stall = drain_done_ > now ? drain_done_ - now : 0;
      retired.push_back(pending_.front());
      pending_.pop_front();
      draining_ = false;
      ++full_stalls_;
      advance(now + stall, retired);
    }
    pending_.push_back(line_addr);
    advance(now + stall, retired);
    return stall;
  }

  [[nodiscard]] bool contains(std::uint64_t line_addr) const {
    return std::find(pending_.begin(), pending_.end(), line_addr) !=
           pending_.end();
  }
  [[nodiscard]] std::size_t occupancy() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t full_stalls() const { return full_stalls_; }
  [[nodiscard]] std::uint64_t coalesced() const { return coalesced_; }

 private:
  std::uint32_t entries_;
  std::uint32_t retire_at_;
  Cycles retire_cost_;
  std::deque<std::uint64_t> pending_;
  Cycles drain_done_ = 0;
  bool draining_ = false;
  std::uint64_t full_stalls_ = 0;
  std::uint64_t coalesced_ = 0;
};

struct Shape {
  std::uint32_t entries;
  std::uint32_t retire_at;
};

class WriteBufferDifferential : public ::testing::TestWithParam<Shape> {};

TEST_P(WriteBufferDifferential, MatchesDequeModel) {
  const Shape shape = GetParam();
  constexpr Cycles kRetireCost = 10;
  std::uint64_t stalls = 0;
  std::uint64_t retirements = 0;
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    WriteBuffer wb(shape.entries, shape.retire_at, kRetireCost);
    DequeWriteBuffer ref(shape.entries, shape.retire_at, kRetireCost);
    std::vector<std::uint64_t> got;
    std::vector<std::uint64_t> want;
    Cycles now = 0;
    // Three lines per entry: stores coalesce and loads hit in the buffer
    // often, yet bursts still fill it.
    const std::uint64_t lines = shape.entries * 3;
    for (int step = 0; step < 4000; ++step) {
      // Time repeats (a burst), creeps, jumps past a retirement or two, or
      // idles long enough to drain everything.
      switch (rng() % 8) {
        case 0: case 1: case 2: case 3: break;
        case 4: case 5: now += rng() % 4; break;
        case 6: now += rng() % (3 * kRetireCost); break;
        default: now += 1000 + rng() % 5000; break;
      }
      const std::uint64_t line = (rng() % lines) * 64;
      const auto op = rng() % 10;
      if (op < 6) {
        ASSERT_EQ(wb.push(line, now, got), ref.push(line, now, want))
            << "seed " << seed << " step " << step;
      } else if (op < 8) {
        wb.advance(now, got);
        ref.advance(now, want);
      } else {
        ASSERT_EQ(wb.contains(line), ref.contains(line))
            << "seed " << seed << " step " << step;
      }
      ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
      ASSERT_EQ(wb.occupancy(), ref.occupancy());
      ASSERT_EQ(wb.coalesced(), ref.coalesced());
      ASSERT_EQ(wb.full_stalls(), ref.full_stalls());
    }
    stalls += ref.full_stalls();
    retirements += want.size();
  }
  // The streams reach both the full-buffer stall and ordinary retirement.
  EXPECT_GT(stalls, 0u);
  EXPECT_GT(retirements, stalls);
}

// The non-power-of-two capacities do not fill the ring's backing store.
INSTANTIATE_TEST_SUITE_P(Shapes, WriteBufferDifferential,
                         ::testing::Values(Shape{1, 1}, Shape{4, 2},
                                           Shape{8, 4}, Shape{12, 5},
                                           Shape{3, 3}),
                         [](const auto& info) {
                           return "e" + std::to_string(info.param.entries) +
                                  "_k" +
                                  std::to_string(info.param.retire_at);
                         });

TEST(WriteBuffer, QuietExactlyWhenAdvanceIsANoOp) {
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    std::mt19937_64 rng(seed);
    WriteBuffer wb(6, 3, 10);
    std::vector<std::uint64_t> retired;
    Cycles now = 0;
    for (int step = 0; step < 2000; ++step) {
      now += rng() % 12;
      if (rng() % 2 == 0) wb.push((rng() % 16) * 64, now, retired);
      const Cycles probe = now + rng() % 25;
      const bool quiet = wb.quiet(probe);
      WriteBuffer copy = wb;
      std::vector<std::uint64_t> out;
      copy.advance(probe, out);
      if (quiet) {
        ASSERT_TRUE(out.empty()) << "seed " << seed << " step " << step;
      } else {
        ASSERT_FALSE(out.empty()) << "seed " << seed << " step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace svmsim::memsys
