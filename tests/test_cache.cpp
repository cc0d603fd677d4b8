#include "memsys/cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <random>
#include <stdexcept>
#include <tuple>
#include <vector>

namespace svmsim::memsys {
namespace {

CacheParams small_dm{1024, 1, 64, 1};   // 16 sets, direct mapped
CacheParams small_2w{1024, 2, 64, 8};   // 8 sets, 2-way

TEST(Cache, MissThenHit) {
  Cache c(small_dm);
  EXPECT_FALSE(c.lookup(0));
  c.fill(0, false);
  EXPECT_TRUE(c.lookup(0));
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, RejectsGeometryItCannotIndex) {
  // CacheParams::validate's cases are in test_parameters.
  EXPECT_THROW(Cache(CacheParams{1024, 1, 48, 1}), std::invalid_argument);
}

TEST(Cache, DirectMappedConflict) {
  Cache c(small_dm);
  c.fill(0, false);
  // 16 sets x 64B lines: address 1024 maps to the same set as 0.
  auto victim = c.fill(1024, false);
  EXPECT_TRUE(victim.evicted);
  EXPECT_EQ(victim.line_addr, 0u);
  EXPECT_FALSE(c.contains(0));
  EXPECT_TRUE(c.contains(1024));
}

TEST(Cache, TwoWayHoldsConflictPair) {
  Cache c(small_2w);
  c.fill(0, false);
  auto victim = c.fill(512, false);  // 8 sets: same set as 0
  EXPECT_FALSE(victim.evicted);
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(512));
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c(small_2w);
  c.fill(0, false);
  c.fill(512, false);
  EXPECT_TRUE(c.lookup(0));  // touch 0: now 512 is LRU
  auto victim = c.fill(1024, false);
  EXPECT_TRUE(victim.evicted);
  EXPECT_EQ(victim.line_addr, 512u);
  EXPECT_TRUE(c.contains(0));
}

TEST(Cache, DirtyEvictionReported) {
  Cache c(small_dm);
  c.fill(0, /*dirty=*/true);
  auto victim = c.fill(1024, false);
  EXPECT_TRUE(victim.evicted);
  EXPECT_TRUE(victim.dirty);
}

TEST(Cache, LookupCanMarkDirty) {
  Cache c(small_dm);
  c.fill(0, false);
  c.lookup(0, /*mark_dirty=*/true);
  auto victim = c.fill(1024, false);
  EXPECT_TRUE(victim.dirty);
}

TEST(Cache, InvalidateRangeDropsOnlyCoveredLines) {
  Cache c(small_2w);
  c.fill(0, true);
  c.fill(64, false);
  c.fill(256, false);
  c.invalidate_range(0, 128);
  EXPECT_FALSE(c.contains(0));
  EXPECT_FALSE(c.contains(64));
  EXPECT_TRUE(c.contains(256));
}

TEST(Cache, InvalidatedDirtyLineDoesNotWriteBack) {
  Cache c(small_dm);
  c.fill(0, true);
  c.invalidate_range(0, 64);
  auto victim = c.fill(1024, false);
  EXPECT_FALSE(victim.evicted);
}

// Property-style sweep: for any config, filling N distinct lines that map to
// distinct sets keeps all of them resident.
class CacheConfigTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CacheConfigTest, DistinctSetsDoNotConflict) {
  auto [size_kb, assoc, line] = GetParam();
  CacheParams p{static_cast<std::uint32_t>(size_kb * 1024),
                static_cast<std::uint32_t>(assoc),
                static_cast<std::uint32_t>(line), 1};
  Cache c(p);
  const std::uint32_t sets = c.sets();
  for (std::uint32_t s = 0; s < sets; ++s) {
    c.fill(static_cast<std::uint64_t>(s) * line, false);
  }
  for (std::uint32_t s = 0; s < sets; ++s) {
    EXPECT_TRUE(c.contains(static_cast<std::uint64_t>(s) * line));
  }
}

TEST_P(CacheConfigTest, AssociativityWaysFitInOneSet) {
  auto [size_kb, assoc, line] = GetParam();
  CacheParams p{static_cast<std::uint32_t>(size_kb * 1024),
                static_cast<std::uint32_t>(assoc),
                static_cast<std::uint32_t>(line), 1};
  Cache c(p);
  const std::uint64_t set_stride =
      static_cast<std::uint64_t>(c.sets()) * line;
  for (int w = 0; w < assoc; ++w) {
    c.fill(static_cast<std::uint64_t>(w) * set_stride, false);
  }
  for (int w = 0; w < assoc; ++w) {
    EXPECT_TRUE(c.contains(static_cast<std::uint64_t>(w) * set_stride));
  }
  // One more way evicts exactly one line.
  auto victim = c.fill(static_cast<std::uint64_t>(assoc) * set_stride, false);
  EXPECT_TRUE(victim.evicted);
}

TEST(Cache, InvalidateRangeKeepsLineStartingBeforeRange) {
  Cache c(small_2w);
  c.fill(0, false);
  c.fill(64, false);
  // [40, 48) lies inside line 0 but does not contain its first byte.
  c.invalidate_range(40, 8);
  EXPECT_TRUE(c.contains(0));
  c.invalidate_range(40, 64);  // covers the first byte of line 64 only
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(64));
}

TEST(Cache, InvalidateRangeToTheEndOfTheAddressSpace) {
  Cache c(small_2w);
  const std::uint64_t high = (std::uint64_t{1} << 24) + 128;
  const std::uint64_t lines[] = {0, 64, 576, high};  // sets 0, 1, 1, 2
  for (const std::uint64_t a : lines) c.fill(a, true);
  // start + len wraps: the range runs to the end of the address space.
  c.invalidate_range(64, ~std::uint64_t{0});
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(64));
  EXPECT_FALSE(c.contains(576));
  EXPECT_FALSE(c.contains(high));
  c.invalidate_range(0, ~std::uint64_t{0});
  for (const std::uint64_t a : lines) EXPECT_FALSE(c.contains(a)) << a;
  const Cache::Victim v = c.fill(1024, false);  // 0's set, now empty
  EXPECT_FALSE(v.evicted);
}

/// Reference model: the tag store Cache replaced, one {addr, lru, valid,
/// dirty} record per way and a global LRU tick, probed with divides.
class TickLruCache {
 public:
  explicit TickLruCache(const CacheParams& p)
      : p_(p),
        sets_(p.size_bytes / (p.line_bytes * p.associativity)),
        lines_(static_cast<std::size_t>(sets_) * p.associativity) {}

  bool lookup(std::uint64_t addr, bool mark_dirty) {
    if (Line* l = find(addr)) {
      l->lru = ++tick_;
      if (mark_dirty) l->dirty = true;
      ++hits;
      return true;
    }
    ++misses;
    return false;
  }
  bool contains(std::uint64_t addr) { return find(addr) != nullptr; }
  Cache::Victim fill(std::uint64_t addr, bool dirty) {
    Line* base = set(addr);
    Line* victim = &base[0];
    for (std::uint32_t w = 0; w < p_.associativity; ++w) {
      if (!base[w].valid) {
        victim = &base[w];
        break;
      }
      if (base[w].lru < victim->lru) victim = &base[w];
    }
    Cache::Victim out;
    if (victim->valid) out = {true, victim->dirty, victim->addr};
    *victim = Line{addr, ++tick_, true, dirty};
    return out;
  }
  void invalidate_range(std::uint64_t start, std::uint64_t len) {
    for (Line& l : lines_) {
      if (l.valid && l.addr >= start && l.addr - start < len) l = Line{};
    }
  }

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

 private:
  struct Line {
    std::uint64_t addr = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };
  Line* set(std::uint64_t addr) {
    return &lines_[(addr / p_.line_bytes) % sets_ * p_.associativity];
  }
  Line* find(std::uint64_t addr) {
    Line* base = set(addr);
    for (std::uint32_t w = 0; w < p_.associativity; ++w) {
      if (base[w].valid && base[w].addr == addr) return &base[w];
    }
    return nullptr;
  }

  CacheParams p_;
  std::uint32_t sets_;
  std::vector<Line> lines_;
  std::uint64_t tick_ = 0;
};

/// One differential run: the associativity of a 32-line cache, and the
/// lines its streams touch, [base, base + lines * 64).
struct Universe {
  std::uint32_t ways;
  std::uint64_t base;
  std::uint64_t lines;
};

void PrintTo(const Universe& u, std::ostream* os) {
  *os << u.ways << "-way, " << u.lines << " lines at " << u.base;
}

class CacheDifferential : public ::testing::TestWithParam<Universe> {};

/// Seeded random lookup/fill/contains/invalidate_range streams: the
/// recency-ordered tag store must agree with the tick-LRU model on every
/// hit, miss and victim, and on which lines of the universe are resident
/// after each stream. fill() is only called for non-resident lines, its
/// contract (ProcMemory fills only after a miss).
TEST_P(CacheDifferential, MatchesTickLruModel) {
  const auto [ways, base, lines] = GetParam();
  const CacheParams p{2048, ways, 64, 1};  // 32 lines
  constexpr std::uint64_t kPage = 4096;
  const std::uint64_t span = lines * 64;
  ASSERT_EQ(span % kPage, 0u);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Cache c(p);
    TickLruCache model(p);
    std::mt19937_64 rng(seed * 1000 + ways);
    // 4x or more lines than the cache holds: plenty of conflicts.
    auto line_addr = [&] { return base + rng() % lines * 64; };
    auto resident = [&](auto& cache) {
      std::vector<bool> out;
      for (std::uint64_t l = 0; l < lines; ++l) {
        out.push_back(cache.contains(base + l * 64));
      }
      return out;
    };
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t a = line_addr();
      switch (rng() % 8) {
        case 0:
        case 1:
        case 2: {
          const bool dirty = rng() % 4 == 0;
          ASSERT_EQ(c.lookup(a, dirty), model.lookup(a, dirty)) << op;
          break;
        }
        case 3:
        case 4:
        case 5: {
          if (model.contains(a)) break;
          const bool dirty = rng() % 2 == 0;
          const Cache::Victim got = c.fill(a, dirty);
          const Cache::Victim want = model.fill(a, dirty);
          ASSERT_EQ(got.evicted, want.evicted) << op;
          ASSERT_EQ(got.dirty, want.dirty) << op;
          ASSERT_EQ(got.line_addr, want.line_addr) << op;
          break;
        }
        case 6:
          ASSERT_EQ(c.contains(a), model.contains(a)) << op;
          break;
        default: {
          // Unaligned short ranges, SVM pages, multi-page ranges, ranges
          // that run past the universe (the highest line ever filled) and
          // rare whole-space ranges.
          std::uint64_t start = a + rng() % 64;
          std::uint64_t len = rng() % 256;
          bool never_filled = false;
          switch (rng() % 8) {
            case 0:
              start = base + rng() % (span / kPage) * kPage;
              len = kPage;
              break;
            case 1:
              len = 4 * kPage;
              break;
            case 2:
              start = base + span + rng() % kPage;
              len = rng() % (4 * kPage);
              never_filled = true;
              break;
            case 3:
              len = rng() % (span + 2 * kPage);
              break;
            case 4:
              if (rng() % 64 == 0) len = ~std::uint64_t{0};
              break;
            default:
              break;
          }
          const std::uint64_t hits = c.hits();
          const std::uint64_t misses = c.misses();
          const std::vector<bool> before =
              never_filled ? resident(c) : std::vector<bool>{};
          c.invalidate_range(start, len);
          model.invalidate_range(start, len);
          ASSERT_EQ(c.hits(), hits) << op;
          ASSERT_EQ(c.misses(), misses) << op;
          if (never_filled) {
            ASSERT_EQ(resident(c), before) << op;
          }
          break;
        }
      }
    }
    EXPECT_EQ(resident(c), resident(model));
    EXPECT_EQ(c.hits(), model.hits);
    EXPECT_EQ(c.misses(), model.misses);
  }
}

// 128 lines at address 0 span two words of the resident-line index; 512
// lines at 4 GiB span eight, far from word 0, under set-relative tags well
// above the set index. (The index is a bitmap from line 0, so a higher base
// costs the test base / 512 bytes per cache.)
INSTANTIATE_TEST_SUITE_P(
    Ways, CacheDifferential,
    ::testing::Values(Universe{1, 0, 128}, Universe{2, 0, 128},
                      Universe{4, 0, 128}, Universe{8, 0, 128},
                      Universe{1, std::uint64_t{1} << 32, 512},
                      Universe{2, std::uint64_t{1} << 32, 512},
                      Universe{4, std::uint64_t{1} << 32, 512},
                      Universe{8, std::uint64_t{1} << 32, 512}));

INSTANTIATE_TEST_SUITE_P(
    Configs, CacheConfigTest,
    ::testing::Values(std::make_tuple(1, 1, 32), std::make_tuple(1, 2, 32),
                      std::make_tuple(4, 2, 64), std::make_tuple(16, 1, 64),
                      std::make_tuple(16, 4, 64), std::make_tuple(512, 2, 64),
                      std::make_tuple(64, 8, 128)));

}  // namespace
}  // namespace svmsim::memsys
