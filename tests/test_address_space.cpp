#include "svm/address_space.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "core/machine.hpp"
#include "memsys/cache.hpp"

namespace svmsim::svm {
namespace {

TEST(AddressSpace, AllocRoundsUpToPages) {
  AddressSpace as(4, 4096);
  const GlobalAddr a = as.alloc(100, Distribution::block());
  const GlobalAddr b = as.alloc(5000, Distribution::block());
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 4096u);
  EXPECT_EQ(as.page_count(), 3u);
}

TEST(AddressSpace, BlockDistributionSplitsEvenly) {
  AddressSpace as(4, 1024);
  as.alloc(8 * 1024, Distribution::block());
  EXPECT_EQ(as.home_of(0), 0);
  EXPECT_EQ(as.home_of(1), 0);
  EXPECT_EQ(as.home_of(2), 1);
  EXPECT_EQ(as.home_of(3), 1);
  EXPECT_EQ(as.home_of(6), 3);
  EXPECT_EQ(as.home_of(7), 3);
}

TEST(AddressSpace, CyclicDistributionInterleaves) {
  AddressSpace as(4, 1024);
  as.alloc(8 * 1024, Distribution::cyclic());
  for (PageId p = 0; p < 8; ++p) {
    EXPECT_EQ(as.home_of(p), static_cast<NodeId>(p % 4));
  }
}

TEST(AddressSpace, FixedDistribution) {
  AddressSpace as(4, 1024);
  as.alloc(4 * 1024, Distribution::fixed(2));
  for (PageId p = 0; p < 4; ++p) EXPECT_EQ(as.home_of(p), 2);
}

TEST(AddressSpace, FirstTouchAssignsOnDemand) {
  AddressSpace as(4, 1024);
  as.alloc(2 * 1024, Distribution::first_touch());
  EXPECT_EQ(as.home_of(0), -1);
  EXPECT_EQ(as.assign_home(0, 3), 3);
  EXPECT_EQ(as.home_of(0), 3);
  // Second toucher does not steal the home.
  EXPECT_EQ(as.assign_home(0, 1), 3);
}

TEST(AddressSpace, SetHomeRangeOverrides) {
  AddressSpace as(4, 1024);
  const GlobalAddr a = as.alloc(4 * 1024, Distribution::block());
  as.set_home_range(a + 1024, 2048, 3);
  EXPECT_EQ(as.home_of(1), 3);
  EXPECT_EQ(as.home_of(2), 3);
  EXPECT_NE(as.home_of(0), 3);
}

TEST(AddressSpace, DebugReadWriteRoundTripAcrossPages) {
  AddressSpace as(2, 1024);
  const GlobalAddr a = as.alloc(4096, Distribution::block());
  std::vector<std::uint8_t> data(3000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  as.debug_write(a + 500, data.data(), data.size());
  std::vector<std::uint8_t> out(3000);
  as.debug_read(a + 500, out.data(), out.size());
  EXPECT_EQ(std::memcmp(data.data(), out.data(), data.size()), 0);
}

TEST(AddressSpace, CopiesAreLazyAndPerNode) {
  AddressSpace as(2, 1024);
  as.alloc(1024, Distribution::fixed(0));
  EXPECT_FALSE(as.has_copy(1, 0));
  PageCopy& c = as.copy(1, 0);
  EXPECT_TRUE(as.has_copy(1, 0));
  EXPECT_EQ(c.state, PageState::kUnmapped);
  EXPECT_EQ(c.data.size(), 1024u);
  // The home copy is a distinct object.
  as.home_data(0)[0] = std::byte{42};
  EXPECT_NE(c.data[0], std::byte{42});
}

TEST(AddressSpace, HomeDataCreatesReadOnlyHomeCopy) {
  AddressSpace as(2, 1024);
  as.alloc(1024, Distribution::fixed(1));
  (void)as.home_data(0);
  EXPECT_TRUE(as.has_copy(1, 0));
  EXPECT_EQ(as.copy(1, 0).state, PageState::kReadOnly);
}

TEST(AddressSpace, PageAndOffsetMath) {
  AddressSpace as(2, 4096);
  EXPECT_EQ(as.page_of(0), 0u);
  EXPECT_EQ(as.page_of(4095), 0u);
  EXPECT_EQ(as.page_of(4096), 1u);
  EXPECT_EQ(as.offset_of(4097), 1u);
}

TEST(AddressSpace, AllocPastTheCapThrows) {
  AddressSpace as(2, 1024, 4 * 1024);
  EXPECT_EQ(as.alloc(3 * 1024, Distribution::block()), 0u);
  // 1025 bytes round up to two pages: one past the cap.
  EXPECT_THROW(as.alloc(1025, Distribution::block()), std::length_error);
  // A failed alloc reserves nothing; an allocation may end at the cap.
  EXPECT_EQ(as.alloc(1024, Distribution::block()), 3 * 1024u);
  EXPECT_THROW(as.alloc(1, Distribution::block()), std::length_error);
  // A size whose page round-up would wrap throws too.
  EXPECT_THROW(as.alloc(~std::uint64_t{0}, Distribution::block()),
               std::length_error);
  EXPECT_EQ(as.page_count(), 4u);
}

TEST(AddressSpace, MachineCapsItsSpaceAtTheCacheTagReach) {
  const SimConfig cfg;
  Machine m(cfg);
  const std::uint64_t l1 = memsys::Cache::tag_reach(cfg.arch.l1);
  const std::uint64_t l2 = memsys::Cache::tag_reach(cfg.arch.l2);
  EXPECT_EQ(m.space().max_bytes(), std::min(l1, l2));
  // The default L1 (256 sets of 64-byte lines) names the fewest bytes:
  // 2^31 - 1 tags per set, just under 32 TiB.
  EXPECT_EQ(l1, ((std::uint64_t{1} << 31) - 1) << 14);
  EXPECT_LT(l1, l2);
}

}  // namespace
}  // namespace svmsim::svm
