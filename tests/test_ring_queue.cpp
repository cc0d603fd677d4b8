// RingQueue unit tests: wrap-around, growth boundaries and move-only
// payloads.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/ring_queue.hpp"

namespace svmsim::engine {
namespace {

TEST(RingQueue, StartsEmpty) {
  RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 0u);
}

TEST(RingQueue, PushPopFifoOrder) {
  RingQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, WrapAroundKeepsOrder) {
  RingQueue<int> q;
  q.reserve(8);
  const std::size_t cap = q.capacity();
  ASSERT_EQ(cap, 8u);

  // Walk the head index all the way around the buffer several times while
  // the queue stays partially full: every pop must still see FIFO order.
  int next_in = 0;
  int next_out = 0;
  for (int i = 0; i < 5; ++i) q.push_back(next_in++);
  for (int round = 0; round < 64; ++round) {
    q.push_back(next_in++);
    q.push_back(next_in++);
    EXPECT_EQ(q.front(), next_out);
    q.pop_front();
    ++next_out;
    EXPECT_EQ(q.front(), next_out);
    q.pop_front();
    ++next_out;
  }
  // Never grew: the whole walk fit in the reserved capacity.
  EXPECT_EQ(q.capacity(), cap);
  while (!q.empty()) {
    EXPECT_EQ(q.front(), next_out++);
    q.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(RingQueue, GrowthAtFullBoundaryPreservesOrder) {
  RingQueue<int> q;
  // Misalign head first so growth has to unwrap a wrapped queue.
  for (int i = 0; i < 6; ++i) q.push_back(i);
  for (int i = 0; i < 6; ++i) q.pop_front();
  int next_in = 0;
  // Fill to exactly capacity, then push one more to force a grow.
  while (q.size() < q.capacity()) q.push_back(next_in++);
  const std::size_t old_cap = q.capacity();
  q.push_back(next_in++);
  EXPECT_GT(q.capacity(), old_cap);
  for (int i = 0; i < next_in; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, EmptyFullBoundaries) {
  RingQueue<int> q;
  q.push_back(1);
  q.pop_front();
  EXPECT_TRUE(q.empty());
  // Drain-to-empty then refill repeatedly across the boundary.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < round; ++i) q.push_back(i);
    EXPECT_EQ(q.size(), static_cast<std::size_t>(round));
    for (int i = 0; i < round; ++i) {
      EXPECT_EQ(q.front(), i);
      q.pop_front();
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(RingQueue, ReserveRoundsUpAndKeepsElements) {
  RingQueue<int> q;
  q.push_back(7);
  q.push_back(8);
  q.reserve(100);
  EXPECT_GE(q.capacity(), 100u);
  // Power-of-two capacity.
  EXPECT_EQ(q.capacity() & (q.capacity() - 1), 0u);
  EXPECT_EQ(q.front(), 7);
  q.pop_front();
  EXPECT_EQ(q.front(), 8);
  q.pop_front();
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, MoveOnlyPayload) {
  RingQueue<std::unique_ptr<int>> q;
  for (int i = 0; i < 40; ++i) q.push_back(std::make_unique<int>(i));
  // pop_front must release the slot's resource immediately.
  ASSERT_NE(q.front(), nullptr);
  for (int i = 0; i < 40; ++i) {
    ASSERT_NE(q.front(), nullptr);
    EXPECT_EQ(*q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, PopReleasesSlotResources) {
  auto counter = std::make_shared<int>(0);
  RingQueue<std::shared_ptr<int>> q;
  q.push_back(counter);
  EXPECT_EQ(counter.use_count(), 2);
  q.pop_front();
  // The slot must not keep the payload alive until overwrite/destruction.
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(RingQueue, ClearResetsToEmpty) {
  RingQueue<std::unique_ptr<int>> q;
  for (int i = 0; i < 10; ++i) q.push_back(std::make_unique<int>(i));
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push_back(std::make_unique<int>(42));
  EXPECT_EQ(*q.front(), 42);
}

}  // namespace
}  // namespace svmsim::engine
