#include "engine/event_queue.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/ring_queue.hpp"

namespace svmsim::engine {
namespace {

TEST(EventQueue, StartsAtTimeZeroAndEmpty) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SimultaneousEventsFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  q.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelativeToNow) {
  EventQueue q;
  Cycles fired_at = 0;
  q.schedule_at(100, [&] {
    q.schedule_in(50, [&] { fired_at = q.now(); });
  });
  q.run_until_idle();
  EXPECT_EQ(fired_at, 150u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.schedule_in(10, chain);
  };
  q.schedule_in(10, chain);
  q.run_until_idle();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(100, [&] { ++fired; });
  EXPECT_FALSE(q.run_until(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(q.run_until(200));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilInclusiveOfDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(50, [&] { ++fired; });
  EXPECT_TRUE(q.run_until(50));
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CountsFiredEvents) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.schedule_at(static_cast<Cycles>(i), [] {});
  q.run_until_idle();
  EXPECT_EQ(q.events_fired(), 7u);
}

TEST(EventQueue, ZeroDelayEventRunsAfterCurrentEvent) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] {
    order.push_back(1);
    q.schedule_in(0, [&] { order.push_back(2); });
    order.push_back(3);
  });
  q.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(EventQueue, ScheduleNowMatchesScheduleInZero) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] {
    q.schedule_in(0, [&] { order.push_back(1); });
    q.schedule_now([&] { order.push_back(2); });
    q.schedule_at(10, [&] { order.push_back(3); });
  });
  q.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 10u);
}

// Regression: while step() is mid-fire at tick T, a mix of already-queued
// time-T events and same-tick inserts made *during* the in-flight event must
// still fire in global insertion order — the same-tick fast lane may not
// jump ahead of previously queued work, and pre-queued events may not
// starve the new inserts.
TEST(EventQueue, SameTickInsertionOrderDuringInFlightStep) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(7, [&] {
    order.push_back(0);
    q.schedule_in(0, [&] { order.push_back(3); });
    q.schedule_at(7, [&] {
      order.push_back(4);
      q.schedule_now([&] { order.push_back(6); });
    });
  });
  q.schedule_at(7, [&] { order.push_back(1); });
  q.schedule_at(7, [&] {
    order.push_back(2);
    q.schedule_now([&] { order.push_back(5); });
  });
  q.schedule_at(9, [&] { order.push_back(7); });
  while (q.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(q.events_fired(), 8u);
}

// ------------------------------------------------------- next_send_bound
// The adaptive-window query (docs/engine.md §5): a conservative lower bound
// on the earliest time an event fired from this queue could launch a
// cross-partition send.

TEST(WireBatch, NextSendBound) {
  {
    // Empty queue: provably nothing can send, whatever the floor.
    EventQueue q;
    EXPECT_EQ(q.next_send_bound(0), kNever);
    EXPECT_EQ(q.next_send_bound(1084), kNever);
  }
  {
    // Head-of-queue + floor for (time, seq) events.
    EventQueue q;
    q.schedule_at(500, [] {});
    q.schedule_at(900, [] {});
    EXPECT_EQ(q.next_send_bound(0), 500u);
    EXPECT_EQ(q.next_send_bound(84), 584u);
  }
  {
    // A queue whose only occupancy is the wire band must still count: a
    // drained cross-partition delivery is an event that can trigger a send.
    EventQueue q;
    q.schedule_wire(300, 7, [] {});
    EXPECT_EQ(q.next_send_bound(0), 300u);
    EXPECT_EQ(q.next_send_bound(50), 350u);
  }
  {
    // The bound saturates at kNever instead of wrapping.
    EventQueue q;
    q.schedule_at(kNever - 10, [] {});
    EXPECT_EQ(q.next_send_bound(0), kNever - 10);
    EXPECT_EQ(q.next_send_bound(100), kNever);
  }
}

// ---------------------------------------------------- schedule_wire_batch
// The PDES drain path: a whole TimedChannel batch splices into the wire
// band in one call and the final firing order is still (when, key) merged
// with whatever the band already held — batching changes the transport,
// never the delivery order.

TEST(WireBatch, SplicesBatchByWhenAndKey) {
  EventQueue q;
  std::vector<std::string> order;
  auto tag = [&order](const char* s) {
    return [&order, s] { order.push_back(s); };
  };

  // Pre-existing band and seq events the batch must interleave with.
  q.schedule_wire(10, 22, tag("wire-22"));
  q.schedule_wire(12, 1, tag("late-1"));
  q.schedule_at(10, tag("seq"));

  TimedChannel<EventQueue::Action> ch;
  ch.push(10, 28, tag("wire-28"));
  ch.push(7, 99, tag("early-99"));
  ch.push(10, 15, tag("wire-15"));
  ch.seal();
  ch.drain([&q](TimedChannel<EventQueue::Action>::Batch& b) {
    q.schedule_wire_batch(b);
  });

  q.run_until_idle();
  EXPECT_EQ(order,
            (std::vector<std::string>{"early-99", "wire-15", "wire-22",
                                      "wire-28", "seq", "late-1"}));
  EXPECT_EQ(q.events_fired(), 6u);
}

TEST(WireBatch, EmptyBatchIsANoOp) {
  EventQueue q;
  std::vector<TimedChannel<EventQueue::Action>::Entry> batch;
  q.schedule_wire_batch(batch);
  EXPECT_TRUE(q.empty());
}

#ifndef NDEBUG
TEST(EventQueueDeathTest, SchedulingInThePastAsserts) {
  EXPECT_DEATH(
      {
        EventQueue q;
        q.schedule_at(10, [&] { q.schedule_at(5, [] {}); });
        q.run_until_idle();
      },
      "cannot schedule an event in the past");
}
#endif

}  // namespace
}  // namespace svmsim::engine
