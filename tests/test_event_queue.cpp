#include "engine/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

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

// --------------------------------------------------------------- wire band
// The wire band contract (docs/engine.md): at equal time, wire events fire
// before every (time, seq) event, and order among themselves by key — not by
// insertion order — so same-cycle deliveries fire in an order that depends
// only on packet content.

TEST(WireBand, FiresWireBeforeSeqAndByKey) {
  EventQueue q;
  std::vector<std::string> order;

  q.schedule_at(10, [&order] { order.push_back("seq-a"); });
  // Wire events inserted in descending key order: must fire ascending.
  q.schedule_wire(10, 30, [&order] { order.push_back("wire-30"); });
  q.schedule_wire(10, 20, [&order] { order.push_back("wire-20"); });
  q.schedule_wire(10, 25, [&order] { order.push_back("wire-25"); });
  q.schedule_at(10, [&order] { order.push_back("seq-b"); });
  q.schedule_wire(5, 99, [&order] { order.push_back("wire-early"); });

  q.run_until_idle();
  EXPECT_EQ(order,
            (std::vector<std::string>{"wire-early", "wire-20", "wire-25",
                                      "wire-30", "seq-a", "seq-b"}));
  EXPECT_EQ(q.events_fired(), 6u);
  EXPECT_EQ(q.now(), 10u);
}

TEST(WireBand, DeadlineBeforeWireEventLeavesItPending) {
  EventQueue q;
  int fired = 0;
  q.schedule_wire(7, 1, [&fired] { ++fired; });
  EXPECT_EQ(q.pending(), 1u);
  // A deadline before the wire event leaves it pending.
  EXPECT_FALSE(q.run_until(6));
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(q.run_until(7));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

TEST(WireBand, ClearDropsWireEvents) {
  EventQueue q;
  q.schedule_wire(5, 1, [] { FAIL() << "cleared event fired"; });
  q.schedule_at(5, [] { FAIL() << "cleared event fired"; });
  q.clear();
  EXPECT_TRUE(q.empty());
  q.run_until_idle();
}

// Seeded differential against a reference sort: wire and (time, seq)
// events, some scheduled from inside fired actions, must fire in (when,
// band, key-or-seq) order, where the wire band (0) precedes the (time, seq)
// band (1) at equal time. Every child lands after its parent in that order
// (wire children strictly later, seq children at >= now with a larger seq),
// so the sorted list of everything scheduled is the one correct fire order.
TEST(WireBand, RandomMixFiresInReferenceOrder) {
  using Entry = std::tuple<Cycles, int, std::uint64_t>;  // when, band, order
  EventQueue q;
  std::mt19937_64 rng(20261018);
  std::vector<Entry> scheduled;
  std::vector<Entry> fired;
  std::uint64_t next_seq = 0;
  std::uint64_t next_wire = 0;
  int budget = 400;

  std::function<void()> add;  // schedule one random event
  add = [&] {
    --budget;
    // Delays span the lane, every wheel level and the overflow heap.
    static constexpr Cycles kSpans[] = {1, 8, 300, 70000, 20000000};
    const Cycles span = kSpans[rng() % std::size(kSpans)];
    const bool spawn = rng() % 3 == 0;
    if (rng() % 2 == 0) {
      const Cycles when = q.now() + 1 + rng() % span;
      // Distinct keys in scrambled insertion order.
      const std::uint64_t key = (rng() % 1024) << 20 | next_wire++;
      scheduled.emplace_back(when, 0, key);
      q.schedule_wire(when, key, [&, e = scheduled.back(), spawn] {
        fired.push_back(e);
        if (spawn && budget > 0) add();
      });
    } else {
      const Cycles when = q.now() + rng() % span;  // may be now()
      scheduled.emplace_back(when, 1, next_seq++);
      q.schedule_at(when, [&, e = scheduled.back(), spawn] {
        fired.push_back(e);
        if (spawn && budget > 0) add();
      });
    }
  };
  while (budget > 150) add();
  q.run_until_idle();

  ASSERT_GT(scheduled.size(), 250u);
  std::sort(scheduled.begin(), scheduled.end());
  EXPECT_EQ(fired, scheduled);
  EXPECT_EQ(q.events_fired(), scheduled.size());
}

// A wire action's capture is destroyed exactly once: after it runs, or
// when clear() (or the queue's destructor) drops it unrun. Covers inline
// and heap-stored captures.
TEST(WireBand, ActionCaptureIsDestroyedExactlyOnce) {
  struct Counted {
    int* destroyed;
    bool live = true;
    explicit Counted(int* d) : destroyed(d) {}
    Counted(Counted&& o) noexcept
        : destroyed(o.destroyed), live(std::exchange(o.live, false)) {}
    ~Counted() {
      if (live) ++*destroyed;
    }
  };
  struct Big {
    char pad[64] = {};
  };
  int destroyed = 0;
  int ran = 0;
  {
    EventQueue q;
    for (Cycles t = 1; t <= 6; ++t) {
      q.schedule_wire(t, t, [c = Counted(&destroyed), &ran] { ++ran; });
      q.schedule_wire(t, 100 + t,
                      [c = Counted(&destroyed), b = Big{}, &ran] {
                        (void)b;
                        ++ran;
                      });
    }
    EXPECT_FALSE(q.run_until(2));
    EXPECT_EQ(ran, 4);
    EXPECT_EQ(destroyed, 4);  // fired captures die at release, not later
    q.clear();
    EXPECT_EQ(destroyed, 12);
    EXPECT_TRUE(q.empty());
    q.schedule_wire(9, 1, [c = Counted(&destroyed), &ran] { ++ran; });
  }  // the destructor drops the last one
  EXPECT_EQ(ran, 4);
  EXPECT_EQ(destroyed, 13);
}

// A scripted WireArbiter over three channels. Channel c's keys are
// c << 32 | n (net/wire_key.hpp). Default order: C0@9, A0@10, B0@10, C1@10,
// A1@11; the heads offered are C0, A0, B0, and the script picks B0 (2). The
// displaced C0 and A0 follow it in their original order, C1 is pulled
// behind C0 (per-channel FIFO at the chosen instant), and the (time, seq)
// event at 10 still fires after the whole band at 10.
TEST(WireBand, ScriptedArbiterPicksThirdChannel) {
  constexpr std::uint64_t kA = 1ull << 32, kB = 2ull << 32, kC = 3ull << 32;
  struct Script : WireArbiter {
    std::vector<std::vector<std::uint64_t>> offered;
    std::vector<std::uint64_t> observed;
    std::size_t choose_wire(const WireChoice* alts, std::size_t n) override {
      std::vector<std::uint64_t> keys;
      for (std::size_t i = 0; i < n; ++i) keys.push_back(alts[i].key);
      offered.push_back(keys);
      return offered.size() == 1 ? 2 : 0;
    }
    void on_wire_fire(std::uint64_t key) override { observed.push_back(key); }
  } arb;
  EventQueue q;
  q.set_wire_arbiter(&arb);
  std::vector<std::string> order;
  auto wire = [&](Cycles when, std::uint64_t key, const char* name) {
    q.schedule_wire(when, key, [&order, name] { order.push_back(name); });
  };
  wire(10, kC | 1, "C1");
  wire(11, kA | 1, "A1");
  wire(10, kB | 0, "B0");
  wire(9, kC | 0, "C0");
  wire(10, kA | 0, "A0");
  q.schedule_at(10, [&order] { order.push_back("seq@10"); });
  q.run_until_idle();

  EXPECT_EQ(order, (std::vector<std::string>{"B0", "C0", "A0", "C1",
                                             "seq@10", "A1"}));
  ASSERT_FALSE(arb.offered.empty());
  EXPECT_EQ(arb.offered[0], (std::vector<std::uint64_t>{kC | 0, kA | 0,
                                                        kB | 0}));
  EXPECT_EQ(arb.observed, (std::vector<std::uint64_t>{
                              kB | 0, kC | 0, kA | 0, kC | 1, kA | 1}));
  EXPECT_EQ(q.events_fired(), 6u);
  EXPECT_EQ(q.now(), 11u);
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
