// Differential tests of the scheduler against a reference model.
//
// ModelQueue below is the EventQueue contract at its plainest: a
// std::priority_queue over (time, seq) for ordinary events plus one over
// (time, defer, key) for the wire band, which fires first at equal time.
// detail::TieredScheduler is driven side by side with it on identical
// seeded-random schedule streams, and both must fire events in exactly the
// same order — the total order that makes simulations bit-reproducible.
// Alongside the random streams there are directed cases for the tiered
// scheduler's internals: wheel-slot wraparound, cascades at every level
// boundary, overflow past the wheel horizon, the run_until() pause/insert
// path, and clear() dropping events from every tier.
#include "engine/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <vector>

namespace svmsim::engine {
namespace {

using detail::TieredScheduler;

/// Reference model of the EventQueue ordering contract (no arbiter, so
/// every wire event keeps defer = 0).
class ModelQueue {
 public:
  using Action = std::function<void()>;

  [[nodiscard]] Cycles now() const { return now_; }
  [[nodiscard]] std::size_t pending() const {
    return normal_.size() + wire_.size();
  }
  [[nodiscard]] bool empty() const { return pending() == 0; }

  void schedule_at(Cycles when, Action a) {
    normal_.push({when, 0, next_seq_++, std::move(a)});
  }
  void schedule_in(Cycles delay, Action a) {
    schedule_at(now_ + delay, std::move(a));
  }
  void schedule_now(Action a) { schedule_at(now_, std::move(a)); }
  void schedule_wire(Cycles when, std::uint64_t key, Action a) {
    wire_.push({when, 0, key, std::move(a)});
  }

  bool run_until(Cycles deadline) {
    for (;;) {
      const bool wire =
          !wire_.empty() &&
          (normal_.empty() || wire_.top().when <= normal_.top().when);
      if (!wire && normal_.empty()) return true;
      auto& band = wire ? wire_ : normal_;
      if (band.top().when > deadline) return false;
      Entry e = band.top();
      band.pop();
      now_ = e.when;
      e.action();
    }
  }
  void run_until_idle() { run_until(kNever); }

 private:
  /// `order` is the seq for ordinary events and the key for wire events.
  struct Entry {
    Cycles when;
    std::uint32_t defer;
    std::uint64_t order;
    Action action;
  };
  struct FiresLater {
    bool operator()(const Entry& a, const Entry& b) const {
      return std::tie(a.when, a.defer, a.order) >
             std::tie(b.when, b.defer, b.order);
    }
  };
  using Band = std::priority_queue<Entry, std::vector<Entry>, FiresLater>;

  Band normal_;
  Band wire_;
  Cycles now_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// Deterministic LCG (MMIX constants), identical across queues.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() noexcept {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
  }
};

/// A delay spanning every tier: same-tick, all four wheel levels, and
/// beyond-horizon overflow into the fallback heap.
Cycles random_delay(Lcg& rng) {
  switch (rng.next() % 8) {
    case 0:
    case 1:
      return 0;
    case 2:
    case 3:
      return 1 + rng.next() % 255;
    case 4:
      return 256 + rng.next() % 65280;
    case 5:
      return (Cycles{1} << 16) + rng.next() % (Cycles{1} << 20);
    case 6:
      return (Cycles{1} << 24) + rng.next() % (Cycles{1} << 26);
    default:
      return (Cycles{1} << 32) + rng.next() % (Cycles{1} << 33);
  }
}

/// Run the seeded-random schedule program on one queue and return the fire
/// trace: (event id, fire time) in fire order. Every fired event may spawn
/// 0-2 successors, decided by an LCG stream shared across queues.
template <class Queue>
std::vector<std::pair<std::uint64_t, Cycles>> random_trace(
    std::uint64_t seed, std::size_t initial, std::size_t cap) {
  struct Driver {
    Queue q;
    Lcg rng;
    std::uint64_t next_id = 0;
    std::size_t cap;
    std::vector<std::pair<std::uint64_t, Cycles>> trace;

    void spawn() {
      const std::uint64_t id = next_id++;
      const Cycles d = random_delay(rng);
      const auto fire = [this, id] {
        trace.emplace_back(id, q.now());
        const std::uint64_t kids = rng.next() % 3;
        for (std::uint64_t k = 0; k < kids && next_id < cap; ++k) spawn();
      };
      // Exercise both entry points for zero delays.
      if (d == 0 && rng.next() % 2 == 0) {
        q.schedule_now(fire);
      } else {
        q.schedule_in(d, fire);
      }
    }
  };

  Driver drv;
  drv.rng.s = seed;
  drv.cap = cap;
  for (std::size_t i = 0; i < initial; ++i) drv.spawn();
  drv.q.run_until_idle();
  EXPECT_EQ(drv.q.pending(), 0u);
  return drv.trace;
}

TEST(SchedulerDifferential, RandomStreamsFireIdentically) {
  for (std::uint64_t seed : {0x1ull, 0x5eedull, 0xabcdef01ull}) {
    const auto model = random_trace<ModelQueue>(seed, 64, 4000);
    const auto tiered = random_trace<TieredScheduler>(seed, 64, 4000);
    ASSERT_EQ(model.size(), tiered.size()) << "seed " << seed;
    for (std::size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(model[i], tiered[i]) << "seed " << seed << " position " << i;
    }
  }
}

/// Same comparison across the run_until() pause/resume path: fire in
/// deadline-bounded bursts, scheduling a fresh batch at every pause. On the
/// tiered scheduler this drives the behind-the-cursor insert path (the wheel
/// may have swept ahead of now() when the deadline hit mid-tick).
template <class Queue>
std::vector<std::pair<std::uint64_t, Cycles>> bursty_trace(
    std::uint64_t seed) {
  Queue q;
  Lcg rng{seed};
  std::uint64_t next_id = 0;
  std::vector<std::pair<std::uint64_t, Cycles>> trace;

  const auto schedule_batch = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t id = next_id++;
      q.schedule_in(random_delay(rng) % 4096,
                    [&, id] { trace.emplace_back(id, q.now()); });
    }
  };
  schedule_batch(128);
  // The deadline ratchets forward unconditionally (run_until does not
  // advance now() when nothing fires), so the loop always terminates.
  Cycles deadline = 0;
  while (!q.empty()) {
    deadline += 1 + rng.next() % 512;
    if (!q.run_until(deadline) && next_id < 2000) schedule_batch(16);
  }
  return trace;
}

TEST(SchedulerDifferential, RunUntilBurstsFireIdentically) {
  const auto model = bursty_trace<ModelQueue>(0xfeedull);
  const auto tiered = bursty_trace<TieredScheduler>(0xfeedull);
  ASSERT_EQ(model.size(), tiered.size());
  for (std::size_t i = 0; i < model.size(); ++i) {
    ASSERT_EQ(model[i], tiered[i]) << "position " << i;
  }
}

/// Wire-band stream: every fired event schedules ordinary successors and
/// wire deliveries landing on the same few ticks, so equal-time collisions
/// between the bands (wire first) and within the band (by key, not by
/// insertion order) are the common case. Keys are unique, as packet keys
/// are, so the order is total.
template <class Queue>
std::vector<std::pair<std::uint64_t, Cycles>> wire_trace(std::uint64_t seed) {
  Queue q;
  Lcg rng{seed};
  std::uint64_t next_id = 0;
  std::vector<std::pair<std::uint64_t, Cycles>> trace;
  std::function<void()> spawn = [&] {
    const std::uint64_t id = next_id++;
    auto fire = [&, id] {
      trace.emplace_back(id, q.now());
      const std::uint64_t kids = rng.next() % 3;
      for (std::uint64_t k = 0; k < kids && next_id < 3000; ++k) spawn();
    };
    const Cycles delay = 1 + rng.next() % 4;
    if (rng.next() % 2 == 0) {
      const std::uint64_t key = ((rng.next() % 8) << 32) | id;
      q.schedule_wire(q.now() + delay, key, fire);
    } else {
      q.schedule_in(delay - rng.next() % 2, fire);
    }
  };
  for (int i = 0; i < 32; ++i) spawn();
  q.run_until_idle();
  EXPECT_TRUE(q.empty());
  return trace;
}

TEST(SchedulerDifferential, WireBandOrderMatchesModel) {
  for (std::uint64_t seed : {0x2ull, 0x3a11ull}) {
    const auto model = wire_trace<ModelQueue>(seed);
    const auto tiered = wire_trace<TieredScheduler>(seed);
    ASSERT_EQ(model.size(), tiered.size()) << "seed " << seed;
    for (std::size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(model[i], tiered[i]) << "seed " << seed << " position " << i;
    }
  }
}

TEST(TieredScheduler, WheelSlotWraparound) {
  // Times straddling several 256-cycle level-0 windows, inserted in a
  // scrambled order, must come out ascending: the level-0 cursor wraps its
  // 256 slots twice and each wrap cascades the next level-1 slot.
  TieredScheduler q;
  std::vector<Cycles> times;
  for (Cycles t = 1; t <= 600; t += 7) times.push_back(t);
  std::vector<Cycles> scrambled = times;
  std::reverse(scrambled.begin() + 3, scrambled.end());
  std::vector<Cycles> fired;
  for (Cycles t : scrambled) {
    q.schedule_at(t, [&fired, &q] { fired.push_back(q.now()); });
  }
  q.run_until_idle();
  EXPECT_EQ(fired, times);
}

TEST(TieredScheduler, CascadeAtLevelBoundaries) {
  // One event on each side of every level boundary (256, 65536, 2^24) plus
  // the wheel horizon (2^32, where events overflow to the fallback heap),
  // and a same-time pair at each boundary to pin down seq order across the
  // cascade. Everything must fire in ascending time, pairs in insertion
  // order.
  const Cycles bounds[] = {Cycles{1} << 8, Cycles{1} << 16, Cycles{1} << 24,
                           Cycles{1} << 32};
  TieredScheduler q;
  std::vector<std::pair<Cycles, int>> fired;
  int tag = 0;
  std::vector<std::pair<Cycles, int>> expect;
  for (Cycles b : bounds) {
    for (Cycles t : {b - 1, b, b + 1}) {
      q.schedule_at(t, [&fired, &q, tag] { fired.emplace_back(q.now(), tag); });
      expect.emplace_back(t, tag++);
      q.schedule_at(t, [&fired, &q, tag] { fired.emplace_back(q.now(), tag); });
      expect.emplace_back(t, tag++);
    }
  }
  q.run_until_idle();
  EXPECT_EQ(fired, expect);
  EXPECT_EQ(q.events_fired(), expect.size());
}

TEST(TieredScheduler, ClearDropsEveryTier) {
  auto canary = std::make_shared<int>(42);
  TieredScheduler q;
  // Park the queue at a nonzero time so the lane genuinely holds a tick.
  q.schedule_at(100, [] {});
  q.run_until_idle();
  ASSERT_EQ(q.now(), 100u);

  const auto hold = [canary] { (void)*canary; };
  const long base = canary.use_count();  // canary + the hold lambda's copy
  q.schedule_now(hold);                            // same-tick FIFO lane
  q.schedule_in(1, hold);                          // wheel level 0
  q.schedule_in(300, hold);                        // wheel level 1
  q.schedule_in(70'000, hold);                     // wheel level 2
  q.schedule_in(Cycles{1} << 25, hold);            // wheel level 3
  q.schedule_in(Cycles{1} << 33, hold);            // beyond horizon: heap
  EXPECT_EQ(q.pending(), 6u);
  EXPECT_EQ(canary.use_count(), base + 6);

  q.clear();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  // clear() must have destroyed every captured action, in every tier.
  EXPECT_EQ(canary.use_count(), base);

  // The queue stays usable: time is unchanged and new events still fire.
  EXPECT_EQ(q.now(), 100u);
  int fired = 0;
  q.schedule_in(5, [&] { ++fired; });
  q.run_until_idle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 105u);
}

}  // namespace
}  // namespace svmsim::engine
