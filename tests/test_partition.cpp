// PDES mode tests: partition mapping, the wire band's ordering contract,
// the WindowDriver's conservative windows, frame
// registry ownership across threads, and serial-vs-parallel bit equality of
// whole application runs (the determinism contract of docs/engine.md,
// "PDES mode").
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "core/runner.hpp"
#include "engine/event_queue.hpp"
#include "engine/partition.hpp"
#include "engine/ring_queue.hpp"
#include "engine/simulator.hpp"
#include "engine/task.hpp"

namespace svmsim {
namespace {

// ---------------------------------------------------------------- mapping

TEST(Partitioning, EffectivePartitionsClamps) {
  using engine::effective_partitions;
  EXPECT_EQ(effective_partitions(0, 4), 1);
  EXPECT_EQ(effective_partitions(-3, 4), 1);
  EXPECT_EQ(effective_partitions(1, 4), 1);
  EXPECT_EQ(effective_partitions(2, 4), 2);
  EXPECT_EQ(effective_partitions(4, 4), 4);
  EXPECT_EQ(effective_partitions(16, 4), 4);  // never more than one per node
  EXPECT_EQ(effective_partitions(8, 1), 1);
}

TEST(Partitioning, PartitionOfIsContiguousAndCoversAll) {
  using engine::partition_of;
  for (int nodes : {1, 2, 3, 4, 7, 8, 16, 33}) {
    for (int parts = 1; parts <= nodes; ++parts) {
      std::vector<int> size(static_cast<std::size_t>(parts), 0);
      int prev = 0;
      for (int n = 0; n < nodes; ++n) {
        const int p = partition_of(n, nodes, parts);
        ASSERT_GE(p, 0) << nodes << "/" << parts;
        ASSERT_LT(p, parts) << nodes << "/" << parts;
        ASSERT_GE(p, prev) << "not contiguous at node " << n;
        prev = p;
        ++size[static_cast<std::size_t>(p)];
      }
      // Node 0 (the barrier manager) is always partition 0, the one that
      // runs on the calling thread.
      EXPECT_EQ(partition_of(0, nodes, parts), 0);
      EXPECT_EQ(prev, parts - 1) << "last partition unused";
      for (int p = 0; p < parts; ++p) {
        EXPECT_GT(size[static_cast<std::size_t>(p)], 0)
            << "empty partition " << p << " for " << nodes << "/" << parts;
      }
    }
  }
}

// --------------------------------------------------------------- wire band

// The wire band contract (docs/engine.md): at equal time, wire events fire
// before every (time, seq) event, and order among themselves by key — not by
// insertion order. That is what lets the PDES mode replay the serial
// delivery order from content-derived keys alone.
TEST(WireBand, FiresWireBeforeSeqAndByKey) {
  engine::EventQueue q;
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

TEST(WireBand, NextTimeSeesWire) {
  engine::EventQueue q;
  int fired = 0;
  q.schedule_wire(7, 1, [&fired] { ++fired; });
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.next_time(), 7u);
  // A deadline before the wire event leaves it pending.
  EXPECT_FALSE(q.run_until(6));
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(q.run_until(7));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

TEST(WireBand, ClearDropsWireEvents) {
  engine::EventQueue q;
  q.schedule_wire(5, 1, [] { FAIL() << "cleared event fired"; });
  q.schedule_at(5, [] { FAIL() << "cleared event fired"; });
  q.clear();
  EXPECT_TRUE(q.empty());
  q.run_until_idle();
}

// ------------------------------------------------------------ WindowDriver

TEST(WindowDriver, SinglePartitionCollapsesToOneWindow) {
  // No publish hook means no cross-partition traffic, ever: the driver sees
  // min(send) = kNever at the first barrier and runs everything to the
  // horizon in a single window.
  engine::EventQueue q;
  std::vector<int> order;
  for (int i = 5; i >= 1; --i) {
    q.schedule_at(static_cast<Cycles>(i * 100),
                  [&order, i] { order.push_back(i); });
  }
  engine::WindowDriver driver({&q}, /*lookahead=*/100, {});
  EXPECT_TRUE(driver.run(Cycles{1} << 30));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(driver.windows(), 1u);
}

TEST(WindowDriver, WindowEndFollowsSendBound) {
  // A partition that publishes "my earliest send is head-of-queue plus a
  // 30-cycle transmit floor" (the shape Machine derives from
  // Network::min_tx_cycles) gets windows [head, head + 30 + lookahead).
  auto run_with = [](bool claim_sends) -> std::uint64_t {
    engine::EventQueue q;
    for (int i = 1; i <= 100; ++i) {
      q.schedule_at(static_cast<Cycles>(i * 10), [] {});
    }
    engine::WindowDriver::Hooks hooks;
    if (claim_sends) {
      hooks.publish = [&q](int) {
        engine::WindowDriver::Published pub;
        pub.next_send = q.next_send_bound(/*floor=*/30);
        return pub;
      };
    }
    engine::WindowDriver driver({&q}, /*lookahead=*/25, std::move(hooks));
    EXPECT_TRUE(driver.run(Cycles{1} << 30));
    return driver.windows();
  };
  // [head, head + 55) holds six of the 10-apart events, so 100 events take
  // ceil(100 / 6) = 17 windows; a window one lookahead wide would hold only
  // three (34 windows).
  EXPECT_EQ(run_with(true), 17u);
  EXPECT_EQ(run_with(false), 1u);
}

TEST(WindowDriver, StopsAtMaxCyclesBeforeFiringPastIt) {
  // The horizon window must still respect max_cycles: the second event lies
  // past the deadline and must stay pending.
  engine::EventQueue q;
  int fired = 0;
  q.schedule_at(50, [&fired] { ++fired; });
  q.schedule_at(5000, [&fired] { ++fired; });
  engine::WindowDriver driver({&q}, /*lookahead=*/10, {});
  EXPECT_FALSE(driver.run(/*max_cycles=*/100));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
  q.clear();
}

TEST(WindowDriver, CrossPartitionPingPongDeliversEverything) {
  // Two partitions exchange records through TimedChannels with the hook
  // structure Machine::run_parallel uses: pushes land at send-time + L (the
  // conservative bound), publish seals the window's batch and reports the
  // head-of-queue send bound, drain splices sealed batches at window start.
  constexpr Cycles kLookahead = 100;
  constexpr int kRounds = 50;

  engine::EventQueue q[2];
  engine::TimedChannel<int> chan[2];  // chan[p] feeds partition p
  std::vector<int> seen[2];

  // Seed: partition 0 fires at t=1 and "sends" to partition 1; each receipt
  // sends back until kRounds messages have crossed.
  std::function<void(int, int)> receive = [&](int p, int round) {
    seen[p].push_back(round);
    if (round >= kRounds) return;
    const int other = 1 - p;
    // Send during this window; arrival is one full lookahead away.
    chan[other].push(q[p].now() + kLookahead, static_cast<std::uint64_t>(round),
                     round + 1);
  };
  q[0].schedule_at(1, [&receive] { receive(0, 0); });

  engine::WindowDriver::Hooks hooks;
  hooks.publish = [&](int p) {
    engine::WindowDriver::Published pub;
    pub.in_flight = chan[1 - p].seal();
    // Sends happen only while events execute, so the head-of-queue time is
    // a sound lower bound (the zero-floor version of Machine's bound).
    pub.next_send = q[p].next_time();
    return pub;
  };
  hooks.drain = [&](int p) {
    chan[p].drain([&, p](engine::TimedChannel<int>::Batch& batch) {
      for (auto& e : batch) {
        const int round = e.item;
        q[p].schedule_wire(e.when, e.key,
                           [&receive, p, round] { receive(p, round); });
      }
    });
  };
  engine::WindowDriver driver({&q[0], &q[1]}, kLookahead, std::move(hooks));
  EXPECT_TRUE(driver.run(Cycles{1} << 30));

  // Rounds alternate: 0 got 0,2,4,..., 1 got 1,3,5,...
  ASSERT_FALSE(seen[0].empty());
  ASSERT_FALSE(seen[1].empty());
  EXPECT_EQ(seen[0].size() + seen[1].size(),
            static_cast<std::size_t>(kRounds + 1));
  for (std::size_t i = 0; i < seen[0].size(); ++i) {
    EXPECT_EQ(seen[0][i], static_cast<int>(2 * i));
  }
  for (std::size_t i = 0; i < seen[1].size(); ++i) {
    EXPECT_EQ(seen[1][i], static_cast<int>(2 * i + 1));
  }
  EXPECT_TRUE(chan[0].empty());
  EXPECT_TRUE(chan[1].empty());
}

TEST(WindowDriver, WorkerHooksRunOncePerPartition) {
  engine::EventQueue q[3];
  std::vector<int> begun(3, 0), ended(3, 0);
  for (auto& queue : q) {
    queue.schedule_at(10, [] {});
    queue.schedule_at(500, [] {});
  }
  engine::WindowDriver::Hooks hooks;
  hooks.worker_begin = [&begun](int p) {
    ++begun[static_cast<std::size_t>(p)];
  };
  hooks.worker_end = [&ended](int p) { ++ended[static_cast<std::size_t>(p)]; };
  engine::WindowDriver driver({&q[0], &q[1], &q[2]}, /*lookahead=*/7,
                              std::move(hooks));
  EXPECT_TRUE(driver.run(Cycles{1} << 30));
  EXPECT_EQ(begun, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(ended, (std::vector<int>{1, 1, 1}));
}

// ----------------------------------------------------------- FrameRegistry

TEST(FrameRegistry, CrossThreadTeardownAfterRebind) {
  // Regression for the PDES teardown path: frames spawned on one thread
  // (Machine construction) may be destroyed from another only after the
  // registry has been rebound at a quiescent point. With the old
  // thread_local live-list this corrupted the spawning thread's list.
  engine::Simulator sim;
  engine::FrameRegistry reg;
  {
    engine::ScopedFrameRegistry scope(reg);
    for (int i = 0; i < 8; ++i) {
      engine::spawn([](engine::Simulator& s) -> engine::Task<void> {
        co_await s.delay(1000);  // stays suspended: never run
      }(sim));
    }
  }
  EXPECT_FALSE(reg.empty());

  // Scheduled resumptions hold the coroutine handles; drop them first, as
  // Machine's destructor clears every partition queue before destroy_all.
  sim.queue().clear();
  std::thread worker([&reg] {
    reg.bind_to_this_thread();
    reg.destroy_all();
  });
  worker.join();
  EXPECT_TRUE(reg.empty());
}

TEST(FrameRegistry, ScopedRegistryNestsAndRestores) {
  engine::FrameRegistry a, b;
  EXPECT_EQ(engine::FrameRegistry::current_slot(), nullptr);
  {
    engine::ScopedFrameRegistry sa(a);
    EXPECT_EQ(&engine::FrameRegistry::current(), &a);
    {
      engine::ScopedFrameRegistry sb(b);
      EXPECT_EQ(&engine::FrameRegistry::current(), &b);
    }
    EXPECT_EQ(&engine::FrameRegistry::current(), &a);
  }
  EXPECT_EQ(engine::FrameRegistry::current_slot(), nullptr);
}

// ------------------------------------------------- whole-run determinism

SimConfig achievable_config() {
  SimConfig cfg;
  cfg.comm = CommParams::achievable();
  return cfg;
}

void expect_equal_runs(const RunResult& serial, const RunResult& par,
                       const std::string& label) {
  EXPECT_TRUE(par.validated) << label;
  EXPECT_EQ(serial.time, par.time) << label;
  EXPECT_EQ(serial.events, par.events) << label;
  EXPECT_TRUE(serial.stats == par.stats) << label;
  EXPECT_TRUE(serial.stats.counters() == par.stats.counters()) << label;
}

TEST(PdesEquivalence, ParallelRunIsBitIdenticalToSerial) {
  // The tentpole contract: the same app+config at --par-cores N produces the
  // exact serial Stats. Cover an even split (4 nodes / 2), one partition per
  // node (4/4), and an uneven contiguous split (4/3).
  for (const char* app : {"fft", "stress-gen@5"}) {
    auto ws = apps::make_app(app, apps::Scale::kTiny);
    const RunResult serial = run(*ws, achievable_config());
    ASSERT_TRUE(serial.validated) << app;
    for (int cores : {2, 3, 4}) {
      SimConfig cfg = achievable_config();
      cfg.par_cores = cores;
      auto wp = apps::make_app(app, apps::Scale::kTiny);
      expect_equal_runs(serial, run(*wp, cfg),
                        std::string(app) + " par_cores=" +
                            std::to_string(cores));
    }
  }
}

TEST(PdesEquivalence, ParallelMatchesSerialAcrossSeeds) {
  // The differential matrix: par_cores {2,3,4} x both protocols x four
  // stress-gen seeds, every run byte-identical to the serial reference.
  for (Protocol proto : {Protocol::kHLRC, Protocol::kAURC}) {
    for (int seed : {1, 3, 5, 7}) {
      SimConfig cfg = achievable_config();
      cfg.comm.protocol = proto;
      const std::string app = "stress-gen@" + std::to_string(seed);
      auto ws = apps::make_app(app, apps::Scale::kTiny);
      const RunResult serial = run(*ws, cfg);
      ASSERT_TRUE(serial.validated) << app;
      for (int cores : {2, 3, 4}) {
        SimConfig par_cfg = cfg;
        par_cfg.par_cores = cores;
        const std::string label =
            app + (proto == Protocol::kAURC ? " aurc" : " hlrc") +
            " par_cores=" + std::to_string(cores);
        auto wp = apps::make_app(app, apps::Scale::kTiny);
        const RunResult par = run(*wp, par_cfg);
        expect_equal_runs(serial, par, label);
        EXPECT_GT(par.windows, 0u) << label;
      }
    }
  }
}

TEST(PdesEquivalence, WindowCountIsPinned) {
  // Window counts depend only on the configuration, never on wall-clock
  // timing. Pinning one makes a change that narrows (or widens) the windows
  // show up as drift here, even when results stay byte-identical.
  SimConfig cfg = achievable_config();
  cfg.par_cores = 4;
  auto w = apps::make_app("stress-gen@5", apps::Scale::kTiny);
  const RunResult r = run(*w, cfg);
  ASSERT_TRUE(r.validated);
  EXPECT_EQ(r.windows, 3596u);
}

TEST(PdesEquivalence, BothProtocolsMatchUnderPartitioning) {
  for (Protocol proto : {Protocol::kHLRC, Protocol::kAURC}) {
    SimConfig cfg = achievable_config();
    cfg.comm.protocol = proto;
    auto ws = apps::make_app("lu", apps::Scale::kTiny);
    const RunResult serial = run(*ws, cfg);
    ASSERT_TRUE(serial.validated);

    SimConfig par_cfg = cfg;
    par_cfg.par_cores = 4;
    auto wp = apps::make_app("lu", apps::Scale::kTiny);
    expect_equal_runs(serial, run(*wp, par_cfg),
                      proto == Protocol::kAURC ? "aurc" : "hlrc");
  }
}

TEST(PdesEquivalence, RepeatedParallelRunsAreIdentical) {
  // Back-to-back PDES runs in one process must match: partition worker
  // threads come and go, and every thread-local pool (coroutine frames,
  // event nodes) must recycle cleanly across runs.
  SimConfig cfg = achievable_config();
  cfg.par_cores = 4;
  auto w1 = apps::make_app("stress-gen@7", apps::Scale::kTiny);
  const RunResult r1 = run(*w1, cfg);
  ASSERT_TRUE(r1.validated);
  auto w2 = apps::make_app("stress-gen@7", apps::Scale::kTiny);
  expect_equal_runs(r1, run(*w2, cfg), "repeat");
}

TEST(PdesEquivalence, TracingRejectsParallelMode) {
  SimConfig cfg = achievable_config();
  cfg.par_cores = 2;
  cfg.trace.enabled = true;
  cfg.trace.path = "/tmp/svmsim-test-pdes-trace.bin";
  auto w = apps::make_app("fft", apps::Scale::kTiny);
  EXPECT_THROW(run(*w, cfg), std::invalid_argument);
}

TEST(PdesEquivalence, CheckedRunUnderFourPartitions) {
  // The shadow consistency checker must reach the same verdict (zero
  // violations) and the same observables when its hooks fire from four
  // partition threads.
  SimConfig cfg = achievable_config();
  auto ws = apps::make_app("stress-gen@3", apps::Scale::kTiny);
  const RunResult serial = run(*ws, cfg);
  ASSERT_TRUE(serial.validated);

  SimConfig par_cfg = cfg;
  par_cfg.par_cores = 4;
  par_cfg.check.enabled = true;
  auto wp = apps::make_app("stress-gen@3", apps::Scale::kTiny);
  const RunResult par = run(*wp, par_cfg);
  EXPECT_EQ(par.check_violations, 0u);
  expect_equal_runs(serial, par, "checked par4");
}

}  // namespace
}  // namespace svmsim
