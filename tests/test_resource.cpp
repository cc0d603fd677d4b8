#include "engine/resource.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/params.hpp"
#include "engine/simulator.hpp"
#include "engine/task.hpp"
#include "memsys/memory_bus.hpp"

namespace svmsim::engine {
namespace {

TEST(Resource, SerializesService) {
  Simulator sim;
  Resource r(sim);
  std::vector<Cycles> done;
  for (int i = 0; i < 3; ++i) {
    spawn([](Simulator& s, Resource& res, std::vector<Cycles>& d) -> Task<void> {
      co_await res.serve(10);
      d.push_back(s.now());
    }(sim, r, done));
  }
  sim.run_until_idle();
  EXPECT_EQ(done, (std::vector<Cycles>{10, 20, 30}));
  EXPECT_EQ(r.grants(), 3u);
  EXPECT_EQ(r.busy_cycles(), 30u);
}

TEST(Resource, FifoOrderAmongWaiters) {
  Simulator sim;
  Resource r(sim);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    spawn([](Resource& res, std::vector<int>& o, int id) -> Task<void> {
      co_await res.serve(5);
      o.push_back(id);
    }(r, order, i));
  }
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Resource, ZeroServiceStillGrants) {
  Simulator sim;
  Resource r(sim);
  int served = 0;
  spawn([](Resource& res, int& n) -> Task<void> {
    co_await res.serve(0);
    ++n;
  }(r, served));
  sim.run_until_idle();
  EXPECT_EQ(served, 1);
  EXPECT_EQ(sim.now(), 0u);
}

TEST(Resource, WithHoldsForBodyDuration) {
  Simulator sim;
  Resource r(sim);
  std::vector<Cycles> done;
  spawn([](Simulator& s, Resource& res, std::vector<Cycles>& d) -> Task<void> {
    co_await res.with([&]() -> Task<void> { co_await s.delay(25); });
    d.push_back(s.now());
  }(sim, r, done));
  spawn([](Simulator& s, Resource& res, std::vector<Cycles>& d) -> Task<void> {
    co_await res.serve(5);
    d.push_back(s.now());
  }(sim, r, done));
  sim.run_until_idle();
  EXPECT_EQ(done, (std::vector<Cycles>{25, 30}));
}

TEST(PriorityResource, HigherPriorityWinsArbitration) {
  Simulator sim;
  PriorityResource r(sim, /*arbitration=*/1);
  std::vector<int> order;
  // Occupy the resource, then enqueue low before high priority.
  spawn([](PriorityResource& res, std::vector<int>& o) -> Task<void> {
    co_await res.serve(5, 10);
    o.push_back(0);
  }(r, order));
  spawn([](PriorityResource& res, std::vector<int>& o) -> Task<void> {
    co_await res.serve(4, 10);  // queued first, lower priority (bigger num)
    o.push_back(2);
  }(r, order));
  spawn([](PriorityResource& res, std::vector<int>& o) -> Task<void> {
    co_await res.serve(1, 10);  // queued second, higher priority
    o.push_back(1);
  }(r, order));
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(PriorityResource, ArbitrationAddsToEveryGrant) {
  Simulator sim;
  PriorityResource r(sim, 4);
  Cycles done = 0;
  spawn([](Simulator& s, PriorityResource& res, Cycles& d) -> Task<void> {
    co_await res.serve(0, 10);
    co_await res.serve(0, 10);
    d = s.now();
  }(sim, r, done));
  sim.run_until_idle();
  EXPECT_EQ(done, 28u);  // 2 x (4 arbitration + 10 service)
  EXPECT_EQ(r.busy_cycles(), 28u);
}

TEST(PriorityResource, EqualPriorityIsFifo) {
  Simulator sim;
  PriorityResource r(sim, 0);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    spawn([](PriorityResource& res, std::vector<int>& o, int id) -> Task<void> {
      co_await res.serve(2, 7);
      o.push_back(id);
    }(r, order, i));
  }
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// The hand-off order that keeps simulated results independent of how grants
// are represented: a releasing grant passes the resource to the head waiter
// through a same-tick event and busy() stays true in between, so a request
// submitted by another event in that cycle queues behind the handed-over
// waiter instead of taking the resource.
TEST(Resource, SameCycleRequestQueuesBehindHandedOverWaiter) {
  Simulator sim;
  Resource r(sim);
  std::vector<std::pair<char, Cycles>> done;
  auto client = [](Simulator& s, Resource& res, auto& d, char id,
                   Cycles start, Cycles service) -> Task<void> {
    if (start > 0) co_await s.delay(start);
    co_await res.serve(service);
    d.emplace_back(id, s.now());
  };
  spawn(client(sim, r, done, 'A', 0, 10));  // granted at 0, done at 10
  spawn(client(sim, r, done, 'B', 0, 5));   // queued at 0
  // Submits at 10 from an event that fires after A's completion (it was
  // scheduled later) but before B's hand-off event (scheduled at 10).
  spawn(client(sim, r, done, 'C', 10, 5));
  sim.run_until_idle();
  EXPECT_EQ(done, (std::vector<std::pair<char, Cycles>>{
                      {'A', 10}, {'B', 15}, {'C', 20}}));
  EXPECT_EQ(r.grants(), 3u);
  EXPECT_EQ(r.busy_cycles(), 20u);
}

TEST(PriorityResource, SameCycleRequestQueuesBehindHandedOverWaiter) {
  Simulator sim;
  PriorityResource r(sim, /*arbitration=*/1);
  std::vector<std::pair<char, Cycles>> done;
  auto client = [](Simulator& s, PriorityResource& res, auto& d, char id,
                   Cycles start, int priority) -> Task<void> {
    if (start > 0) co_await s.delay(start);
    co_await res.serve(priority, 10);
    d.emplace_back(id, s.now());
  };
  spawn(client(sim, r, done, 'A', 0, 2));  // granted at 0, done at 11
  spawn(client(sim, r, done, 'B', 0, 4));  // queued at 0, low priority
  // Higher priority, but it arrives after B was handed the bus.
  spawn(client(sim, r, done, 'C', 11, 0));
  sim.run_until_idle();
  EXPECT_EQ(done, (std::vector<std::pair<char, Cycles>>{
                      {'A', 11}, {'B', 22}, {'C', 33}}));
  EXPECT_EQ(r.grants(), 3u);
  EXPECT_EQ(r.busy_cycles(), 33u);
}

TEST(Resource, ZeroServiceOnFreeResourceNeitherSuspendsNorSchedules) {
  Simulator sim;
  Resource r(sim);
  bool served = false;
  spawn([](Resource& res, bool& flag) -> Task<void> {
    co_await res.serve(0);
    flag = true;
  }(r, served));
  EXPECT_TRUE(served);  // ran to completion inside spawn()
  EXPECT_TRUE(sim.queue().empty());
  EXPECT_FALSE(r.busy());
  EXPECT_EQ(r.grants(), 1u);
  sim.run_until_idle();
  EXPECT_EQ(sim.queue().events_fired(), 0u);
}

TEST(PriorityResource, ZeroOccupancyOnFreeResourceNeitherSuspendsNorSchedules) {
  Simulator sim;
  PriorityResource r(sim, /*arbitration=*/0);
  bool served = false;
  spawn([](PriorityResource& res, bool& flag) -> Task<void> {
    co_await res.serve(3, 0);
    flag = true;
  }(r, served));
  EXPECT_TRUE(served);
  EXPECT_TRUE(sim.queue().empty());
  EXPECT_EQ(r.grants(), 1u);
  sim.run_until_idle();
  EXPECT_EQ(sim.queue().events_fired(), 0u);
}

TEST(Resource, WithAndServeWaitersShareOneFifo) {
  Simulator sim;
  Resource r(sim);
  std::vector<std::pair<int, Cycles>> done;
  using Done = std::vector<std::pair<int, Cycles>>;
  auto server = [](Simulator& s, Resource& res, Done& d, int id,
                   Cycles service) -> Task<void> {
    co_await res.serve(service);
    d.emplace_back(id, s.now());
  };
  auto holder = [](Simulator& s, Resource& res, Done& d, int id,
                   Cycles hold) -> Task<void> {
    co_await res.with([&s, hold]() -> Task<void> { co_await s.delay(hold); });
    d.emplace_back(id, s.now());
  };
  spawn(server(sim, r, done, 0, 10));  // [0, 10)
  spawn(holder(sim, r, done, 1, 7));   // [10, 17)
  spawn(server(sim, r, done, 2, 3));   // [17, 20)
  spawn(holder(sim, r, done, 3, 4));   // [20, 24)
  spawn(server(sim, r, done, 4, 6));   // [24, 30)
  // with() holds are not counted in the committed backlog: 10 + 3 + 6.
  EXPECT_EQ(r.committed_until(), 19u);
  EXPECT_EQ(r.queue_length(), 4u);
  EXPECT_EQ(r.busy_until(), 10u);
  sim.run_until(22);
  // Mid-way through the second hold, granted at 20: busy_until is the
  // grant time, since a hold's length is unknown.
  EXPECT_TRUE(r.busy());
  EXPECT_EQ(r.busy_until(), 20u);
  EXPECT_EQ(r.queue_length(), 1u);
  sim.run_until_idle();
  EXPECT_EQ(done, (Done{{0, 10}, {1, 17}, {2, 20}, {3, 24}, {4, 30}}));
  EXPECT_EQ(r.grants(), 5u);
  EXPECT_EQ(r.busy_cycles(), 30u);
  EXPECT_EQ(r.busy_until(), 30u);
  EXPECT_EQ(r.committed_until(), 19u);
  EXPECT_FALSE(r.busy());
}

TEST(MemoryBus, PostArbitratesLikeATransactionAndResumesNothing) {
  ArchParams arch;
  arch.membus_arbitration_cycles = 4;
  arch.membus_bytes_per_bus_cycle = 8;
  arch.membus_cpu_per_bus_cycle = 4;
  Simulator sim;
  memsys::MemoryBus bus(sim, arch);
  const Cycles line = bus.transfer_cycles(64) + 4;  // 32 + arbitration
  std::vector<std::pair<char, Cycles>> done;
  auto master = [](Simulator& s, memsys::MemoryBus& b, auto& d, char id,
                   memsys::BusMaster m) -> Task<void> {
    co_await b.transaction(m, 64);
    d.emplace_back(id, s.now());
  };
  spawn(master(sim, bus, done, 'A', memsys::BusMaster::kMemory));
  spawn(master(sim, bus, done, 'B', memsys::BusMaster::kNIIn));
  bus.post(memsys::BusMaster::kWriteBuffer, 64);  // outranks B
  bus.post(memsys::BusMaster::kNIIn, 64);         // ties B, queued later
  sim.run_until_idle();
  EXPECT_EQ(done, (std::vector<std::pair<char, Cycles>>{{'A', line},
                                                        {'B', 3 * line}}));
  EXPECT_EQ(bus.grants(), 4u);
  EXPECT_EQ(bus.busy_cycles(), 4 * line);
  EXPECT_EQ(sim.now(), 4 * line);
}

}  // namespace
}  // namespace svmsim::engine
