#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/params.hpp"
#include "core/stats.hpp"
#include "engine/simulator.hpp"
#include "memsys/memory_bus.hpp"
#include "net/messaging.hpp"
#include "net/nic.hpp"

namespace svmsim::net {
namespace {

/// Two-node network harness.
struct Net2 {
  SimConfig cfg;
  engine::Simulator sim;
  Stats stats{2};
  memsys::MemoryBus bus0{sim, cfg.arch};
  memsys::MemoryBus bus1{sim, cfg.arch};
  Network network{sim, cfg.arch};
  Nic nic0{sim, cfg.arch, cfg.comm, 0, 0, bus0};
  Nic nic1{sim, cfg.arch, cfg.comm, 1, 0, bus1};
  NodeComm comm0{sim, 0, {&nic0}};
  NodeComm comm1{sim, 1, {&nic1}};

  Net2() {
    cfg.comm = CommParams::achievable();
    sim.set_counters(&stats.counters());
    network.add_nic(nic0);
    network.add_nic(nic1);
    // Default: no interrupt machinery; tests install handlers as needed.
    comm0.interrupt_dispatch = [this](std::function<engine::Task<void>()> b) {
      engine::spawn(b());
    };
    comm1.interrupt_dispatch = comm0.interrupt_dispatch;
  }
};

Message make_req(NodeId dst, std::uint64_t payload) {
  Message m;
  m.type = MsgType::kPageRequest;
  m.dst = dst;
  m.payload_bytes = payload;
  return m;
}

TEST(Nic, SmallMessageIsOnePacket) {
  Net2 n;
  n.comm1.request_handler = [](Message) -> engine::Task<void> { co_return; };
  engine::spawn(n.comm0.send(make_req(1, 16)));
  n.sim.run_until_idle();
  EXPECT_EQ(n.stats.counters().packets_sent, 1u);
  EXPECT_EQ(n.stats.counters().messages_sent, 1u);
  EXPECT_EQ(n.stats.counters().bytes_sent,
            16u + n.cfg.arch.message_header_bytes +
                n.cfg.arch.packet_header_bytes);
}

TEST(Nic, LargeMessageFragmentsAtMtu) {
  Net2 n;
  n.comm1.request_handler = [](Message) -> engine::Task<void> { co_return; };
  const std::uint64_t payload = 3 * n.cfg.arch.mtu_payload_bytes + 100;
  engine::spawn(n.comm0.send(make_req(1, payload)));
  n.sim.run_until_idle();
  EXPECT_EQ(n.stats.counters().packets_sent, 4u);
}

TEST(Nic, DeliveryLatencyIncludesPipelineStages) {
  Net2 n;
  Cycles delivered = 0;
  n.comm1.request_handler = [&](Message) -> engine::Task<void> {
    delivered = n.sim.now();
    co_return;
  };
  engine::spawn(n.comm0.send(make_req(1, 16)));
  n.sim.run_until_idle();
  const std::uint64_t wire = 16 + 32 + 32;  // payload + msg hdr + pkt hdr
  const Cycles min_latency =
      2 * n.cfg.comm.ni_occupancy +                   // tx + rx NI processing
      2 * n.cfg.comm.io_bus_cycles(wire) +            // both I/O buses
      n.cfg.arch.wire_latency_cycles;                 // wire
  EXPECT_GE(delivered, min_latency);
}

TEST(Messaging, RpcRoundTrip) {
  Net2 n;
  n.comm1.request_handler = [&](Message m) -> engine::Task<void> {
    Message rep;
    rep.type = MsgType::kPageReply;
    rep.payload_bytes = 64;
    co_await n.comm1.reply(m, std::move(rep));
  };
  bool got = false;
  engine::spawn([](Net2& net, bool& ok) -> engine::Task<void> {
    Message rep = co_await net.comm0.rpc(make_req(1, 16));
    ok = rep.type == MsgType::kPageReply;
  }(n, got));
  n.sim.run_until_idle();
  EXPECT_TRUE(got);
}

TEST(Messaging, OverlappedRpcsResolveIndependently) {
  Net2 n;
  n.comm1.request_handler = [&](Message m) -> engine::Task<void> {
    Message rep;
    rep.type = MsgType::kPageReply;
    rep.page = m.page;  // echo
    rep.payload_bytes = 8;
    co_await n.comm1.reply(m, std::move(rep));
  };
  std::vector<std::uint64_t> echoed;
  engine::spawn([](Net2& net, std::vector<std::uint64_t>& out) -> engine::Task<void> {
    Message a = make_req(1, 16);
    a.page = 111;
    Message b = make_req(1, 16);
    b.page = 222;
    const auto ida = net.comm0.rpc_post(a);
    const auto idb = net.comm0.rpc_post(b);
    co_await net.comm0.send(std::move(a));
    co_await net.comm0.send(std::move(b));
    out.push_back((co_await net.comm0.await_reply(ida)).page);
    out.push_back((co_await net.comm0.await_reply(idb)).page);
  }(n, echoed));
  n.sim.run_until_idle();
  EXPECT_EQ(echoed, (std::vector<std::uint64_t>{111, 222}));
}

TEST(Messaging, RepliesDoNotInterrupt) {
  Net2 n;
  int node0_dispatches = 0;
  int node1_dispatches = 0;
  n.comm0.interrupt_dispatch = [&](std::function<engine::Task<void>()> b) {
    ++node0_dispatches;
    engine::spawn(b());
  };
  n.comm1.interrupt_dispatch = [&](std::function<engine::Task<void>()> b) {
    ++node1_dispatches;
    engine::spawn(b());
  };
  n.comm1.request_handler = [&](Message m) -> engine::Task<void> {
    Message rep;
    rep.type = MsgType::kPageReply;
    rep.payload_bytes = 8;
    co_await n.comm1.reply(m, std::move(rep));
  };
  engine::spawn([](Net2& net) -> engine::Task<void> {
    (void)co_await net.comm0.rpc(make_req(1, 16));
  }(n));
  n.sim.run_until_idle();
  EXPECT_EQ(node0_dispatches, 0);  // the reply came back silently
  EXPECT_EQ(node1_dispatches, 1);  // only the request at node 1
}

TEST(Messaging, DirectMessagesBypassInterrupts) {
  Net2 n;
  bool direct = false;
  n.comm1.direct_handler = [&](Message&&) { direct = true; };
  Message m;
  m.type = MsgType::kBarrierArrive;
  m.dst = 1;
  m.payload_bytes = 32;
  engine::spawn(n.comm0.send(std::move(m)));
  n.sim.run_until_idle();
  EXPECT_TRUE(direct);
  EXPECT_EQ(n.stats.counters().interrupts, 0u);
}

TEST(Messaging, UpdatesGoToHardwarePath) {
  Net2 n;
  std::uint64_t applied = 0;
  n.nic1.on_update = [&](const Message& m) { applied = m.page; };
  Message m;
  m.type = MsgType::kUpdate;
  m.dst = 1;
  m.page = 42;
  m.payload_bytes = 24;
  engine::spawn(n.nic0.post(std::move(m)));
  n.sim.run_until_idle();
  EXPECT_EQ(applied, 42u);
  EXPECT_EQ(n.stats.counters().updates_sent, 1u);
  EXPECT_EQ(n.stats.counters().messages_sent, 0u);
}

TEST(Nic, OccupancySerializesPackets) {
  // With a huge NI occupancy, two messages' delivery times differ by at
  // least the occupancy.
  Net2 n;
  n.cfg.comm.ni_occupancy = 50000;
  std::vector<Cycles> arrivals;
  n.comm1.request_handler = [&](Message) -> engine::Task<void> {
    arrivals.push_back(n.sim.now());
    co_return;
  };
  engine::spawn(n.comm0.send(make_req(1, 16)));
  engine::spawn(n.comm0.send(make_req(1, 16)));
  n.sim.run_until_idle();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GE(arrivals[1] - arrivals[0], 50000u);
}

TEST(Nic, SelfSendLoopsBack) {
  Net2 n;
  bool got = false;
  n.comm0.request_handler = [&](Message) -> engine::Task<void> {
    got = true;
    co_return;
  };
  engine::spawn(n.comm0.send(make_req(0, 16)));
  n.sim.run_until_idle();
  EXPECT_TRUE(got);
}

}  // namespace
}  // namespace svmsim::net
