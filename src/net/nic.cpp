#include "net/nic.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "check/checker.hpp"
#include "net/wire_key.hpp"
#include "trace/trace.hpp"

namespace svmsim::net {

Nic::Nic(engine::Simulator& sim, const ArchParams& arch,
         const CommParams& comm, NodeId self, int index,
         memsys::MemoryBus& membus)
    : sim_(&sim),
      arch_(&arch),
      comm_(&comm),
      self_(self),
      index_(index),
      membus_(&membus),
      iobus_(sim, comm),
      ni_tx_(sim),
      ni_rx_(sim),
      send_items_(sim, 0),
      send_space_(sim),
      recv_items_(sim, 0) {
  engine::spawn(tx_loop());
  engine::spawn(rx_loop());
}

engine::Task<void> Nic::post(Message m) {
  const std::uint64_t wire = wire_bytes(m);
  while (send_q_bytes_ + wire > arch_->ni_queue_bytes) {
    // Send queue full: the NI interrupts the main processor and delays it
    // until the queue drains; we model the delay by blocking the poster.
    SVMSIM_PROBE(*sim_, kNiOverflow, -1, self_, 0, send_q_bytes_);
    send_space_.reset();
    co_await send_space_.wait();
  }
  if (m.type == MsgType::kUpdate) {
    SVMSIM_PROBE(*sim_, kUpdateSend, -1, self_, m.page, m.payload_bytes);
  } else {
    SVMSIM_PROBE(*sim_, kMsgSend, -1, self_,
                 (static_cast<std::uint64_t>(m.type) << 32) |
                     static_cast<std::uint32_t>(m.dst),
                 wire);
  }
  send_q_bytes_ += wire;
  send_q_.push_back(std::move(m));
  send_items_.release();
}

engine::Task<void> Nic::tx_loop() {
  for (;;) {
    co_await send_items_.acquire();
    assert(!send_q_.empty());
    MessageRef msg = network_->acquire_message();
    *msg = std::move(send_q_.front());
    send_q_.pop_front();

    const std::uint64_t wire = wire_bytes(*msg);
    std::uint64_t remaining = wire;
    while (remaining > 0) {
      const std::uint64_t chunk =
          std::min<std::uint64_t>(remaining, arch_->mtu_payload_bytes);
      remaining -= chunk;
      const std::uint64_t pkt_bytes = chunk + arch_->packet_header_bytes;

      // NI firmware prepares the packet, then DMAs it out of host memory.
      const Cycles ni_t0 = sim_->now();
      co_await ni_tx_.serve(comm_->ni_occupancy);
      SVMSIM_PROBE(*sim_, kNiTx, -1, self_, pkt_bytes, sim_->now() - ni_t0);
      co_await iobus_.dma(pkt_bytes);
      SVMSIM_PROBE(*sim_, kIoBus, -1, self_, pkt_bytes, 0);
      co_await membus_->transaction(memsys::BusMaster::kNIOut, pkt_bytes);

      SVMSIM_PROBE(*sim_, kPacketTx, -1, self_,
                   static_cast<std::uint64_t>(msg->dst), pkt_bytes);

      Packet p;
      p.src = self_;
      p.dst = msg->dst;
      p.nic_index = index_;
      p.bytes = pkt_bytes;
      p.wire_seq = wire_seq_++;
      p.last = remaining == 0;
      p.msg = msg;
      network_->transmit(std::move(p), sim_->now());
    }
    msg.reset();
    send_q_bytes_ -= wire;
    send_space_.fire();
  }
}

void Nic::packet_arrived(Packet p) {
  if (SVMSIM_CHECK_MUTATION_IS(*sim_, kReorderSensitiveNotice)) {
    // Arm the planted bug when two arrivals share a cycle with the later
    // one from a lower-numbered source. The default band order delivers
    // same-cycle packets in ascending key = ascending source, so only an
    // explored (deferred) schedule can ever set this.
    if (sim_->now() == last_arrival_when_ && p.src < last_arrival_src_) {
      reorder_witnessed_ = true;
    }
    last_arrival_when_ = sim_->now();
    last_arrival_src_ = p.src;
  }
  recv_q_bytes_ += p.bytes;
  if (recv_q_bytes_ > arch_->ni_queue_bytes) {
    SVMSIM_PROBE(*sim_, kNiOverflow, -1, self_, 1, recv_q_bytes_);
  }
  recv_q_.push_back(std::move(p));
  recv_items_.release();
}

engine::Task<void> Nic::rx_loop() {
  for (;;) {
    co_await recv_items_.acquire();
    assert(!recv_q_.empty());
    Packet p = std::move(recv_q_.front());
    recv_q_.pop_front();

    // Receive-side packet processing and DMA into host memory.
    const Cycles ni_t0 = sim_->now();
    co_await ni_rx_.serve(comm_->ni_occupancy);
    SVMSIM_PROBE(*sim_, kNiRx, -1, self_, p.bytes, sim_->now() - ni_t0);
    co_await iobus_.dma(p.bytes);
    SVMSIM_PROBE(*sim_, kIoBus, -1, self_, p.bytes, 1);
    co_await membus_->transaction(memsys::BusMaster::kNIIn, p.bytes);
    recv_q_bytes_ -= p.bytes;

    if (!p.last) continue;
    if (p.msg->type == MsgType::kUpdate) {
      if (on_update) on_update(*p.msg);
    } else if (on_message) {
      SVMSIM_PROBE(*sim_, kMsgDeliver, -1, self_,
                   (static_cast<std::uint64_t>(p.msg->type) << 32) |
                       static_cast<std::uint32_t>(p.msg->src),
                   wire_bytes(*p.msg));
      on_message(std::move(*p.msg));
    }
    // p.msg dropped here: the pooled slot recycles for the next message.
  }
}

void Network::transmit(Packet p, Cycles now) {
  if (topo_ != nullptr) {
    transmit_routed(std::move(p), now);
    return;
  }
  const auto serialization =
      static_cast<Cycles>(static_cast<double>(p.bytes) /
                          arch_->link_bytes_per_cycle);
  Cycles latency = arch_->wire_latency_cycles + serialization;
  // Keep deliveries strictly in the future: the wire band requires
  // when > now.
  if (latency < 1) latency = 1;
  const Cycles when = now + latency;
  Nic* dst = nics_.at(static_cast<std::size_t>(p.dst))
                 .at(static_cast<std::size_t>(p.nic_index));
  // (dst, src, NI, launch seq): a total order on same-cycle deliveries that
  // only depends on the sending NI's local history. Packing/decoding lives
  // in net/wire_key.hpp.
  const std::uint64_t key = make_wire_key(p.dst, p.src, p.nic_index,
                                          p.wire_seq);
  // The closure is kept to (pointer, ref, u32, bool) so it fits the event
  // queue's 24-byte inline action storage: no allocation per packet hop.
  const auto bytes32 = static_cast<std::uint32_t>(p.bytes);
  Action deliver = [dst, msg = std::move(p.msg), bytes32,
                    last = p.last]() mutable {
    Packet q;
    q.src = msg->src;
    q.dst = msg->dst;
    q.nic_index = dst->index();
    q.bytes = bytes32;
    q.last = last;
    q.msg = std::move(msg);
    dst->packet_arrived(std::move(q));
  };
  sim_->queue().schedule_wire(when, key, std::move(deliver));
}

void Network::transmit_routed(Packet p, Cycles now) {
  // Same key as the legacy path: (dst, src, NI, launch seq) totally orders
  // same-cycle wire events by sender history alone. A single packet's hop
  // events strictly increase in time (every link has latency >= 1), so the
  // key never repeats at one timestamp.
  const std::uint64_t key = make_wire_key(p.dst, p.src, p.nic_index,
                                          p.wire_seq);
  core::PoolRef<Hop> h = hop_pool_.acquire();
  // route() is pure in (src, dst), so one computation serves every hop.
  topo::Topology::RouteBuf r;
  topo_->route(p.src, p.dst, r);
  h->links.assign(r.link.begin(), r.link.begin() + r.hops);
  h->msg = std::move(p.msg);
  h->key = key;
  h->bytes = static_cast<std::uint32_t>(p.bytes);
  h->next = 0;
  h->last = p.last;
  hop(std::move(h), now);
}

void Network::hop(core::PoolRef<Hop> h, Cycles now) {
  const topo::LinkId id = h->links[h->next];
  topo::Link& L = topo_->link(id);
  // FIFO link serialization: same truncating bytes/bandwidth formula as the
  // legacy path, queued behind the link's committed backlog.
  const auto ser = static_cast<Cycles>(static_cast<double>(h->bytes) /
                                       L.bytes_per_cycle);
  const Cycles start = L.free_at > now ? L.free_at : now;
  const Cycles done = start + ser;
  const Cycles waited = start - now;
  L.free_at = done;
  ++L.grants;
  L.busy_cycles += ser;
  L.wait_cycles += waited;
  L.bytes += h->bytes;
  SVMSIM_PROBE(*sim_, kLinkHop, -1, L.owner, id, waited);
  // Hop advance = queueing + serialization + link latency, strictly
  // positive as the wire band requires (every link class has latency >= 1).
  const Cycles when = done + L.latency;
  ++h->next;
  const bool final_hop = h->next == h->links.size();
  const std::uint64_t key = h->key;
  Action next = final_hop
                    ? Action([this, h = std::move(h)]() mutable {
                        deliver(std::move(h));
                      })
                    : Action([this, h = std::move(h), when]() mutable {
                        hop(std::move(h), when);
                      });
  sim_->queue().schedule_wire(when, key, std::move(next));
}

void Network::deliver(core::PoolRef<Hop> h) {
  const NodeId dst = wire_key_dst(h->key);
  Nic* nic = nics_.at(static_cast<std::size_t>(dst))
                 .at(static_cast<std::size_t>(wire_key_nic(h->key)));
  Packet q;
  q.src = wire_key_src(h->key);
  q.dst = dst;
  q.nic_index = nic->index();
  q.bytes = h->bytes;
  q.last = h->last;
  q.msg = std::move(h->msg);
  nic->packet_arrived(std::move(q));
}

}  // namespace svmsim::net
