#include "net/nic.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "check/checker.hpp"
#include "net/wire_key.hpp"
#include "trace/trace.hpp"

namespace svmsim::net {

namespace {

/// Shorthand: NI-context event (no acting processor => proc = -1).
#define SVMSIM_NIC_EVENT(ev, a0, a1)                                        \
  SVMSIM_TRACE_EVENT(*sim_, trace::Category::kNet, trace::Event::ev, -1,    \
                     self_, (a0), (a1))

}  // namespace

Nic::Nic(engine::Simulator& sim, const ArchParams& arch,
         const CommParams& comm, NodeId self, int index,
         memsys::MemoryBus& membus, Counters& counters)
    : sim_(&sim),
      arch_(&arch),
      comm_(&comm),
      self_(self),
      index_(index),
      membus_(&membus),
      counters_(&counters),
      iobus_(sim, comm),
      ni_tx_(sim),
      ni_rx_(sim),
      send_items_(sim, 0),
      send_space_(sim),
      recv_items_(sim, 0) {
  min_tx_ = Network::min_tx_cycles(arch, comm);
  dma_min_ = comm.io_bus_cycles(arch.packet_header_bytes);
  mem_min_ = min_tx_ - comm.ni_occupancy - dma_min_;
  engine::spawn(tx_loop());
  engine::spawn(rx_loop());
}

Cycles Nic::next_remote_tx_lb() const noexcept {
  // Bound the next packet launch of the in-pipeline message (if any) from
  // the last leg boundary, raised by the live state of the resource the
  // pipeline occupies: a barrier that catches a leg stalled on a contended
  // bus sees the stall-aware bound, not a stale snapshot. Each arm is a
  // lower bound whether the pipeline holds the resource or still waits in
  // its queue.
  Cycles t;
  switch (tx_stage_) {
    case TxStage::kIdle:
      // Nothing popped: the dequeue event fires no earlier than now, and
      // the first packet pays a full pipeline after it (added below).
      t = sim_->now();
      break;
    case TxStage::kNiServe:
      // tx_loop is the NI send processor's only client, so the pipeline
      // holds it: service completes exactly at busy_until().
      t = std::max(leg_lb_, ni_tx_.busy_until() + dma_min_ + mem_min_);
      break;
    case TxStage::kDma:
      // Holding, or queued behind the receive path's DMA: either way no
      // launch before the current I/O-bus grant completes plus our
      // memory-bus minimum.
      t = std::max(leg_lb_, iobus_.busy_until() + mem_min_);
      break;
    case TxStage::kMembus:
      // Holding: the launch happens the cycle our transaction completes,
      // which is busy_until(). Waiting: the launch is later still.
      t = std::max(leg_lb_, membus_->busy_until());
      break;
  }
  if (tx_stage_ != TxStage::kIdle && cur_remote_) return t;
  // The first remote message is still in the FIFO send queue: the
  // in-pipeline message's remaining packets finish no earlier than t, and
  // every queued message ahead of the remote one — plus the remote one
  // itself — pays at least one more full per-packet pipeline.
  Cycles queued = min_tx_;
  for (std::size_t i = 0; i < send_q_.size(); ++i) {
    if (network_->remote(self_, send_q_[i].dst)) break;
    queued += min_tx_;
  }
  return t + queued;
}

engine::Task<void> Nic::post(Message m) {
  const std::uint64_t wire = wire_bytes(m);
  while (send_q_bytes_ + wire > arch_->ni_queue_bytes) {
    // Send queue full: the NI interrupts the main processor and delays it
    // until the queue drains; we model the delay by blocking the poster.
    ++counters_->ni_queue_overflows;
    SVMSIM_NIC_EVENT(kNiOverflow, 0, send_q_bytes_);
    send_space_.reset();
    co_await send_space_.wait();
  }
  // The enqueue hook runs with no suspension point between it and
  // push_back below: its per-edge encoding order is the launch order.
  if (on_enqueue) on_enqueue(m);
  if (m.type == MsgType::kUpdate) {
    ++counters_->updates_sent;
    counters_->update_bytes += m.payload_bytes;
    SVMSIM_NIC_EVENT(kUpdateSend, m.page, m.payload_bytes);
  } else {
    ++counters_->messages_sent;
    SVMSIM_NIC_EVENT(kMsgSend,
                     (static_cast<std::uint64_t>(m.type) << 32) |
                         static_cast<std::uint32_t>(m.dst),
                     wire);
  }
  // Adaptive-window send bookkeeping: count the message as cross-partition
  // work in flight until its last packet is on the wire. A post still
  // suspended in the overflow wait above is not counted — its resumption is
  // itself a future event, so the head-of-queue + min_tx_cycles bound
  // already covers it.
  if (network_->remote(self_, m.dst)) ++remote_pending_;
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
    cur_remote_ = network_->remote(self_, msg->dst);

    const std::uint64_t wire = wire_bytes(*msg);
    std::uint64_t remaining = wire;
    while (remaining > 0) {
      const std::uint64_t chunk =
          std::min<std::uint64_t>(remaining, arch_->mtu_payload_bytes);
      remaining -= chunk;
      const std::uint64_t pkt_bytes = chunk + arch_->packet_header_bytes;

      // NI firmware prepares the packet, then DMAs it out of host memory.
      // Each leg boundary refreshes the adaptive-window launch bound and
      // records which resource the pipeline occupies next, so a barrier
      // that catches the pipeline mid-leg can bound the launch from the
      // live resource state (next_remote_tx_lb).
      const Cycles ni_t0 = sim_->now();
      tx_stage_ = TxStage::kNiServe;
      leg_lb_ = sim_->now() + min_tx_;
      co_await ni_tx_.serve(comm_->ni_occupancy);
      SVMSIM_NIC_EVENT(kNiTx, pkt_bytes, sim_->now() - ni_t0);
      tx_stage_ = TxStage::kDma;
      // The I/O bus is FIFO and shared with the receive path: our DMA
      // completes no earlier than the already-committed backlog plus our
      // own transfer.
      leg_lb_ = std::max(sim_->now(), iobus_.committed_until()) +
                iobus_.transfer_cycles(pkt_bytes) + mem_min_;
      co_await iobus_.dma(pkt_bytes);
      SVMSIM_NIC_EVENT(kIoBus, pkt_bytes, 0);
      tx_stage_ = TxStage::kMembus;
      // NI-out wins the next memory-bus arbitration, so our transaction
      // completes no earlier than the current grant plus arbitration plus
      // our own transfer (later if another NI-out master is queued ahead).
      leg_lb_ = std::max(sim_->now(), membus_->busy_until()) +
                arch_->membus_arbitration_cycles +
                membus_->transfer_cycles(pkt_bytes);
      co_await membus_->transaction(memsys::BusMaster::kNIOut, pkt_bytes);

      ++counters_->packets_sent;
      counters_->bytes_sent += pkt_bytes;
      SVMSIM_NIC_EVENT(kPacketTx, static_cast<std::uint64_t>(msg->dst),
                       pkt_bytes);

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
    if (cur_remote_) {
      assert(remote_pending_ > 0);
      --remote_pending_;
    }
    tx_stage_ = TxStage::kIdle;
    cur_remote_ = false;
    leg_lb_ = sim_->now();
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
    ++counters_->ni_queue_overflows;
    SVMSIM_NIC_EVENT(kNiOverflow, 1, recv_q_bytes_);
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
    SVMSIM_NIC_EVENT(kNiRx, p.bytes, sim_->now() - ni_t0);
    co_await iobus_.dma(p.bytes);
    SVMSIM_NIC_EVENT(kIoBus, p.bytes, 1);
    co_await membus_->transaction(memsys::BusMaster::kNIIn, p.bytes);
    recv_q_bytes_ -= p.bytes;

    if (!p.last) continue;
    if (p.msg->type == MsgType::kUpdate) {
      if (on_update) on_update(*p.msg);
    } else if (on_message) {
      SVMSIM_NIC_EVENT(kMsgDeliver,
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
  // Keep deliveries strictly in the future: min_latency() is the PDES
  // lookahead, and the wire band requires when > now at the destination.
  if (latency < 1) latency = 1;
  const Cycles when = now + latency;
  Nic* dst = nics_.at(static_cast<std::size_t>(p.dst))
                 .at(static_cast<std::size_t>(p.nic_index));
  // (dst, src, NI, launch seq): a total order on same-cycle deliveries that
  // only depends on the sending NI's local history — identical in serial
  // and partitioned runs. Packing/decoding lives in net/wire_key.hpp.
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
  if (!routes_.empty()) {
    const Route& r = routes_[static_cast<std::size_t>(p.src)]
                            [static_cast<std::size_t>(p.dst)];
    if (r.channel != nullptr) {
      r.channel->push(when, key, std::move(deliver));
    } else {
      r.queue->schedule_wire(when, key, std::move(deliver));
    }
    return;
  }
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
  h->msg = std::move(p.msg);
  h->key = key;
  h->bytes = static_cast<std::uint32_t>(p.bytes);
  h->next = 0;
  h->last = p.last;
  // hop() decrements the firing partition's wire-event count on entry; this
  // inline first hop was never scheduled, so pre-increment to wash. The
  // injection link is owned by the source node (topology contract), so the
  // firing partition is the caller's own.
  if (!wire_pending_.empty()) {
    ++wire_pending_[static_cast<std::size_t>(
                        node_part_[static_cast<std::size_t>(p.src)])]
          .n;
  }
  hop(std::move(h), now);
}

void Network::hop(core::PoolRef<Hop> h, Cycles now) {
  topo::Topology::RouteBuf r;
  topo_->route(wire_key_src(h->key), wire_key_dst(h->key), r);
  topo::Link& L =
      topo_->link(r.link[static_cast<std::size_t>(h->next)]);
  // This event fires on the thread of the partition owning L (scheduling
  // below targets the next link's owner), so link state and the pending
  // count are touched single-threaded, in deterministic wire-band order.
  if (!wire_pending_.empty()) {
    --wire_pending_[static_cast<std::size_t>(
                        node_part_[static_cast<std::size_t>(L.owner)])]
          .n;
  }
  // FIFO link serialization: same truncating bytes/bandwidth formula as the
  // legacy path, queued behind the link's committed backlog.
  const auto ser = static_cast<Cycles>(static_cast<double>(h->bytes) /
                                       L.bytes_per_cycle);
  const Cycles done = L.server.reserve(now, ser);
  const Cycles waited = (done - ser) - now;
  L.wait_cycles += waited;
  L.bytes += h->bytes;
  SVMSIM_TRACE_EVENT(*sim_, trace::Category::kNet, trace::Event::kLinkHop, -1,
                     L.owner, r.link[static_cast<std::size_t>(h->next)],
                     waited);
  // Hop advance = queueing + serialization + link latency >= latency +
  // header serialization >= Topology::min_latency() — the PDES lookahead
  // floor (and strictly positive, as the wire band requires).
  const Cycles when = done + L.latency;
  ++h->next;
  const bool final_hop = static_cast<int>(h->next) == r.hops;
  const NodeId from = L.owner;
  const NodeId to = final_hop
                        ? wire_key_dst(h->key)
                        : topo_->link(r.link[static_cast<std::size_t>(h->next)])
                              .owner;
  const std::uint64_t key = h->key;
  Action next = final_hop
                    ? Action([this, h = std::move(h)]() mutable {
                        deliver(std::move(h));
                      })
                    : Action([this, h = std::move(h), when]() mutable {
                        hop(std::move(h), when);
                      });
  if (!routes_.empty()) {
    const Route& rt = routes_[static_cast<std::size_t>(from)]
                             [static_cast<std::size_t>(to)];
    if (rt.channel != nullptr) {
      // Cross-partition: the receiver counts it on drain (note_drained).
      rt.channel->push(when, key, std::move(next));
      return;
    }
    if (!wire_pending_.empty()) {
      ++wire_pending_[static_cast<std::size_t>(
                          node_part_[static_cast<std::size_t>(to)])]
            .n;
    }
    rt.queue->schedule_wire(when, key, std::move(next));
    return;
  }
  sim_->queue().schedule_wire(when, key, std::move(next));
}

void Network::deliver(core::PoolRef<Hop> h) {
  const NodeId dst = wire_key_dst(h->key);
  if (!wire_pending_.empty()) {
    --wire_pending_[static_cast<std::size_t>(
                        node_part_[static_cast<std::size_t>(dst)])]
          .n;
  }
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
