// Programmable network interface (Myrinet-like), per node.
//
// Send path:   host posts a message descriptor into the NI send queue ->
//              NI firmware fragments it into MTU packets, charging per-packet
//              NI occupancy, then DMAs each packet over the I/O bus and the
//              memory bus (NI-out priority) and pushes it onto the wire.
// Receive path: each packet charges NI occupancy, then is DMA'd into host
//              memory (I/O bus + memory bus at NI-in priority) without any
//              interrupt; the messaging layer decides whether delivery of
//              the completed message interrupts a processor.
//
// Each direction has its own processing engine (as on NIs with independent
// send/receive DMA paths), each charging the per-packet NI occupancy — the
// parameter of Figures 7/12. Within a direction, packets serialize.
//
// Hot-path notes: in-flight messages live in the Network's message pool (one
// PoolRef per fragment instead of a shared_ptr allocation per message), the
// send/receive queues are RingQueues, and the per-packet wire closure is
// sized to fit the event queue's inline action storage.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/params.hpp"
#include "core/pool.hpp"
#include "core/stats.hpp"
#include "engine/resource.hpp"
#include "engine/ring_queue.hpp"
#include "engine/simulator.hpp"
#include "engine/task.hpp"
#include "memsys/memory_bus.hpp"
#include "net/io_bus.hpp"
#include "net/message.hpp"
#include "topo/topology.hpp"

namespace svmsim::net {

class Network;

using MessageRef = core::PoolRef<Message>;

struct Packet {
  NodeId src = -1;
  NodeId dst = -1;
  int nic_index = 0;        ///< which of the destination node's NIs receives
  std::uint64_t bytes = 0;  ///< wire size of this packet (payload + header)
  std::uint32_t wire_seq = 0;  ///< per-source-NI launch sequence (wire key)
  bool last = false;        ///< final fragment of its message
  MessageRef msg;
};

class Nic {
 public:
  Nic(engine::Simulator& sim, const ArchParams& arch, const CommParams& comm,
      NodeId self, int index, memsys::MemoryBus& membus);

  void attach(Network& network) { network_ = &network; }

  /// Host/hardware side: enqueue a message for transmission. Suspends the
  /// caller only if the send queue is out of space (queue overflow, which
  /// the paper models as the NI interrupting and delaying the host).
  engine::Task<void> post(Message m);

  /// Called by the Network when a packet lands in the receive queue.
  void packet_arrived(Packet p);

  /// Full message arrived and DMA'd to host memory (set by messaging layer).
  std::function<void(Message&&)> on_message;

  /// Invoked at the exact enqueue point of post() — after any overflow
  /// wait, immediately before the message joins the FIFO send queue — where
  /// enqueue order equals launch order. The protocol layer's clock-delta
  /// encoder hangs here (docs/scaling.md): messages of equal wire size on
  /// one (src, dst) edge cannot overtake each other between this point and
  /// delivery, which is what makes per-edge delta caches sound. The hook
  /// may rewrite the body but must not change payload_bytes.
  std::function<void(Message&)> on_enqueue;

  /// AURC automatic update applied directly by the NI (set by the AURC
  /// device); never interrupts the host.
  std::function<void(const Message&)> on_update;

  [[nodiscard]] NodeId id() const noexcept { return self_; }
  [[nodiscard]] int index() const noexcept { return index_; }
  [[nodiscard]] IoBus& io_bus() noexcept { return iobus_; }

  /// True once this NI has witnessed two same-cycle packet arrivals in
  /// descending source order — impossible under the baseline wire-band
  /// order (same-cycle same-destination deliveries fire in ascending key,
  /// i.e. ascending source), reachable only when a schedule explorer defers
  /// deliveries. Sticky for the rest of the run; tracked only while the
  /// kReorderSensitiveNotice fault injection is active (see packet_arrived),
  /// so default runs never touch the bookkeeping.
  [[nodiscard]] bool reorder_witnessed() const noexcept {
    return reorder_witnessed_;
  }

 private:
  engine::Task<void> tx_loop();
  engine::Task<void> rx_loop();
  [[nodiscard]] std::uint64_t wire_bytes(const Message& m) const {
    return arch_->message_header_bytes + m.payload_bytes;
  }

  engine::Simulator* sim_;
  const ArchParams* arch_;
  const CommParams* comm_;
  NodeId self_;
  int index_;
  memsys::MemoryBus* membus_;
  Network* network_ = nullptr;

  IoBus iobus_;
  engine::Resource ni_tx_;  // send-side packet processing
  engine::Resource ni_rx_;  // receive-side packet processing

  engine::RingQueue<Message> send_q_;
  std::uint64_t send_q_bytes_ = 0;
  std::uint32_t wire_seq_ = 0;  ///< launch counter for this NI's packets
  engine::Semaphore send_items_;
  engine::Trigger send_space_;

  engine::RingQueue<Packet> recv_q_;
  std::uint64_t recv_q_bytes_ = 0;
  engine::Semaphore recv_items_;

  /// kReorderSensitiveNotice bookkeeping (see reorder_witnessed()).
  Cycles last_arrival_when_ = kNever;
  NodeId last_arrival_src_ = -1;
  bool reorder_witnessed_ = false;
};

/// Crossbar network: constant-latency links at processor speed. Contention
/// in links and switches is deliberately not modeled (paper §2). Also hosts
/// the message pool for in-flight traffic — the Network is constructed
/// before (so destroyed after) every Nic that draws from it.
///
/// Deliveries go through the scheduler's wire band, keyed by (dst node,
/// src node, NI index, per-NI launch sequence). The key is a pure function
/// of the sending NI's local history, so same-cycle packets deliver in an
/// order no unrelated event can perturb (docs/engine.md).
class Network {
 public:
  using Action = engine::EventQueue::Action;

  Network(engine::Simulator& sim, const ArchParams& arch)
      : sim_(&sim), arch_(&arch) {}

  /// Register node `node`'s NI number `nic.index()`. Nodes may have
  /// several NIs; packets address (node, index).
  void add_nic(Nic& nic) {
    const auto n = static_cast<std::size_t>(nic.id());
    assert(nic.id() < 4096 && nic.index() < 256 && "wire key field overflow");
    if (nics_.size() <= n) nics_.resize(n + 1);
    const auto k = static_cast<std::size_t>(nic.index());
    if (nics_[n].size() <= k) nics_[n].resize(k + 1, nullptr);
    nics_[n][k] = &nic;
    nic.attach(*this);
  }

  /// Install a contended topology backend (src/topo/; Machine, before any
  /// traffic). With none installed, transmit() takes the paper's
  /// contention-free single-formula path.
  void set_topology(topo::Topology* t) noexcept { topo_ = t; }

  /// A recycled in-flight message slot.
  [[nodiscard]] MessageRef acquire_message() { return msg_pool_.acquire(); }

  /// Launch a packet at local time `now`: it arrives at the destination NI
  /// after the wire latency plus serialization at link bandwidth.
  void transmit(Packet p, Cycles now);

 private:
  /// Pooled per-packet route state for contended topologies. The wire key
  /// already encodes (dst, src, nic index, launch seq), so only the payload
  /// ref, wire bytes, next-hop cursor and last flag ride here; a closure
  /// over {Network*, PoolRef<Hop>, Cycles} fits the scheduler's 24-byte
  /// inline action storage.
  struct Hop {
    MessageRef msg;
    std::uint64_t key = 0;
    std::uint32_t bytes = 0;
    std::uint8_t next = 0;  ///< index of the next link on the route
    bool last = false;
    void recycle() { msg.reset(); }
  };
  /// Contended-topology transmit: serve the injection link inline, then
  /// walk the route hop by hop as wire-band events.
  void transmit_routed(Packet p, Cycles now);
  /// One link traversal: FIFO-reserve the link, then schedule the next hop
  /// (or the final delivery) at reservation end + link latency.
  void hop(core::PoolRef<Hop> h, Cycles now);
  /// Final wire event: rebuild the Packet from the key + Hop state and hand
  /// it to the receiving NI.
  void deliver(core::PoolRef<Hop> h);

  engine::Simulator* sim_;
  const ArchParams* arch_;
  topo::Topology* topo_ = nullptr;
  core::ObjectPool<Message> msg_pool_;
  core::ObjectPool<Hop> hop_pool_;
  std::vector<std::vector<Nic*>> nics_;  // [node][nic index]
};

}  // namespace svmsim::net
