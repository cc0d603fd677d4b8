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
      NodeId self, int index, memsys::MemoryBus& membus, Counters& counters);

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

  /// True while any cross-partition message is posted but not fully on the
  /// wire (send queue or mid-transmit) — the adaptive PDES window's send
  /// bookkeeping. While this holds, next_remote_tx_lb() bounds this NI's
  /// earliest send; once clear, the next cross-partition packet costs at
  /// least Network::min_tx_cycles of host/NI processing after the event
  /// that posts it.
  [[nodiscard]] bool remote_tx_pending() const noexcept {
    return remote_pending_ > 0;
  }

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

  /// Absolute lower bound on the next time this NI can launch a
  /// cross-partition packet. Computed live from the tx pipeline's current
  /// stage and the occupied resource's busy_until() — a barrier that
  /// catches the pipeline stalled on a contended bus still sees the
  /// stall-aware bound, not a stale snapshot — plus one full
  /// Network::min_tx_cycles pipeline per queued message ahead of the first
  /// remote one (a remote message behind local traffic cannot jump the
  /// FIFO send queue). Only meaningful while remote_tx_pending(); always a
  /// lower bound, so a loose value costs window width, never correctness.
  [[nodiscard]] Cycles next_remote_tx_lb() const noexcept;

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
  Counters* counters_;
  Network* network_ = nullptr;

  IoBus iobus_;
  engine::Resource ni_tx_;  // send-side packet processing
  engine::Resource ni_rx_;  // receive-side packet processing

  engine::RingQueue<Message> send_q_;
  std::uint64_t send_q_bytes_ = 0;
  std::uint32_t remote_pending_ = 0;  ///< cross-partition msgs not yet sent

  /// Adaptive-window send-bound bookkeeping (see next_remote_tx_lb()):
  /// which leg of the per-packet pipeline tx_loop currently occupies, a
  /// leg-boundary lower bound on the next packet launch, whether the
  /// in-pipeline message crosses a partition boundary, and the cached
  /// per-leg minimum costs.
  enum class TxStage : std::uint8_t { kIdle, kNiServe, kDma, kMembus };
  TxStage tx_stage_ = TxStage::kIdle;
  Cycles leg_lb_ = 0;        ///< launch bound as of the last leg boundary
  bool cur_remote_ = false;  ///< in-pipeline message crosses partitions
  Cycles min_tx_ = 0;        ///< Network::min_tx_cycles(arch, comm)
  Cycles dma_min_ = 0;       ///< minimum I/O-bus DMA leg
  Cycles mem_min_ = 0;       ///< minimum memory-bus leg (incl. arbitration)
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
/// of the sending NI's local history, so serial and PDES runs deliver
/// same-cycle packets in the same order (docs/engine.md, "PDES mode").
class Network {
 public:
  using Action = engine::EventQueue::Action;

  /// Where deliveries to one destination node go, from the perspective of
  /// the source node's partition: directly onto a scheduler (same
  /// partition, or every node in serial mode) or across a channel.
  struct Route {
    engine::EventQueue* queue = nullptr;
    engine::TimedChannel<Action>* channel = nullptr;
  };

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

  /// PDES wiring (set once by the Machine before any traffic): delivery
  /// route per [src node][dst node]. When unset, every delivery schedules
  /// on the construction simulator (standalone and serial use).
  void set_routes(std::vector<std::vector<Route>> routes) {
    routes_ = std::move(routes);
  }

  /// PDES wiring: in-flight messages recycle on the receiving partition's
  /// thread, so the pool must take its freelist lock.
  void set_thread_safe() {
    msg_pool_.set_thread_safe(true);
    hop_pool_.set_thread_safe(true);
  }

  /// Install a contended topology backend (src/topo/; Machine, before any
  /// traffic). With none installed, transmit() takes the paper's
  /// contention-free single-formula path.
  void set_topology(topo::Topology* t) noexcept { topo_ = t; }

  /// PDES wiring for contended topologies: the node -> partition map. A
  /// hop event must fire on the partition owning its link, and the window
  /// protocol must know which partitions hold topology wire events (see
  /// wire_pending). Not needed on the contention-free network.
  void set_partition_map(std::vector<int> node_part, int parts) {
    node_part_ = std::move(node_part);
    wire_pending_.assign(static_cast<std::size_t>(parts), PendingCount{});
  }

  /// Adaptive-window accounting: true while partition `part`'s event queue
  /// holds topology wire events (mid-route hops or final deliveries). A hop
  /// firing at head-of-queue time can immediately push a cross-partition
  /// record only min_latency away — far less than the NIC tx-pipeline floor
  /// — so while this holds, the publish hook must bound the partition's
  /// next send by bare head-of-queue time (core/machine.cpp).
  [[nodiscard]] bool wire_pending(int part) const noexcept {
    return !wire_pending_.empty() &&
           wire_pending_[static_cast<std::size_t>(part)].n > 0;
  }

  /// Called by the Machine's drain hook on partition `part`'s thread: `n`
  /// channel records just landed in its queue. In contended-topology mode
  /// every channel record is a topology wire event, so they join the
  /// wire_pending count (decremented when each fires).
  void note_drained(int part, std::size_t n) noexcept {
    if (!wire_pending_.empty()) {
      wire_pending_[static_cast<std::size_t>(part)].n +=
          static_cast<std::int64_t>(n);
    }
  }

  /// Minimum cross-node delivery latency — the PDES lookahead floor. Every
  /// packet spends the wire time plus at least its header's serialization at
  /// link bandwidth in flight (transmit() computes wire + bytes/bandwidth
  /// with bytes >= packet_header_bytes, and truncation is monotone), so a
  /// conservative window of this width can never miss a delivery. The wider
  /// the window, the fewer barrier syncs per simulated cycle.
  [[nodiscard]] Cycles min_latency() const noexcept {
    // A contended topology owns the bound: the analytic minimum single-hop
    // advance (every hop event schedules its successor at least that far
    // ahead — docs/topology.md).
    if (topo_ != nullptr) return topo_->min_latency();
    const auto min_serialization = static_cast<Cycles>(
        static_cast<double>(arch_->packet_header_bytes) /
        arch_->link_bytes_per_cycle);
    const Cycles floor = arch_->wire_latency_cycles + min_serialization;
    return floor > 0 ? floor : 1;
  }

  /// Conservative minimum host/NI-side cost between the event that posts a
  /// message and the launch of its first packet: the NI send occupancy, the
  /// I/O-bus DMA and the memory-bus transaction for a minimum-size packet.
  /// Every phase of Nic::tx_loop delays by at least its service time and
  /// each per-packet cost is monotone in packet size, so no transmit can
  /// beat post time + this floor. With the NI occupancy alone at ~1000
  /// cycles against a 116-cycle wire latency, this is what lets the
  /// adaptive PDES window bound a pipeline-empty partition's next send by
  /// head-of-queue + floor instead of head-of-queue alone (docs/engine.md,
  /// "PDES mode").
  [[nodiscard]] static Cycles min_tx_cycles(const ArchParams& arch,
                                            const CommParams& comm) noexcept {
    const std::uint64_t pkt = arch.packet_header_bytes;  // smallest packet
    const std::uint64_t bus_cycles =
        (pkt + arch.membus_bytes_per_bus_cycle - 1) /
        arch.membus_bytes_per_bus_cycle;
    return comm.ni_occupancy + comm.io_bus_cycles(pkt) +
           arch.membus_arbitration_cycles +
           bus_cycles * arch.membus_cpu_per_bus_cycle;
  }

  /// True when a message from `src` to `dst` leaves the source partition
  /// at any point. On the contention-free network that is exactly "the delivery
  /// travels over a TimedChannel"; on a contended topology a same-partition
  /// destination can still route over links owned by other partitions, so
  /// the whole route is inspected — the NIC's remote-pending bookkeeping
  /// (adaptive window) must treat such a message as remote work. Always
  /// false in serial mode (no routes installed).
  [[nodiscard]] bool remote(NodeId src, NodeId dst) const noexcept {
    if (routes_.empty()) return false;
    if (topo_ != nullptr && !node_part_.empty()) {
      const int ps = node_part_[static_cast<std::size_t>(src)];
      if (node_part_[static_cast<std::size_t>(dst)] != ps) return true;
      topo::Topology::RouteBuf r;
      topo_->route(src, dst, r);
      for (int i = 0; i < r.hops; ++i) {
        const NodeId owner =
            topo_->link(r.link[static_cast<std::size_t>(i)]).owner;
        if (node_part_[static_cast<std::size_t>(owner)] != ps) return true;
      }
      return false;
    }
    return routes_[static_cast<std::size_t>(src)][static_cast<std::size_t>(
               dst)]
               .channel != nullptr;
  }

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
  /// Per-partition count of scheduled topology wire events. Only ever
  /// touched from the owning partition's thread (scheduling onto another
  /// partition goes through its channel and is counted by note_drained on
  /// arrival), so plain non-atomic counters — padded to a cache line each
  /// to keep neighbouring partitions' writes from false sharing.
  struct alignas(64) PendingCount {
    std::int64_t n = 0;
  };

  /// Contended-topology transmit: serve the injection link inline, then
  /// walk the route hop by hop as wire-band events on each link owner's
  /// partition.
  void transmit_routed(Packet p, Cycles now);
  /// One link traversal: FIFO-reserve the link, then schedule the next hop
  /// (or the final delivery) at reservation end + link latency.
  void hop(core::PoolRef<Hop> h, Cycles now);
  /// Final wire event on the destination's partition: rebuild the Packet
  /// from the key + Hop state and hand it to the receiving NI.
  void deliver(core::PoolRef<Hop> h);

  engine::Simulator* sim_;
  const ArchParams* arch_;
  topo::Topology* topo_ = nullptr;
  core::ObjectPool<Message> msg_pool_;
  core::ObjectPool<Hop> hop_pool_;
  std::vector<std::vector<Nic*>> nics_;    // [node][nic index]
  std::vector<std::vector<Route>> routes_; // [src node][dst node]; may be empty
  std::vector<int> node_part_;             // [node] -> partition (contended PDES)
  std::vector<PendingCount> wire_pending_; // [partition] topology wire events
};

}  // namespace svmsim::net
