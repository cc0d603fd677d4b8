// Per-node messaging layer ("fast messages" of the paper §2).
//
// Semantics (paper §3):
//  * Sends are asynchronous: the host pays only `host_overhead` to post (the
//    caller charges that; this layer models queueing and transfer).
//  * Requests are synchronous RPCs: the requester blocks until the reply is
//    deposited in its memory; replies never interrupt.
//  * Unsolicited requests interrupt a processor of the destination node; the
//    interrupt dispatch policy is owned by the node (fixed proc-0 or
//    round-robin).
//
// Outstanding RPCs live in a slot pool: an rpc id is (sequence << 16) | slot,
// each slot owns a reusable Trigger, and completed slots go back on a free
// list — where the old unordered_map<id, unique_ptr<...>> paid two
// allocations per RPC.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/stats.hpp"
#include "engine/simulator.hpp"
#include "engine/task.hpp"
#include "net/message.hpp"
#include "net/nic.hpp"

namespace svmsim::net {

class NodeComm {
 public:
  NodeComm(engine::Simulator& sim, NodeId self, std::vector<Nic*> nics);

  NodeComm(const NodeComm&) = delete;
  NodeComm& operator=(const NodeComm&) = delete;

  /// Post a message (request or one-way). Completes once the NI accepted it.
  engine::Task<void> send(Message m);

  /// Synchronous RPC: send `m` and suspend until the correlated reply
  /// arrives (possibly much later, e.g. a delayed lock grant).
  engine::Task<Message> rpc(Message m);

  /// Issue a request without waiting; pair with `await_reply` so several
  /// RPCs (e.g. diff flushes to multiple homes) can overlap.
  std::uint64_t rpc_post(Message& m);
  engine::Task<Message> await_reply(std::uint64_t id);

  /// Send `rep` as the reply to `req` (copies the correlation id).
  engine::Task<void> reply(const Message& req, Message rep);

  /// Handler for interrupting requests; runs in interrupt context on a
  /// processor chosen by `interrupt_dispatch`.
  std::function<engine::Task<void>(Message)> request_handler;

  /// Handler for non-interrupting, non-reply messages (barrier traffic,
  /// AURC markers). Must not block.
  std::function<void(Message&&)> direct_handler;

  /// Runs on every delivered message before reply correlation and interrupt
  /// dispatch, in exact arrival order — the receive side of the protocol's
  /// clock-delta edge caches (expansion back to full clocks). Must not
  /// block; may rewrite the body.
  std::function<void(Message&)> on_deliver;

  /// Install `fn` as the enqueue hook on every NI of this node (the send
  /// side of the clock-delta edge caches; see Nic::on_enqueue).
  void set_on_enqueue(std::function<void(Message&)> fn);

  /// Provided by the node: runs `body` in interrupt context (victim
  /// selection, interrupt cost, per-processor serialization, time stealing).
  std::function<void(std::function<engine::Task<void>()>)> interrupt_dispatch;

  [[nodiscard]] NodeId id() const noexcept { return self_; }

  /// The NI that carries traffic between this node and `dst`: fixed per
  /// node pair so each direction's traffic stays FIFO.
  [[nodiscard]] Nic& nic_for(NodeId dst) {
    return *nics_[static_cast<std::size_t>(self_ + dst) % nics_.size()];
  }
  /// Register the AURC hardware-update sink on every NI of this node.
  void set_on_update(std::function<void(const Message&)> fn);

  /// True once any of this node's NIs has seen a same-cycle descending-
  /// source arrival pair (Nic::reorder_witnessed) — the trigger of the
  /// kReorderSensitiveNotice fault injection, consulted by the protocol
  /// layer's invalidation path.
  [[nodiscard]] bool reorder_witnessed() const noexcept {
    for (const Nic* n : nics_) {
      if (n->reorder_witnessed()) return true;
    }
    return false;
  }

 private:
  void dispatch(Message&& m);

  struct PendingReply {
    explicit PendingReply(engine::Simulator& sim) : arrived(sim) {}
    engine::Trigger arrived;
    Message reply;
    bool in_use = false;
  };

  static constexpr std::uint64_t kSlotBits = 16;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  engine::Simulator* sim_;
  NodeId self_;
  std::vector<Nic*> nics_;
  std::uint64_t next_rpc_seq_ = 1;
  std::deque<PendingReply> slots_;  // deque: stable refs across slot growth
  std::vector<std::size_t> free_slots_;
};

}  // namespace svmsim::net
