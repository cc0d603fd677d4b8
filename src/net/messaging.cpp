#include "net/messaging.hpp"

#include <cassert>
#include <utility>

namespace svmsim::net {

NodeComm::NodeComm(engine::Simulator& sim, NodeId self,
                   std::vector<Nic*> nics)
    : sim_(&sim), self_(self), nics_(std::move(nics)) {
  assert(!nics_.empty());
  for (Nic* nic : nics_) {
    nic->on_message = [this](Message&& m) { dispatch(std::move(m)); };
  }
}

void NodeComm::set_on_update(std::function<void(const Message&)> fn) {
  for (Nic* nic : nics_) {
    nic->on_update = fn;
  }
}

engine::Task<void> NodeComm::send(Message m) {
  m.src = self_;
  Nic& nic = nic_for(m.dst);
  co_await nic.post(std::move(m));
}

std::uint64_t NodeComm::rpc_post(Message& m) {
  std::size_t slot;
  if (free_slots_.empty()) {
    slot = slots_.size();
    slots_.emplace_back(*sim_);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  assert(slot < (1ull << kSlotBits) && "too many concurrent RPCs");
  PendingReply& s = slots_[slot];
  assert(!s.in_use);
  s.in_use = true;
  const std::uint64_t id = (next_rpc_seq_++ << kSlotBits) | slot;
  m.rpc_id = id;
  return id;
}

engine::Task<Message> NodeComm::await_reply(std::uint64_t id) {
  const std::size_t slot = id & kSlotMask;
  PendingReply& s = slots_[slot];
  assert(s.in_use && "await_reply without rpc_post");
  co_await s.arrived.wait();
  Message reply = std::move(s.reply);
  s.arrived.reset();
  s.in_use = false;
  free_slots_.push_back(slot);
  co_return reply;
}

engine::Task<Message> NodeComm::rpc(Message m) {
  const std::uint64_t id = rpc_post(m);
  co_await send(std::move(m));
  co_return co_await await_reply(id);
}

engine::Task<void> NodeComm::reply(const Message& req, Message rep) {
  rep.dst = req.src;
  rep.rpc_id = req.rpc_id;
  assert(is_reply(rep.type) && "replies must use a reply message type");
  co_await send(std::move(rep));
}

void NodeComm::dispatch(Message&& m) {
  if (is_reply(m.type)) {
    const std::size_t slot = m.rpc_id & kSlotMask;
    assert(slot < slots_.size() && slots_[slot].in_use &&
           "reply with no outstanding request");
    PendingReply& s = slots_[slot];
    s.reply = std::move(m);
    s.arrived.fire();
    return;
  }
  if (interrupts_host(m.type)) {
    // Whether this costs an interrupt or a poll tick is the node's policy;
    // the dispatch callback does the accounting.
    assert(request_handler && interrupt_dispatch);
    interrupt_dispatch(
        [this, msg = std::move(m)]() mutable -> engine::Task<void> {
          return request_handler(std::move(msg));
        });
    return;
  }
  assert(direct_handler && "unhandled direct message");
  direct_handler(std::move(m));
}

}  // namespace svmsim::net
