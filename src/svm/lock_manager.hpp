// Home-based queue locks with node-level token caching.
//
// Every lock has a home node (id % nodes). The token (ownership) migrates
// between nodes and is cached: a processor whose node holds the free token
// acquires locally through hardware synchronization with no messages or
// interrupts ("local lock acquire" in Table 2). Otherwise the node RPCs the
// home, which recalls the token from its current owner and grants FIFO.
//
// The LockDirectory holds the home-side state; per-node proxy state lives in
// the protocol agents. The per-lock release timestamp (`vc`) conceptually
// travels with the token; keeping it here is a simulator shortcut that does
// not change message counts or sizes (grants still carry it on the wire).
//
// Home-state slots are created lazily on first touch (a std::deque keeps
// references stable across growth — handlers hold LockHomeState& over
// co_awaits): a machine exposing 8192 lock ids no longer pays 8192 VClock
// allocations up front for the handful of locks an application uses.
#pragma once

#include <cstdint>
#include <deque>

#include "engine/ring_queue.hpp"
#include "engine/types.hpp"
#include "net/message.hpp"
#include "svm/vclock.hpp"

namespace svmsim::svm {

struct LockHomeState {
  /// Node currently holding the token. Set to the home at slot creation,
  /// then written and read only by the home node's handlers — non-home
  /// nodes must not read it (SvmAgent::proxy short-circuits on home_of).
  NodeId owner = -1;
  bool recall_sent = false; ///< a recall to `owner` is outstanding
  engine::RingQueue<net::Message> waiters;  ///< queued kLockAcquire requests
  VClock vc;                ///< timestamp of the lock's last release
};

class LockDirectory {
 public:
  LockDirectory(int nodes, int max_locks)
      : nodes_(nodes), max_locks_(max_locks) {}

  [[nodiscard]] int max_locks() const noexcept { return max_locks_; }
  [[nodiscard]] NodeId home_of(int lock) const { return lock % nodes_; }

  [[nodiscard]] LockHomeState& state(int lock) {
    while (locks_.size() <= static_cast<std::size_t>(lock)) {
      locks_.emplace_back();
      locks_.back().vc = VClock(nodes_);
      // The home owns an untouched token.
      locks_.back().owner = home_of(static_cast<int>(locks_.size()) - 1);
    }
    return locks_[static_cast<std::size_t>(lock)];
  }

 private:
  int nodes_;
  int max_locks_;
  std::deque<LockHomeState> locks_;  // lazily grown; stable references
};

}  // namespace svmsim::svm
