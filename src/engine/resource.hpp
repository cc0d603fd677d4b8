// Contended hardware resources.
//
// Resource          — single FIFO server (NI processor, I/O bus, handler CPU).
// PriorityResource  — single server with fixed-priority arbitration and a
//                     per-grant arbitration delay (the split-transaction
//                     memory bus of the paper, whose arbitration takes one
//                     bus cycle and whose priority order is NI-out > L2 >
//                     write buffer > memory refill > NI-in).
//
// Both track busy time and grant counts so benches can report utilization.
// serve() returns an awaiter, not a coroutine, so a grant costs no frame:
// a grant on a free resource schedules one completion event that releases
// the resource and resumes the waiter; a queued waiter is handed the
// resource by a same-tick event that does its grant accounting and
// schedules its completion. These are the events, times and order of a
// coroutine that acquires the resource, delays for its service and hands it
// on (docs/engine.md §6). Wait lists are allocation-free in steady state:
// Resource queues waiters in a RingQueue, PriorityResource in a
// vector-backed binary heap.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "engine/ring_queue.hpp"
#include "engine/simulator.hpp"
#include "engine/task.hpp"
#include "engine/types.hpp"

namespace svmsim::engine {

class Resource {
 public:
  explicit Resource(Simulator& sim) noexcept : sim_(&sim) {}

  /// Awaitable: occupy the resource for `service` cycles, waiting in FIFO
  /// order first. This is the common use; bare acquire/release is not
  /// exposed to keep callers exception-safe (CP.20: no naked lock/unlock).
  /// A zero-service grant on a free resource completes without suspending.
  [[nodiscard]] auto serve(Cycles service) noexcept {
    struct Awaiter {
      Resource& r;
      Cycles service;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) {
        return r.submit(service, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, service};
  }

  /// Run `body` while holding the resource exclusively; the hold time is
  /// whatever simulated time `body` consumes. Used to serialize interrupt
  /// handlers on their victim processor.
  Task<void> with(std::function<Task<void>()> body);

  [[nodiscard]] bool busy() const noexcept { return busy_; }
  [[nodiscard]] Cycles busy_cycles() const noexcept { return busy_cycles_; }
  [[nodiscard]] std::uint64_t grants() const noexcept { return grants_; }
  [[nodiscard]] std::size_t queue_length() const noexcept {
    return waiters_.size();
  }

  /// Lower bound on when the current grant's service completes. Exact for
  /// serve() grants (grant time + service), grant time for with() grants
  /// (body duration unknown). Meaningful only while busy(); a stale value
  /// from an earlier grant is still a valid lower bound for any future
  /// completion. The adaptive PDES window uses this to bound a suspended
  /// NIC tx pipeline's next packet launch (docs/engine.md, "PDES mode").
  [[nodiscard]] Cycles busy_until() const noexcept { return busy_until_; }

  /// Completion lower bound for the most recently submitted serve():
  /// FIFO service is back-to-back, so each submission pushes this to
  /// max(committed, now) + service. A new request submitted now completes
  /// no earlier than max(committed_until(), now) + its own service — the
  /// backlog-aware form of busy_until() (with() holds are not counted, so
  /// this stays a lower bound).
  [[nodiscard]] Cycles committed_until() const noexcept {
    return committed_until_;
  }

  /// Event-context FIFO reservation: occupy the resource for `service`
  /// cycles starting when the committed backlog drains (never before
  /// `now`), and return the completion time. The non-coroutine sibling of
  /// serve(), for callers that cannot suspend — the topology layer
  /// (src/topo/) serializes packets on a link from scheduled hop events
  /// this way. Do not mix with serve()/with() on one resource: reserve()
  /// bypasses the waiter queue and orders grants purely by submission,
  /// which is FIFO only if every grant goes through it.
  Cycles reserve(Cycles now, Cycles service) noexcept {
    const Cycles start = committed_until_ > now ? committed_until_ : now;
    committed_until_ = start + service;
    busy_until_ = committed_until_;
    busy_cycles_ += service;
    ++grants_;
    return committed_until_;
  }

 private:
  /// A queued request: a serve() of `service` cycles, or a with() hold
  /// (service == kHold), which the hand-off only resumes.
  struct Waiter {
    std::coroutine_handle<> handle;
    Cycles service;
  };
  static constexpr Cycles kHold = kNever;

  /// serve() on behalf of `h`: commit the backlog, then start the grant
  /// or queue for it. Returns false when the grant already completed.
  bool submit(Cycles service, std::coroutine_handle<> h);
  /// Grant accounting and the completion event of a `service`-cycle grant
  /// that starts now. Returns false when it completed on the spot
  /// (service == 0), having released the resource.
  bool start(Cycles service, std::coroutine_handle<> h);
  /// End the current grant: hand the resource to the next waiter or free it.
  void release();

  Simulator* sim_;
  bool busy_ = false;
  Cycles busy_cycles_ = 0;
  Cycles busy_until_ = 0;
  Cycles committed_until_ = 0;
  std::uint64_t grants_ = 0;
  RingQueue<Waiter> waiters_;
};

class PriorityResource {
 public:
  /// `arbitration` cycles are charged on every grant, before service begins.
  PriorityResource(Simulator& sim, Cycles arbitration) noexcept
      : sim_(&sim), arbitration_(arbitration) {}

  /// Awaitable: occupy the resource for `service` cycles. Lower `priority`
  /// value wins arbitration; ties are FIFO. A grant whose occupancy
  /// (arbitration + service) is zero completes without suspending when the
  /// resource is free.
  [[nodiscard]] auto serve(int priority, Cycles service) noexcept {
    struct Awaiter {
      PriorityResource& r;
      int priority;
      Cycles service;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) {
        return r.submit(priority, service, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, priority, service};
  }

  /// serve() with no one waiting for it: the grant arbitrates and occupies
  /// the resource exactly like an awaited one, and its completion resumes
  /// nothing.
  void post(int priority, Cycles service) { submit(priority, service, {}); }

  [[nodiscard]] Cycles busy_cycles() const noexcept { return busy_cycles_; }
  [[nodiscard]] std::uint64_t grants() const noexcept { return grants_; }
  [[nodiscard]] std::size_t queue_length() const noexcept {
    return waiters_.size();
  }

  /// Lower bound on when the current grant's occupancy (arbitration +
  /// service) completes; see Resource::busy_until().
  [[nodiscard]] Cycles busy_until() const noexcept { return busy_until_; }

 private:
  struct Waiter {
    int priority;
    std::uint64_t seq;
    std::coroutine_handle<> handle;  // null for post()
    Cycles service;
  };
  /// Heap comparator: the *minimum* (priority, seq) must surface, so order
  /// by "greater" for std::push_heap/pop_heap max-heap semantics.
  struct After {
    bool operator()(const Waiter& a, const Waiter& b) const noexcept {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };

  /// As Resource::submit; a null `h` is a post().
  bool submit(int priority, Cycles service, std::coroutine_handle<> h);
  bool start(Cycles service, std::coroutine_handle<> h);
  void release();

  Simulator* sim_;
  Cycles arbitration_;
  bool busy_ = false;
  Cycles busy_cycles_ = 0;
  Cycles busy_until_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Waiter> waiters_;  // binary heap, see After
};

}  // namespace svmsim::engine
