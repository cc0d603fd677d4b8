// Simulator context: the event queue plus coroutine-friendly primitives
// (delays, one-shot triggers, trigger episodes/pools, counting semaphores).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/event_queue.hpp"
#include "engine/ring_queue.hpp"
#include "engine/task.hpp"
#include "engine/types.hpp"

namespace svmsim {
struct Counters;
}  // namespace svmsim

namespace svmsim::trace {
class Tracer;
}  // namespace svmsim::trace

namespace svmsim::check {
class Checker;
}  // namespace svmsim::check

namespace svmsim::engine {

class ChoiceHook;

class Simulator {
 public:
  [[nodiscard]] Cycles now() const noexcept { return queue_.now(); }
  [[nodiscard]] EventQueue& queue() noexcept { return queue_; }

  /// Where the run's protocol events are counted: its Stats counters. Owned
  /// and set by the Machine (a harness driving NICs or agents without one
  /// must set it first); every layer reaches it through its sim_ pointer via
  /// the SVMSIM_PROBE macro (src/trace/trace.hpp).
  [[nodiscard]] Counters* counters() const noexcept { return counters_; }
  void set_counters(Counters* c) noexcept { counters_ = c; }

  /// The run's event recorder, or nullptr when tracing is off (the common
  /// case). Owned by the Machine; SVMSIM_PROBE appends to it.
  [[nodiscard]] trace::Tracer* tracer() const noexcept { return tracer_; }
  void set_tracer(trace::Tracer* t) noexcept { tracer_ = t; }

  /// The run's consistency checker, or nullptr when checking is off (the
  /// common case). Owned by the Machine; protocol layers reach it through
  /// their sim_ pointer via the SVMSIM_CHECK_HOOK macro (src/check/).
  [[nodiscard]] check::Checker* checker() const noexcept { return checker_; }
  void set_checker(check::Checker* c) noexcept { checker_ = c; }

  /// The run's schedule-choice hook, or nullptr outside explorer mode (the
  /// common case). Installing it also registers the hook as the event
  /// queue's wire arbiter; nondeterminism sites (interrupt dispatch, poll
  /// ticks) reach it through their sim_ pointer. See engine/choice.hpp.
  [[nodiscard]] ChoiceHook* choice_hook() const noexcept { return choice_; }
  void set_choice_hook(ChoiceHook* h) noexcept;

  /// Awaitable that suspends the coroutine for `d` cycles. d == 0 still goes
  /// through the event queue, i.e. it yields to any already-scheduled event
  /// at the current time.
  [[nodiscard]] auto delay(Cycles d) noexcept {
    struct Awaiter {
      EventQueue& q;
      Cycles d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        if (d == 0) {
          q.schedule_now([h] { h.resume(); });  // same-tick FIFO fast lane
        } else {
          q.schedule_in(d, [h] { h.resume(); });
        }
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{queue_, d};
  }

  void run_until_idle() { queue_.run_until_idle(); }
  bool run_until(Cycles deadline) { return queue_.run_until(deadline); }

 private:
  EventQueue queue_;
  Counters* counters_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  check::Checker* checker_ = nullptr;
  ChoiceHook* choice_ = nullptr;
};

/// One-shot broadcast event: waiters suspend until fire() is called; waits
/// after fire() complete immediately. Used for request/reply rendezvous
/// (the "synchronous RPC" style of the paper's messaging layer).
///
/// Triggers carry a generation counter so they can be recycled through a
/// TriggerPool: each protocol episode (a page fetch, a flush round) captures
/// the generation at start, and complete() both releases the waiters and
/// advances the generation, so an Episode handle held across the recycle
/// boundary observes "done" instead of latching onto the next user's episode.
class Trigger {
 public:
  explicit Trigger(Simulator& sim) noexcept : sim_(&sim) {}

  [[nodiscard]] bool fired() const noexcept { return fired_; }
  [[nodiscard]] std::uint32_t generation() const noexcept { return gen_; }
  [[nodiscard]] bool has_waiters() const noexcept { return !waiters_.empty(); }

  [[nodiscard]] auto wait() noexcept {
    struct Awaiter {
      Trigger& t;
      bool await_ready() const noexcept { return t.fired_; }
      void await_suspend(std::coroutine_handle<> h) {
        t.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Release all current and future waiters. Resumptions are scheduled on
  /// the event queue at the current time (deterministic order).
  void fire() {
    if (fired_) return;
    fired_ = true;
    for (auto h : waiters_) {
      sim_->queue().schedule_now([h] { h.resume(); });
    }
    waiters_.clear();
  }

  /// Re-arm for reuse (only when no waiters are pending).
  void reset() noexcept { fired_ = false; }

  /// Finish the current episode: release all waiters, re-arm, and advance
  /// the generation so stale Episode handles read as done.
  void complete() {
    fire();
    fired_ = false;
    ++gen_;
  }

  /// Pool hook: re-arm and invalidate outstanding Episode handles without
  /// waking anyone. Only legal when no waiters are pending.
  void retire() noexcept {
    assert(waiters_.empty() && "retiring a trigger with pending waiters");
    fired_ = false;
    ++gen_;
  }

 private:
  Simulator* sim_;
  bool fired_ = false;
  std::uint32_t gen_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// A generation-stamped handle to one use of a (possibly pooled) Trigger.
/// Safe to keep across the trigger's recycling: once the trigger has moved
/// on to a later generation, the episode reports done and wait() no-ops.
class Episode {
 public:
  Episode() noexcept = default;
  explicit Episode(Trigger& t) noexcept : t_(&t), gen_(t.generation()) {}

  [[nodiscard]] bool active() const noexcept { return t_ != nullptr; }
  [[nodiscard]] bool done() const noexcept {
    return t_ == nullptr || t_->generation() != gen_ || t_->fired();
  }

  [[nodiscard]] auto wait() noexcept {
    struct Awaiter {
      Episode& e;
      bool await_ready() const noexcept { return e.done(); }
      void await_suspend(std::coroutine_handle<> h) {
        e.t_->wait().await_suspend(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Trigger* t_ = nullptr;
  std::uint32_t gen_ = 0;
};

/// Freelist of Triggers. Unlike ObjectPool this recycles even under
/// SVMSIM_POOL_PARANOID: protocol code is *allowed* to query a stale Episode
/// after its trigger went back to the pool (that is the point of the
/// generation counter), so handing memory back to the allocator here would
/// turn correct code into a use-after-free.
class TriggerPool {
 public:
  explicit TriggerPool(Simulator& sim) noexcept : sim_(&sim) {}
  TriggerPool(const TriggerPool&) = delete;
  TriggerPool& operator=(const TriggerPool&) = delete;

  [[nodiscard]] Trigger* acquire() {
    if (free_.empty()) {
      all_.push_back(std::make_unique<Trigger>(*sim_));
      return all_.back().get();
    }
    Trigger* t = free_.back();
    free_.pop_back();
    return t;
  }

  /// Return `t` to the pool. The caller must have complete()d (or never
  /// exposed) the current episode: no waiters may be pending.
  void release(Trigger* t) noexcept {
    t->retire();
    free_.push_back(t);
  }

  [[nodiscard]] std::size_t allocated() const noexcept { return all_.size(); }
  [[nodiscard]] std::size_t available() const noexcept { return free_.size(); }
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return all_.size() - free_.size();
  }

 private:
  Simulator* sim_;
  std::vector<std::unique_ptr<Trigger>> all_;
  std::vector<Trigger*> free_;
};

/// Counting semaphore with FIFO wakeup.
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::int64_t initial) noexcept
      : sim_(&sim), count_(initial) {}

  [[nodiscard]] std::int64_t count() const noexcept { return count_; }

  [[nodiscard]] auto acquire() noexcept {
    struct Awaiter {
      Semaphore& s;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) {
        if (s.count_ > 0) {
          --s.count_;
          return false;  // proceed without suspending
        }
        s.waiters_.push_back(h);
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->queue().schedule_now([h] { h.resume(); });
    } else {
      ++count_;
    }
  }

 private:
  Simulator* sim_;
  std::int64_t count_;
  RingQueue<std::coroutine_handle<>> waiters_;
};

}  // namespace svmsim::engine
