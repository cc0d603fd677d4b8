#include "engine/partition.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <thread>
#include <utility>

namespace svmsim::engine {

namespace {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// A sense-reversing combining barrier: the sense is a generation counter,
/// and the crossing carries the window protocol's two min-reductions — each
/// arriver folds its (next, send) bounds into a pair of atomic accumulators
/// on the way in, so opening a window costs one synchronization point.
///
/// Wait strategy: the simulation crosses one barrier per window, and a parked
/// wait costs microseconds per sync — more than the event work a small
/// window holds — so a waiter first spins for a bounded number of
/// iterations (~100ns per 4-thread sync when every partition owns a core),
/// then parks on the generation counter (std::atomic::wait). The bound keeps
/// an oversubscribed machine (concurrent PDES runs, a --jobs pool) from
/// starving the last arriver of the core it needs to complete the crossing.
///
/// Reuse safety: the completion's writes — including the accumulator resets
/// — are sequenced before the generation bump, and a thread can only
/// re-arrive (re-fold, re-increment) after observing that bump, so
/// generation g+1's folds never race generation g's reset. A thread still
/// waiting in generation g cannot be overtaken either: the next completion
/// needs all n arrivals, including the waiter's own, which it can only make
/// after leaving g.
///
/// Ordering: the relaxed CAS folds are sequenced before the arrival's
/// fetch_add(acq_rel), which joins the counter's release sequence, so the
/// last arriver's increment synchronizes with every earlier one — the
/// completion reads all folds and pre-barrier writes. Its own writes are
/// released by the generation bump and acquired by each waiter's spin load
/// or wait.
class CombiningBarrier {
 public:
  explicit CombiningBarrier(int n) noexcept : n_(n) {}

  /// Fold (next, send) into the crossing's min-reduction and block until
  /// all n threads arrive; the last to arrive runs
  /// completion(min(next), min(send)) exclusively before releasing the
  /// others (std::barrier's completion contract).
  template <typename F>
  void arrive_and_wait(Cycles next, Cycles send, F&& completion) noexcept {
    fold(next_min_, next);
    fold(send_min_, send);
    const std::uint64_t gen = gen_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      finish(completion);
      gen_.store(gen + 1, std::memory_order_release);
      gen_.notify_all();
      return;
    }
    for (int i = 0; i < kSpinIterations; ++i) {
      if (gen_.load(std::memory_order_acquire) != gen) return;
      cpu_relax();
    }
    gen_.wait(gen, std::memory_order_acquire);
  }

 private:
  // Long enough to cover a crossing when every partition owns a core, short
  // enough (a few microseconds) that an oversubscribed waiter yields its
  // core quickly. On a 4-core host, 2^8 beat both 2^6 and 2^10 on the
  // pdes_equivalence run alone and under ctest -j4.
  static constexpr int kSpinIterations = 1 << 8;

  static void fold(std::atomic<Cycles>& acc, Cycles v) noexcept {
    Cycles cur = acc.load(std::memory_order_relaxed);
    while (v < cur &&
           !acc.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  template <typename F>
  void finish(F& completion) noexcept {
    completion(next_min_.load(std::memory_order_relaxed),
               send_min_.load(std::memory_order_relaxed));
    next_min_.store(kNever, std::memory_order_relaxed);
    send_min_.store(kNever, std::memory_order_relaxed);
    arrived_.store(0, std::memory_order_relaxed);
  }

  const int n_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint64_t> gen_{0};
  std::atomic<Cycles> next_min_{kNever};
  std::atomic<Cycles> send_min_{kNever};
};

}  // namespace

WindowDriver::WindowDriver(std::vector<EventQueue*> queues, Cycles lookahead,
                           Hooks hooks)
    : queues_(std::move(queues)),
      lookahead_(lookahead),
      hooks_(std::move(hooks)) {
  assert(!queues_.empty());
  assert(lookahead_ >= 1 && "conservative windows need positive lookahead");
}

bool WindowDriver::run(Cycles max_cycles) {
  const int parts = static_cast<int>(queues_.size());
  stop_ = false;
  drained_ = false;
  windows_ = 0;
  failed_.store(false, std::memory_order_relaxed);
  error_ = nullptr;
  std::mutex error_mu;

  // Crossing completion: runs on exactly one thread between "everyone folded
  // its bounds" and "everyone observes the new window"; the barrier
  // sequences its writes against both sides.
  auto open_window = [this, max_cycles](Cycles next_min,
                                        Cycles send_min) noexcept {
    if (failed_.load(std::memory_order_relaxed)) {
      stop_ = true;
      return;
    }
    if (next_min == kNever) {
      stop_ = true;
      drained_ = true;  // nothing pending and nothing in flight anywhere
      return;
    }
    if (next_min > max_cycles) {
      stop_ = true;  // next event beyond the horizon: deadline, not drained
      return;
    }
    // Nothing can cross a partition boundary before min(send) + L, so the
    // window stretches that far — quiescent phases (send_min == kNever)
    // collapse into one window to the horizon. A published send bound may
    // sit below next_min (a NIC's launch bound goes stale while its dequeue
    // event is still queued), but no send can actually predate the
    // head-of-queue event, so clamping to next_min keeps the window sound,
    // guarantees progress, and makes [T, T + L) the conservative floor.
    const Cycles base = std::max(next_min, send_min);
    const Cycles end =
        base >= kNever - lookahead_ ? kNever : base + lookahead_;
    // Never fire past max_cycles (matches serial run_until semantics).
    window_end_ = end - 1 < max_cycles ? end : max_cycles + 1;
    ++windows_;
  };
  CombiningBarrier barrier(parts);

  auto capture = [&](std::exception_ptr e) {
    const std::lock_guard<std::mutex> g(error_mu);
    if (!error_) error_ = std::move(e);
    failed_.store(true, std::memory_order_relaxed);
  };

  auto body = [&](int p) {
    if (hooks_.worker_begin) hooks_.worker_begin(p);
    bool dead = false;
    // Batches sealed before a previous run() stopped at its horizon are
    // still in flight; deliver them before the first publish so the first
    // crossing's bounds account for them. (No producer is active yet: every
    // open batch was sealed at the previous run's final publish.)
    if (hooks_.drain) {
      try {
        hooks_.drain(p);
      } catch (...) {
        capture(std::current_exception());
        dead = true;
      }
    }
    for (;;) {
      Cycles next = kNever;
      Cycles send = kNever;
      if (!dead) {
        try {
          Published pub;
          if (hooks_.publish) pub = hooks_.publish(p);
          next = std::min(queues_[p]->next_time(), pub.in_flight);
          // A just-sealed record is an event its consumer has not seen and
          // can itself trigger a send at its own timestamp, so in_flight
          // bounds the send reduction too.
          send = std::min(pub.next_send, pub.in_flight);
        } catch (...) {
          capture(std::current_exception());
          dead = true;
        }
      }
      if (dead) {
        next = kNever;
        send = kNever;
      }
      barrier.arrive_and_wait(next, send, open_window);
      if (stop_) break;
      if (!dead) {
        try {
          if (hooks_.drain) hooks_.drain(p);
          queues_[p]->run_until(window_end_ - 1);
        } catch (...) {
          capture(std::current_exception());
          dead = true;
        }
      }
    }
    if (hooks_.worker_end) hooks_.worker_end(p);
  };

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(parts) - 1);
  for (int p = 1; p < parts; ++p) {
    workers.emplace_back(body, p);
  }
  body(0);
  for (std::thread& w : workers) w.join();

  if (error_) std::rethrow_exception(error_);
  return drained_;
}

}  // namespace svmsim::engine
