// Freelist-backed object pools with intrusive reference counting — the
// allocation-free backbone of the protocol hot path.
//
// A simulation point performs the same few operations (page fetch, diff
// flush, lock handoff) millions of times; allocating the payload buffers,
// diff batches and trigger episodes fresh each time dominates wall time.
// ObjectPool<T> recycles them instead: an acquired object is handed out as a
// PoolRef<T> (a refcounted smart handle); when the last reference drops, the
// object is reset via T::recycle() — which must *keep* internal capacity —
// and pushed onto the pool's freelist. Steady state therefore performs zero
// heap traffic: `vector::assign` into a recycled buffer is a memcpy.
//
// Ownership rules (see docs/memory.md):
//  * A pool is single-threaded by default (one Machine per thread). The PDES
//    mode shares some pools across partition threads — message bodies travel
//    between partitions and drop their last reference on the receiving side —
//    so reference counts are always atomic, and a pool whose objects cross
//    partitions is switched into locked mode with set_thread_safe(true)
//    (freelist ops take a small spinlock). Single-threaded pools skip the
//    lock and keep a debug owner-thread assert instead.
//  * A pool must outlive every PoolRef into it. Within a Machine this is
//    arranged by declaration order (pools are declared before the structures
//    that hold refs) plus Machine::~Machine clearing the event queue, whose
//    scheduled closures may hold refs.
//  * T::recycle() must drop references T holds into *other* pools (so bodies
//    cascade back promptly) but keep raw capacity.
//
// Under SVMSIM_POOL_PARANOID (set by the SVMSIM_SANITIZE build) recycling is
// disabled: every acquire allocates and every release frees, so ASan sees
// the true object lifetimes and use-after-release bugs are not masked by
// reuse.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

namespace svmsim::core {

template <typename T>
class ObjectPool;

namespace detail {

template <typename T>
struct PoolNode {
  T value{};
  // Atomic because PDES-mode message bodies are referenced from several
  // partitions at once (e.g. a barrier-release vclock fanned out to every
  // node) and the copies drop concurrently.
  std::atomic<std::uint32_t> refs{0};
  ObjectPool<T>* owner = nullptr;
};

/// A tiny test-and-test-and-set spinlock for pool freelists: critical
/// sections are a few pointer ops, far too short for a mutex to pay off.
class SpinLock {
 public:
  void lock() noexcept {
    for (;;) {
      if (!flag_.test_and_set(std::memory_order_acquire)) return;
      while (flag_.test(std::memory_order_relaxed)) {
      }
    }
  }
  void unlock() noexcept { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

}  // namespace detail

/// Refcounted handle to a pooled object. Copy shares, move transfers; the
/// last reference returns the object to its pool. Never outlive the pool.
template <typename T>
class PoolRef {
 public:
  PoolRef() noexcept = default;
  PoolRef(const PoolRef& o) noexcept : node_(o.node_) {
    if (node_ != nullptr) {
      node_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  PoolRef(PoolRef&& o) noexcept : node_(std::exchange(o.node_, nullptr)) {}
  PoolRef& operator=(const PoolRef& o) noexcept {
    if (this != &o) {
      reset();
      node_ = o.node_;
      if (node_ != nullptr) {
        node_->refs.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return *this;
  }
  PoolRef& operator=(PoolRef&& o) noexcept {
    if (this != &o) {
      reset();
      node_ = std::exchange(o.node_, nullptr);
    }
    return *this;
  }
  ~PoolRef() { reset(); }

  /// Drop this reference (recycling the object if it was the last one).
  void reset() noexcept;

  [[nodiscard]] explicit operator bool() const noexcept {
    return node_ != nullptr;
  }
  [[nodiscard]] T* operator->() const noexcept { return &node_->value; }
  [[nodiscard]] T& operator*() const noexcept { return node_->value; }
  [[nodiscard]] T* get() const noexcept {
    return node_ != nullptr ? &node_->value : nullptr;
  }
  [[nodiscard]] std::uint32_t use_count() const noexcept {
    return node_ != nullptr ? node_->refs.load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class ObjectPool<T>;
  explicit PoolRef(detail::PoolNode<T>* n) noexcept : node_(n) {}
  detail::PoolNode<T>* node_ = nullptr;
};

/// Grow-only freelist of T. T must be default-constructible and provide
/// `void recycle()` resetting logical state while keeping capacity.
template <typename T>
class ObjectPool {
 public:
  ObjectPool() = default;
  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;
  // Note: the pool may be destroyed with references still outstanding when a
  // simulation is torn down mid-run (suspended coroutine frames that will
  // never resume can hold refs). Those frames are never destroyed either, so
  // no PoolRef touches the dead pool; completed runs drain back to zero
  // outstanding, which tests/test_pools.cpp checks explicitly.

  /// Switch the freelist into locked mode: acquire/recycle may then be
  /// called from any thread (the PDES mode enables this on pools whose
  /// objects cross partition boundaries). One-way for a pool's lifetime.
  void set_thread_safe(bool on) noexcept { locked_ = on; }
  [[nodiscard]] bool thread_safe() const noexcept { return locked_; }

  /// Debug: transfer single-threaded ownership to the calling thread. Only
  /// legal at quiescent points (no concurrent acquire/recycle possible).
  void bind_to_this_thread() noexcept {
#ifndef NDEBUG
    owner_ = std::this_thread::get_id();
#endif
  }

  [[nodiscard]] PoolRef<T> acquire() {
    assert((locked_ || owner_ == std::this_thread::get_id()) &&
           "unlocked pool touched off its owning thread");
#ifdef SVMSIM_POOL_PARANOID
    auto* n = new detail::PoolNode<T>();
    paranoid_live_.fetch_add(1, std::memory_order_relaxed);
#else
    detail::PoolNode<T>* n;
    if (locked_) {
      lock_.lock();
      n = acquire_node();
      lock_.unlock();
    } else {
      n = acquire_node();
    }
#endif
    n->owner = this;
    n->refs.store(1, std::memory_order_relaxed);
    return PoolRef<T>(n);
  }

  /// Objects ever created (paranoid mode: currently live).
  [[nodiscard]] std::size_t allocated() const noexcept {
#ifdef SVMSIM_POOL_PARANOID
    return paranoid_live_.load(std::memory_order_relaxed);
#else
    return all_.size();
#endif
  }
  /// Objects sitting on the freelist, ready for reuse.
  [[nodiscard]] std::size_t available() const noexcept {
#ifdef SVMSIM_POOL_PARANOID
    return 0;
#else
    return free_.size();
#endif
  }
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return allocated() - available();
  }

 private:
  friend class PoolRef<T>;

#ifndef SVMSIM_POOL_PARANOID
  [[nodiscard]] detail::PoolNode<T>* acquire_node() {
    if (free_.empty()) {
      all_.push_back(std::make_unique<detail::PoolNode<T>>());
      return all_.back().get();
    }
    detail::PoolNode<T>* n = free_.back();
    free_.pop_back();
    return n;
  }
#endif

  void recycle(detail::PoolNode<T>* n) {
    assert((locked_ || owner_ == std::this_thread::get_id()) &&
           "unlocked pool released off its owning thread");
#ifdef SVMSIM_POOL_PARANOID
    paranoid_live_.fetch_sub(1, std::memory_order_relaxed);
    delete n;
#else
    // The caller held the last reference, so resetting the value (which may
    // cascade refs into other pools) needs no lock; only the freelist does.
    n->value.recycle();
    if (locked_) {
      lock_.lock();
      free_.push_back(n);
      lock_.unlock();
    } else {
      free_.push_back(n);
    }
#endif
  }

  bool locked_ = false;
  detail::SpinLock lock_;
#ifndef NDEBUG
  std::thread::id owner_ = std::this_thread::get_id();
#endif
#ifdef SVMSIM_POOL_PARANOID
  std::atomic<std::size_t> paranoid_live_{0};
#else
  std::vector<std::unique_ptr<detail::PoolNode<T>>> all_;
  std::vector<detail::PoolNode<T>*> free_;
#endif
};

template <typename T>
void PoolRef<T>::reset() noexcept {
  if (node_ == nullptr) return;
  if (node_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    node_->owner->recycle(node_);
  }
  node_ = nullptr;
}

/// A pooled byte buffer — page snapshots, AURC update runs, HLRC twins.
struct PooledBytes {
  std::vector<std::byte> bytes;
  void recycle() noexcept { bytes.clear(); }  // keep capacity
};

}  // namespace svmsim::core
