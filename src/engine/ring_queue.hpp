// A vector-backed circular FIFO for the simulator's hot queues.
//
// std::deque allocates and frees fixed-size chunks as elements cross chunk
// boundaries, so a steady message stream through a NIC queue (or a stream of
// blocked coroutines through a semaphore) keeps the allocator busy forever.
// RingQueue grows like a vector (amortized, power-of-two capacity) and then
// never touches the heap again: steady-state push/pop is index arithmetic.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace svmsim::engine {

template <typename T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }

  /// Pre-size the backing store to hold at least `n` elements (rounded up to
  /// a power of two) without further allocation. Keeps existing elements.
  void reserve(std::size_t n) {
    std::size_t cap = buf_.empty() ? 8 : buf_.size();
    while (cap < n) cap *= 2;
    if (cap > buf_.size()) grow_to(cap);
  }

  void push_back(T v) {
    if (size_ == buf_.size()) grow_to(buf_.empty() ? 8 : buf_.size() * 2);
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(v);
    ++size_;
  }

  [[nodiscard]] T& front() {
    assert(size_ > 0);
    return buf_[head_];
  }

  [[nodiscard]] const T& front() const {
    assert(size_ > 0);
    return buf_[head_];
  }

  /// Element `i` positions behind the front, without popping.
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  void pop_front() {
    assert(size_ > 0);
    buf_[head_] = T{};  // release resources held by the slot now
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

 private:
  void grow_to(std::size_t cap) {
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;  // capacity is always a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace svmsim::engine
