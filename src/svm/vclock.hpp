// Vector timestamps over node intervals, the partial order of lazy release
// consistency. Entry `v[n]` is the index of the latest interval of node `n`
// whose write notices this node has applied.
//
// The representation is built for large machines (docs/scaling.md): entries
// live in a small-buffer inline array up to kInlineNodes (the paper's
// 16-processor configs never touch the heap) with a heap spill above that,
// and every clock maintains two summaries alongside the entries:
//
//   sum      the sum of all entries. Component-wise dominance implies sum
//            dominance, so `covers` can reject on sum alone, and equal sums
//            reduce dominance to equality (one memcmp).
//   max      the largest entry; a second cheap dominance rejector.
//
// Messages carry clocks as immutable pooled copies (svm/payload.hpp), so a
// clock is copied once per clock-bearing send and never diffed or rebuilt.
//
// The summaries are derived state: `operator==`, `covers` and `merge` are
// value-semantics exact, and simulated results never depend on them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/types.hpp"

namespace svmsim::svm {

class VClock {
 public:
  /// Largest machine whose clocks stay entirely inline: 16 nodes is the
  /// paper's machine at one processor per node, and 64 processors at the
  /// paper's 4-per-node granularity.
  static constexpr int kInlineNodes = 16;

  VClock() = default;
  explicit VClock(int nodes) : size_(nodes) {
    if (nodes > kInlineNodes) {
      heap_.assign(static_cast<std::size_t>(nodes), 0);
    }
  }

  VClock(const VClock& o)
      : heap_(o.heap_), size_(o.size_), max_(o.max_), sum_(o.sum_) {
    if (size_ <= kInlineNodes) {
      for (int i = 0; i < size_; ++i) inline_[i] = o.inline_[i];
    }
  }
  VClock(VClock&& o) noexcept = default;
  VClock& operator=(const VClock& o) {
    if (this != &o) {
      size_ = o.size_;
      if (size_ <= kInlineNodes) {
        for (int i = 0; i < size_; ++i) inline_[i] = o.inline_[i];
        heap_.clear();  // keep capacity for future spills
      } else {
        heap_ = o.heap_;
      }
      max_ = o.max_;
      sum_ = o.sum_;
    }
    return *this;
  }
  VClock& operator=(VClock&& o) noexcept {
    if (this != &o) {
      size_ = o.size_;
      if (size_ <= kInlineNodes) {
        for (int i = 0; i < size_; ++i) inline_[i] = o.inline_[i];
        heap_.clear();
      } else {
        heap_ = std::move(o.heap_);
      }
      max_ = o.max_;
      sum_ = o.sum_;
    }
    return *this;
  }
  ~VClock() = default;

  [[nodiscard]] int size() const noexcept { return size_; }

  [[nodiscard]] const std::uint32_t* data() const noexcept {
    return size_ <= kInlineNodes ? inline_ : heap_.data();
  }

  [[nodiscard]] std::uint32_t get(NodeId n) const {
    return data()[static_cast<std::size_t>(n)];
  }
  void set(NodeId n, std::uint32_t val) {
    std::uint32_t& e = mut()[static_cast<std::size_t>(n)];
    if (e == val) return;
    const std::uint32_t old = e;
    sum_ = sum_ - old + val;
    e = val;
    if (val > max_) {
      max_ = val;
    } else if (old == max_) {
      recompute_max();
    }
  }
  std::uint32_t advance(NodeId n) {
    std::uint32_t& e = mut()[static_cast<std::size_t>(n)];
    ++e;
    ++sum_;
    if (e > max_) max_ = e;
    return e;
  }

  /// Sum of all entries (derived; covers/merge short-circuit on it).
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  /// Largest entry (derived).
  [[nodiscard]] std::uint32_t max_component() const noexcept { return max_; }

  /// True if this clock has seen interval `interval` of node `n`.
  [[nodiscard]] bool covers(NodeId n, std::uint32_t interval) const {
    return interval == 0 || (interval <= max_ && get(n) >= interval);
  }
  /// True if this clock dominates `o` component-wise.
  [[nodiscard]] bool covers(const VClock& o) const;

  /// Component-wise maximum.
  void merge(const VClock& o);

  [[nodiscard]] bool operator==(const VClock& o) const;

  [[nodiscard]] std::string to_string() const;

 private:
  [[nodiscard]] std::uint32_t* mut() noexcept {
    return size_ <= kInlineNodes ? inline_ : heap_.data();
  }
  void recompute_max() noexcept;

  std::uint32_t inline_[kInlineNodes] = {};
  std::vector<std::uint32_t> heap_;  // used only when size_ > kInlineNodes
  int size_ = 0;
  std::uint32_t max_ = 0;
  std::uint64_t sum_ = 0;
};

}  // namespace svmsim::svm
