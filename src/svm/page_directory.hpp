// Global LRC interval history: which pages each node dirtied in each of its
// intervals. Write notices for a lock grant or barrier release are "the
// intervals the acquirer has not seen yet".
//
// In a real HLRC system this history is distributed and piggybacked on lock
// grants; we keep it in one shared structure (a simulator shortcut — the
// *messages* still carry the notices' size on the wire, and invalidations
// are applied exactly where the protocol would apply them).
//
// Storage is a flat interval log per node: one growing vector of page ids
// plus a cumulative end-offset per interval. Recording an interval appends
// (no per-interval vector allocation), and counting notices between two
// timestamps is a subtraction of cumulative offsets instead of a walk.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "engine/types.hpp"
#include "svm/diff.hpp"
#include "svm/vclock.hpp"

namespace svmsim::svm {

class PageDirectory {
 public:
  explicit PageDirectory(int nodes) : log_(static_cast<std::size_t>(nodes)) {}

  [[nodiscard]] int nodes() const noexcept {
    return static_cast<int>(log_.size());
  }

  /// Record node `n`'s interval `index` (1-based, must be the next one).
  void record_interval(NodeId n, std::uint32_t index,
                       std::span<const PageId> pages);
  void record_interval(NodeId n, std::uint32_t index,
                       std::initializer_list<PageId> pages) {
    record_interval(n, index, std::span<const PageId>(pages.begin(),
                                                      pages.size()));
  }

  /// The pages node `n` dirtied in its intervals (from, to], back to back
  /// in interval order: the write notices of `n` that a clock at `from`
  /// gets from one at `to`. Empty when `from >= to`. The span is valid
  /// until `n` records its next interval.
  [[nodiscard]] std::span<const PageId> pages_between(NodeId n,
                                                      std::uint32_t from,
                                                      std::uint32_t to) const {
    if (from >= to) return {};
    const NodeLog& l = log_[static_cast<std::size_t>(n)];
    const std::uint32_t lo = begin_of(l, from);
    return {l.pages.data() + lo, l.ends[to - 1] - lo};
  }

  /// Number of notices without visiting them (message sizing). O(nodes).
  [[nodiscard]] std::uint64_t count_notices(const VClock& have,
                                            const VClock& target) const;

  [[nodiscard]] std::uint32_t intervals_of(NodeId n) const {
    return static_cast<std::uint32_t>(
        log_[static_cast<std::size_t>(n)].ends.size());
  }

 private:
  /// Interval i (0-based) of a node spans pages[ends[i-1] .. ends[i]).
  struct NodeLog {
    std::vector<PageId> pages;       // all intervals' pages, back to back
    std::vector<std::uint32_t> ends; // cumulative page count per interval
  };

  [[nodiscard]] std::uint32_t begin_of(const NodeLog& l,
                                       std::uint32_t interval) const {
    return interval == 0 ? 0 : l.ends[interval - 1];
  }

  std::vector<NodeLog> log_;  // one flat interval log per node
};

}  // namespace svmsim::svm
