// Write buffer with a retire-at-K policy (paper §2).
//
// The L1 is write-through: every store enters the write buffer (coalescing
// on line granularity). Retirement toward the L2 begins once occupancy
// reaches `retire_at` and proceeds one entry per `retire_cost` cycles; the
// processor stalls only when the buffer is completely full. Draining is
// modeled analytically against the processor's local clock — retired lines
// are handed back to the caller so the L2/bus can account for them. The
// entries live in a ring reserved to the buffer's capacity at construction,
// so no push or retirement touches the heap.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/ring_queue.hpp"
#include "engine/types.hpp"

namespace svmsim::memsys {

class WriteBuffer {
 public:
  WriteBuffer(std::uint32_t entries, std::uint32_t retire_at,
              Cycles retire_cost) noexcept
      : entries_(entries), retire_at_(retire_at), retire_cost_(retire_cost) {
    pending_.reserve(entries);
  }

  /// Record a store to `line_addr` at local time `now`. Lines already
  /// buffered coalesce. Returns the stall cycles suffered (non-zero only
  /// when the buffer was full). Retired lines are appended to `retired`.
  Cycles push(std::uint64_t line_addr, Cycles now,
              std::vector<std::uint64_t>& retired);

  /// Advance the drain clock to `now`, appending retired lines.
  void advance(Cycles now, std::vector<std::uint64_t>& retired);

  /// True when advance(now) would retire nothing and change nothing: the
  /// buffer is empty, its in-flight retirement is not done by `now`, or no
  /// retirement is in flight and occupancy is below the drain threshold.
  [[nodiscard]] bool quiet(Cycles now) const noexcept {
    if (pending_.empty()) return true;
    return draining_ ? drain_done_ > now : pending_.size() < retire_at_;
  }

  /// Read-hit probe (a load can be satisfied from the write buffer).
  [[nodiscard]] bool contains(std::uint64_t line_addr) const noexcept {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i] == line_addr) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t occupancy() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] std::uint64_t full_stalls() const noexcept {
    return full_stalls_;
  }
  [[nodiscard]] std::uint64_t coalesced() const noexcept { return coalesced_; }

 private:
  std::uint32_t entries_;
  std::uint32_t retire_at_;
  Cycles retire_cost_;
  engine::RingQueue<std::uint64_t> pending_;  // oldest first
  Cycles drain_done_ = 0;  // completion time of the in-flight retirement
  bool draining_ = false;
  std::uint64_t full_stalls_ = 0;
  std::uint64_t coalesced_ = 0;
};

}  // namespace svmsim::memsys
