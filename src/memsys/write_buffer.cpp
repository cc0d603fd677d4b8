#include "memsys/write_buffer.hpp"

#include <algorithm>

namespace svmsim::memsys {

void WriteBuffer::advance(Cycles now, std::vector<std::uint64_t>& retired) {
  // Complete any retirement whose finish time has passed, then keep
  // retiring while the policy says drain (occupancy >= retire_at) and the
  // clock allows. Back-to-back retirements chain from the previous
  // completion time, not from `now`.
  bool chained = false;
  while (!pending_.empty()) {
    if (draining_) {
      if (drain_done_ > now) return;  // in-flight retirement not done yet
      retired.push_back(pending_.front());
      pending_.pop_front();
      draining_ = false;
      chained = true;
      continue;
    }
    if (pending_.size() < retire_at_) return;  // below drain threshold
    draining_ = true;
    const Cycles start = chained ? drain_done_ : now;
    drain_done_ = start + retire_cost_;
    chained = false;
  }
}

Cycles WriteBuffer::push(std::uint64_t line_addr, Cycles now,
                         std::vector<std::uint64_t>& retired) {
  advance(now, retired);
  if (contains(line_addr)) {
    ++coalesced_;
    return 0;
  }
  Cycles stall = 0;
  if (pending_.size() >= entries_) {
    // Full: wait for the in-flight retirement (drain is guaranteed active
    // because entries_ >= retire_at_).
    if (!draining_) {
      draining_ = true;
      drain_done_ = std::max(drain_done_, now) + retire_cost_;
    }
    stall = drain_done_ > now ? drain_done_ - now : 0;
    retired.push_back(pending_.front());
    pending_.pop_front();
    draining_ = false;
    ++full_stalls_;
    advance(now + stall, retired);
  }
  pending_.push_back(line_addr);
  advance(now + stall, retired);
  return stall;
}

}  // namespace svmsim::memsys
