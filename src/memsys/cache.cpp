#include "memsys/cache.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace svmsim::memsys {

Cache::Cache(const CacheParams& p) : params_(p) {
  if (const std::string err = p.validate(); !err.empty()) {
    throw std::invalid_argument("cache: " + err);
  }
  ways_ = p.associativity;
  sets_ = p.size_bytes / (p.line_bytes * p.associativity);
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(p.line_bytes));
  set_mask_ = sets_ - 1;
  slots_.assign(static_cast<std::size_t>(sets_) * ways_, 0);
}

std::uint32_t Cache::find(const Slot* set, std::uint64_t line) const noexcept {
  const Slot tag = tag_of(line);
  std::uint32_t w = 0;
  for (; w < ways_ && set[w] != 0; ++w) {
    if ((set[w] & ~Slot{1}) == tag) return w;
  }
  return ways_;
}

void Cache::drop(Slot* set, std::uint32_t w) noexcept {
  for (; w + 1 < ways_; ++w) set[w] = set[w + 1];
  set[ways_ - 1] = 0;
}

bool Cache::lookup(std::uint64_t line_addr, bool mark_dirty) {
  const std::uint64_t line = line_addr >> line_shift_;
  Slot* set = set_of(line);
  const std::uint32_t w = find(set, line);
  if (w == ways_) {
    ++misses_;
    return false;
  }
  const Slot hit = set[w] | static_cast<Slot>(mark_dirty);
  for (std::uint32_t i = w; i > 0; --i) set[i] = set[i - 1];
  set[0] = hit;
  ++hits_;
  return true;
}

bool Cache::contains(std::uint64_t line_addr) const {
  const std::uint64_t line = line_addr >> line_shift_;
  return find(set_of(line), line) != ways_;
}

Cache::Victim Cache::fill(std::uint64_t line_addr, bool dirty) {
  assert(!contains(line_addr) && "fill of a resident line");
  const std::uint64_t line = line_addr >> line_shift_;
  Slot* set = set_of(line);
  const Slot last = set[ways_ - 1];  // the LRU way, or an empty one
  Victim out;
  if (last != 0) {
    out.evicted = true;
    out.dirty = (last & 1) != 0;
    out.line_addr = ((last >> 1) - 1) << line_shift_;
  }
  for (std::uint32_t i = ways_ - 1; i > 0; --i) set[i] = set[i - 1];
  set[0] = tag_of(line) | static_cast<Slot>(dirty);
  return out;
}

void Cache::invalidate_range(std::uint64_t start, std::uint64_t len) {
  const std::uint64_t lb = params_.line_bytes;
  // Lines whose first byte lies in [start, start+len).
  const std::uint64_t first = (start + lb - 1) >> line_shift_;
  const std::uint64_t end = (start + len + lb - 1) >> line_shift_;
  if (first >= end) return;
  // Probing each line costs O(range / line) set lookups per SVM page
  // invalidation; ranges with at least as many lines as the tag store has
  // slots fall back to one scan of every set.
  if (end - first < slots_.size()) {
    for (std::uint64_t line = first; line < end; ++line) {
      Slot* set = set_of(line);
      const std::uint32_t w = find(set, line);
      if (w != ways_) drop(set, w);
    }
    return;
  }
  for (std::size_t s = 0; s < slots_.size(); s += ways_) {
    Slot* set = &slots_[s];
    for (std::uint32_t w = 0; w < ways_ && set[w] != 0;) {
      const std::uint64_t line = (set[w] >> 1) - 1;
      if (line >= first && line < end) {
        drop(set, w);
      } else {
        ++w;
      }
    }
  }
}

}  // namespace svmsim::memsys
