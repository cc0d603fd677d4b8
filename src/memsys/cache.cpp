#include "memsys/cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace svmsim::memsys {

namespace {

/// Set-relative tags `(line >> set_shift) + 1` take the values 1 ..
/// kTagValues, so that shifted left past the dirty bit they fit a Slot.
constexpr std::uint64_t kTagValues = (std::uint64_t{1} << 31) - 1;

constexpr std::uint64_t bit_of(std::uint64_t line) noexcept {
  return std::uint64_t{1} << (line & 63);
}

}  // namespace

Cache::Cache(const CacheParams& p) : params_(p) {
  if (const std::string err = p.validate(); !err.empty()) {
    throw std::invalid_argument("cache: " + err);
  }
  ways_ = p.associativity;
  sets_ = p.size_bytes / (p.line_bytes * p.associativity);
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(p.line_bytes));
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(sets_));
  set_mask_ = sets_ - 1;
  slots_.assign(static_cast<std::size_t>(sets_) * ways_, 0);
}

std::uint64_t Cache::tag_reach(const CacheParams& p) {
  const std::uint32_t sets = p.size_bytes / (p.line_bytes * p.associativity);
  const int shift = std::countr_zero(sets) + std::countr_zero(p.line_bytes);
  // kTagValues has 31 bits; past a 33-bit shift the reach exceeds 2^64.
  return shift > 33 ? ~std::uint64_t{0} : kTagValues << shift;
}

Cache::Slot Cache::tag_of(std::uint64_t line) const noexcept {
  assert((line >> set_shift_) < kTagValues && "line beyond the tag reach");
  return static_cast<Slot>(((line >> set_shift_) + 1) << 1);
}

std::uint32_t Cache::find(const Slot* set, std::uint64_t line) const noexcept {
  const Slot tag = tag_of(line);
  std::uint32_t w = 0;
  for (; w < ways_ && set[w] != 0; ++w) {
    if ((set[w] & ~Slot{1}) == tag) return w;
  }
  return ways_;
}

void Cache::drop(std::uint64_t line) noexcept {
  Slot* set = set_of(line);
  std::uint32_t w = find(set, line);
  assert(w != ways_ && "drop of a line that is not resident");
  for (; w + 1 < ways_; ++w) set[w] = set[w + 1];
  set[ways_ - 1] = 0;
  resident_[line >> 6] &= ~bit_of(line);
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
    const std::uint64_t victim =
        ((std::uint64_t{last >> 1} - 1) << set_shift_) | (line & set_mask_);
    out.evicted = true;
    out.dirty = (last & 1) != 0;
    out.line_addr = victim << line_shift_;
    resident_[victim >> 6] &= ~bit_of(victim);
  }
  for (std::uint32_t i = ways_ - 1; i > 0; --i) set[i] = set[i - 1];
  set[0] = tag_of(line) | static_cast<Slot>(dirty);
  // A fill is the only way a line above every resident one appears.
  if ((line >> 6) >= resident_.size()) resident_.resize((line >> 6) + 1);
  resident_[line >> 6] |= bit_of(line);
  return out;
}

void Cache::invalidate_range(std::uint64_t start, std::uint64_t len) {
  // Lines whose first byte lies in [start, stop) are [ceil(start / lb),
  // ceil(stop / lb)); stop saturates instead of wrapping. Lines above the
  // index were never filled, so the range is clipped to it.
  const std::uint64_t stop = len > ~start ? ~std::uint64_t{0} : start + len;
  const std::uint64_t offset_mask = params_.line_bytes - 1;
  const auto ceil_line = [&](std::uint64_t a) {
    return (a >> line_shift_) + ((a & offset_mask) != 0);
  };
  const std::uint64_t first = ceil_line(start);
  const std::uint64_t end =
      std::min<std::uint64_t>(ceil_line(stop), resident_.size() * 64);
  if (first >= end) return;
  const std::uint64_t first_word = first >> 6;
  const std::uint64_t last_word = (end - 1) >> 6;
  for (std::uint64_t w = first_word; w <= last_word; ++w) {
    std::uint64_t bits = resident_[w];
    if (w == first_word) bits &= ~std::uint64_t{0} << (first & 63);
    if (w == last_word) bits &= ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
    for (; bits != 0; bits &= bits - 1) {
      drop(w << 6 | static_cast<std::uint64_t>(std::countr_zero(bits)));
    }
  }
}

}  // namespace svmsim::memsys
