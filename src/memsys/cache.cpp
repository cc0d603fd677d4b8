#include "memsys/cache.hpp"

#include <algorithm>
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

void Cache::drop(std::uint64_t line) noexcept {
  Slot* set = set_of(line);
  std::uint32_t w = find(set, line);
  assert(w != ways_ && "drop of a line that is not resident");
  for (; w + 1 < ways_; ++w) set[w] = set[w + 1];
  set[ways_ - 1] = 0;
  resident_[line >> 6] &= ~bit_of(line);
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
