// Set-associative cache tag store (timing only — data lives in the SVM
// address space). Used for both the write-through L1 and write-back L2.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "engine/types.hpp"

namespace svmsim::memsys {

/// Tag layout: each way is one 4-byte slot, 0 when invalid and otherwise
/// `((line >> log2(sets)) + 1) << 1 | dirty` with
/// `line = line_addr >> log2(line_bytes)`; the set index is the slot's
/// position, so it is not stored. The ways of a set are kept in recency order
/// (way 0 most recent, valid ways first), so the LRU victim is always the
/// last way. A bitmap of resident lines (bit `line % 64` of word
/// `line / 64`) lets invalidate_range visit only the lines that are cached.
class Cache {
 public:
  /// Throws std::invalid_argument unless `p` passes CacheParams::validate()
  /// (power-of-two line size and set count).
  explicit Cache(const CacheParams& p);

  /// Bytes of address space the 31-bit set-relative tags of a cache with
  /// geometry `p` (which must pass validate()) can name: every line address
  /// below it has a distinct tag, and addresses at or past it must never
  /// reach the cache.
  [[nodiscard]] static std::uint64_t tag_reach(const CacheParams& p);

  /// Probe for `line_addr` (byte address of the line start). On hit, updates
  /// LRU and optionally marks the line dirty.
  bool lookup(std::uint64_t line_addr, bool mark_dirty = false) {
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

  /// Probe without disturbing LRU/dirty state.
  [[nodiscard]] bool contains(std::uint64_t line_addr) const {
    const std::uint64_t line = line_addr >> line_shift_;
    return find(set_of(line), line) != ways_;
  }

  struct Victim {
    bool evicted = false;           // a valid line was displaced
    bool dirty = false;             // ... and it needs a writeback
    std::uint64_t line_addr = 0;
  };

  /// Install `line_addr`, which must not be resident, evicting the LRU way.
  /// Returns the victim.
  Victim fill(std::uint64_t line_addr, bool dirty) {
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

  /// Drop every resident line whose first byte lies in [start, start+len)
  /// (the sum saturates, so a range may run to the end of the address
  /// space). Used when the SVM layer invalidates or replaces a page: stale
  /// cached lines must not hit. A line that starts before `start` stays
  /// resident even when the range covers the rest of it, so a range that
  /// begins mid-line leaves that line cached.
  void invalidate_range(std::uint64_t start, std::uint64_t len);

  [[nodiscard]] std::uint32_t line_bytes() const noexcept {
    return params_.line_bytes;
  }
  /// log2(line_bytes()): line_addr >> line_shift() is the line number.
  [[nodiscard]] std::uint32_t line_shift() const noexcept {
    return line_shift_;
  }
  [[nodiscard]] Cycles hit_cycles() const noexcept {
    return params_.hit_cycles;
  }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint32_t sets() const noexcept { return sets_; }

 private:
  using Slot = std::uint32_t;

  /// Set-relative tags `(line >> set_shift) + 1` take the values 1 ..
  /// kTagValues, so that shifted left past the dirty bit they fit a Slot.
  static constexpr std::uint64_t kTagValues = (std::uint64_t{1} << 31) - 1;

  static constexpr std::uint64_t bit_of(std::uint64_t line) noexcept {
    return std::uint64_t{1} << (line & 63);
  }
  [[nodiscard]] Slot tag_of(std::uint64_t line) const noexcept {
    assert((line >> set_shift_) < kTagValues && "line beyond the tag reach");
    return static_cast<Slot>(((line >> set_shift_) + 1) << 1);
  }
  [[nodiscard]] Slot* set_of(std::uint64_t line) noexcept {
    return &slots_[(line & set_mask_) * ways_];
  }
  [[nodiscard]] const Slot* set_of(std::uint64_t line) const noexcept {
    return &slots_[(line & set_mask_) * ways_];
  }
  /// Way holding `line` in its set, or ways_ when it is not resident.
  [[nodiscard]] std::uint32_t find(const Slot* set,
                                   std::uint64_t line) const noexcept {
    const Slot tag = tag_of(line);
    std::uint32_t w = 0;
    for (; w < ways_ && set[w] != 0; ++w) {
      if ((set[w] & ~Slot{1}) == tag) return w;
    }
    return ways_;
  }
  /// Remove resident `line`, closing the gap so the valid ways stay a prefix.
  void drop(std::uint64_t line) noexcept;

  CacheParams params_;
  std::uint32_t ways_ = 0;
  std::uint32_t sets_ = 0;
  std::uint32_t line_shift_ = 0;
  std::uint32_t set_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  std::vector<Slot> slots_;  // sets_ x ways_, row-major by set
  /// Bit `line & 63` of word `line >> 6` is set exactly while `line` is
  /// resident. fill() grows it to the highest line ever filled.
  std::vector<std::uint64_t> resident_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace svmsim::memsys
