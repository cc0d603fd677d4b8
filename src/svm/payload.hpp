// Typed, pooled message payloads.
//
// net::Message used to carry its body in a std::any, which meant one heap
// allocation per send plus RTTI-based casts per receive. The protocol layer
// only ever ships three body shapes — a vector clock, a byte buffer (page
// data / AURC update runs), and a batch of page diffs — so the body is now a
// closed variant of pool references (core/pool.hpp). Building a message
// acquires a recycled body from the owning Machine's ProtocolPools, and the
// last reference (usually the receive handler finishing) sends it back.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <variant>
#include <vector>

#include "core/pool.hpp"
#include "svm/diff.hpp"
#include "svm/vclock.hpp"

namespace svmsim::svm {

/// A pooled vector clock (lock requests and grants, barrier arrivals and
/// releases), always the full clock (docs/scaling.md §2). Immutable once
/// sent: the sender copies its clock in, and every holder of the reference
/// (one barrier release body goes to all arrivers) only reads it.
struct VClockBody {
  VClock vc;
  void recycle() noexcept {}  // overwritten by assignment on next use
};

/// A pooled batch of page diffs flushed to one home node. The `diffs`
/// vector only ever grows; `used` marks the live prefix so recycled batches
/// reuse both the vector and each PageDiff's run/data capacity.
struct DiffBatchBody {
  std::vector<PageDiff> diffs;
  std::size_t used = 0;

  /// Next writable diff slot (cleared, capacity intact).
  [[nodiscard]] PageDiff& next() {
    if (used == diffs.size()) diffs.emplace_back();
    PageDiff& d = diffs[used++];
    d.clear();
    return d;
  }
  /// Drop the most recently handed-out slot (e.g. the diff came up empty).
  void pop_last() noexcept {
    assert(used > 0);
    --used;
  }

  [[nodiscard]] std::span<const PageDiff> view() const noexcept {
    return {diffs.data(), used};
  }
  [[nodiscard]] bool empty() const noexcept { return used == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return used; }

  void recycle() noexcept {
    for (std::size_t i = 0; i < used; ++i) diffs[i].clear();
    used = 0;
  }
};

using VClockRef = core::PoolRef<VClockBody>;
using BytesRef = core::PoolRef<core::PooledBytes>;
using DiffBatchRef = core::PoolRef<DiffBatchBody>;

/// The closed set of protocol message bodies.
using Payload = std::variant<std::monostate, VClockRef, BytesRef, DiffBatchRef>;

[[nodiscard]] inline const VClock& vclock_body(const Payload& p) {
  return std::get<VClockRef>(p)->vc;
}
[[nodiscard]] inline const std::vector<std::byte>& bytes_body(
    const Payload& p) {
  return std::get<BytesRef>(p)->bytes;
}
[[nodiscard]] inline const DiffBatchBody& diff_batch_body(const Payload& p) {
  return *std::get<DiffBatchRef>(p);
}

}  // namespace svmsim::svm
