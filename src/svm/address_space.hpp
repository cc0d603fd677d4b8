// The shared virtual address space: page-grained allocation with explicit
// home placement, plus per-node page copies that hold *real bytes*.
//
// Apps allocate shared regions with a distribution policy (SPLASH-2 codes
// place data explicitly or rely on first-touch; we support both). Each node
// keeps its own copy of the pages it has mapped; the home copy is the
// authoritative version under HLRC/AURC.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/pool.hpp"
#include "engine/types.hpp"
#include "svm/diff.hpp"

namespace svmsim::svm {

using GlobalAddr = std::uint64_t;

enum class PageState : std::uint8_t {
  kUnmapped,   ///< never fetched by this node
  kInvalid,    ///< invalidated by a write notice; data stale
  kReadOnly,   ///< valid copy; first write will fault (write detection)
  kReadWrite,  ///< valid, being written this interval (twin exists off-home)
};

// Transient protocol state (in-flight fetch/flush markers, the propagate
// dedup stamp) lives in dense per-agent tables (SvmAgent), not here: the hot
// paths that scan many pages per operation walk structure-of-arrays tables
// sized once per run instead of striding through these fat records.
struct PageCopy {
  PageState state = PageState::kUnmapped;
  std::vector<std::byte> data;
  core::PoolRef<core::PooledBytes> twin;  ///< HLRC write twin (pooled)
  bool dirty = false;       ///< written since the last flush
  bool au_active = false;   ///< AURC: stores stream automatic updates
  std::uint32_t inval_gen = 0;  ///< bumped on every invalidation (see fetch)
};

/// Home placement policy for an allocation.
struct Distribution {
  enum class Kind {
    kBlock,       ///< contiguous pages split evenly across nodes
    kCyclic,      ///< pages round-robin across nodes
    kFixed,       ///< all pages homed at `fixed_node`
    kFirstTouch,  ///< home assigned to the first node that touches the page
  };
  Kind kind = Kind::kBlock;
  NodeId fixed_node = 0;

  static Distribution block() { return {Kind::kBlock, 0}; }
  static Distribution cyclic() { return {Kind::kCyclic, 0}; }
  static Distribution fixed(NodeId n) { return {Kind::kFixed, n}; }
  static Distribution first_touch() { return {Kind::kFirstTouch, 0}; }
};

class AddressSpace {
 public:
  /// `page_bytes` must be a nonzero power of two (a Machine rejects other
  /// configs up front). Allocations may not end past `max_bytes`; a Machine
  /// passes the tag reach of its caches (memsys::Cache::tag_reach), since an
  /// address past it would alias a resident line.
  AddressSpace(int nodes, std::uint32_t page_bytes,
               std::uint64_t max_bytes = ~std::uint64_t{0});

  /// Allocate `bytes` of shared memory (rounded up to whole pages). Throws
  /// std::length_error when the allocation would end past max_bytes().
  GlobalAddr alloc(std::uint64_t bytes, Distribution d);

  [[nodiscard]] std::uint32_t page_bytes() const noexcept {
    return page_bytes_;
  }
  [[nodiscard]] int nodes() const noexcept { return nodes_; }
  [[nodiscard]] std::uint64_t max_bytes() const noexcept { return max_bytes_; }
  [[nodiscard]] PageId page_of(GlobalAddr a) const noexcept {
    return a >> page_shift_;
  }
  [[nodiscard]] std::uint32_t offset_of(GlobalAddr a) const noexcept {
    return static_cast<std::uint32_t>(a & (page_bytes_ - 1));
  }
  [[nodiscard]] std::uint64_t page_count() const noexcept {
    return homes_.size();
  }

  /// Home of a page; -1 while a first-touch page is untouched.
  [[nodiscard]] NodeId home_of(PageId p) const {
    return homes_[static_cast<std::size_t>(p)];
  }
  /// Resolve a first-touch page: the toucher becomes the home.
  NodeId assign_home(PageId p, NodeId toucher);

  /// Explicit home placement for [addr, addr+len), used by applications that
  /// place data precisely (e.g. LU's block-major layout). Must be called
  /// before the page is touched.
  void set_home_range(GlobalAddr addr, std::uint64_t len, NodeId home);

  /// This node's copy of page `p` (created on demand, unmapped).
  PageCopy& copy(NodeId n, PageId p) {
    auto& slot =
        copies_[static_cast<std::size_t>(n)][static_cast<std::size_t>(p)];
    return slot ? *slot : allocate_copy(slot);
  }
  [[nodiscard]] bool has_copy(NodeId n, PageId p) const;

  /// A recycled twin buffer holding a copy of `data` (HLRC write detection).
  [[nodiscard]] core::PoolRef<core::PooledBytes> acquire_twin(
      std::span<const std::byte> data) {
    auto t = twin_pool_.acquire();
    t->bytes.assign(data.begin(), data.end());
    return t;
  }

  /// The authoritative home-copy data (creating it if untouched).
  std::span<std::byte> home_data(PageId p);

  /// Out-of-band accessors used for application initialization and result
  /// validation; they bypass the protocol and touch home copies directly.
  void debug_read(GlobalAddr a, void* dst, std::uint64_t bytes);
  void debug_write(GlobalAddr a, const void* src, std::uint64_t bytes);

 private:
  PageCopy& make_home_copy(PageId p);
  /// Create the unmapped copy an empty copy() slot stands for.
  PageCopy& allocate_copy(std::unique_ptr<PageCopy>& slot);

  int nodes_;
  std::uint32_t page_bytes_;
  std::uint32_t page_shift_;  ///< log2(page_bytes_)
  std::uint64_t max_bytes_;
  GlobalAddr next_ = 0;
  std::vector<NodeId> homes_;  // per page; -1 = first-touch pending
  // Twin pool is declared before copies_: PageCopy::twin refs must die first.
  core::ObjectPool<core::PooledBytes> twin_pool_;
  // copies_[node][page]; slots allocated lazily.
  std::vector<std::vector<std::unique_ptr<PageCopy>>> copies_;
};

}  // namespace svmsim::svm
