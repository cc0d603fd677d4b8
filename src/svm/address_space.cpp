#include "svm/address_space.hpp"

#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

namespace svmsim::svm {

AddressSpace::AddressSpace(int nodes, std::uint32_t page_bytes,
                           std::uint64_t max_bytes)
    : nodes_(nodes),
      page_bytes_(page_bytes),
      page_shift_(static_cast<std::uint32_t>(std::countr_zero(page_bytes))),
      max_bytes_(max_bytes) {
  assert(nodes > 0);
  assert(std::has_single_bit(page_bytes));
  copies_.resize(static_cast<std::size_t>(nodes));
}

GlobalAddr AddressSpace::alloc(std::uint64_t bytes, Distribution d) {
  const std::uint64_t pages =
      bytes / page_bytes_ + (bytes % page_bytes_ != 0 ? 1 : 0);
  if (pages > (max_bytes_ - next_) / page_bytes_) {
    throw std::length_error("shared address space: allocating " +
                            std::to_string(bytes) + " bytes at " +
                            std::to_string(next_) + " passes the " +
                            std::to_string(max_bytes_) + "-byte cap");
  }
  const GlobalAddr base = next_;
  const PageId first = base / page_bytes_;
  next_ += pages * page_bytes_;

  for (std::uint64_t i = 0; i < pages; ++i) {
    NodeId home = -1;
    switch (d.kind) {
      case Distribution::Kind::kBlock:
        home = static_cast<NodeId>(
            i * static_cast<std::uint64_t>(nodes_) / pages);
        break;
      case Distribution::Kind::kCyclic:
        home = static_cast<NodeId>((first + i) % nodes_);
        break;
      case Distribution::Kind::kFixed:
        home = d.fixed_node;
        break;
      case Distribution::Kind::kFirstTouch:
        home = -1;
        break;
    }
    homes_.push_back(home);
  }
  for (auto& per_node : copies_) {
    per_node.resize(homes_.size());
  }
  return base;
}

NodeId AddressSpace::assign_home(PageId p, NodeId toucher) {
  auto& slot = homes_[static_cast<std::size_t>(p)];
  if (slot < 0) slot = toucher;
  return slot;
}

void AddressSpace::set_home_range(GlobalAddr addr, std::uint64_t len,
                                  NodeId home) {
  assert(home >= 0 && home < nodes_);
  const PageId first = page_of(addr);
  const PageId last = page_of(addr + len - 1);
  for (PageId p = first; p <= last; ++p) {
    homes_[static_cast<std::size_t>(p)] = home;
  }
}

PageCopy& AddressSpace::allocate_copy(std::unique_ptr<PageCopy>& slot) {
  slot = std::make_unique<PageCopy>();
  slot->data.resize(page_bytes_);
  return *slot;
}

bool AddressSpace::has_copy(NodeId n, PageId p) const {
  return copies_[static_cast<std::size_t>(n)][static_cast<std::size_t>(p)] !=
         nullptr;
}

PageCopy& AddressSpace::make_home_copy(PageId p) {
  NodeId home = home_of(p);
  if (home < 0) home = assign_home(p, 0);
  PageCopy& c = copy(home, p);
  if (c.state == PageState::kUnmapped) c.state = PageState::kReadOnly;
  return c;
}

std::span<std::byte> AddressSpace::home_data(PageId p) {
  return std::span<std::byte>(make_home_copy(p).data);
}

void AddressSpace::debug_read(GlobalAddr a, void* dst, std::uint64_t bytes) {
  auto* out = static_cast<std::byte*>(dst);
  while (bytes > 0) {
    const PageId p = page_of(a);
    const std::uint32_t off = offset_of(a);
    const std::uint64_t chunk =
        std::min<std::uint64_t>(bytes, page_bytes_ - off);
    std::memcpy(out, home_data(p).data() + off, chunk);
    a += chunk;
    out += chunk;
    bytes -= chunk;
  }
}

void AddressSpace::debug_write(GlobalAddr a, const void* src,
                               std::uint64_t bytes) {
  const auto* in = static_cast<const std::byte*>(src);
  while (bytes > 0) {
    const PageId p = page_of(a);
    const std::uint32_t off = offset_of(a);
    const std::uint64_t chunk =
        std::min<std::uint64_t>(bytes, page_bytes_ - off);
    std::memcpy(home_data(p).data() + off, in, chunk);
    a += chunk;
    in += chunk;
    bytes -= chunk;
  }
}

}  // namespace svmsim::svm
