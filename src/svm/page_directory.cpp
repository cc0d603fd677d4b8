#include "svm/page_directory.hpp"

#include <cassert>

namespace svmsim::svm {

void PageDirectory::record_interval(NodeId n, std::uint32_t index,
                                    std::span<const PageId> pages) {
  auto& l = log_[static_cast<std::size_t>(n)];
  assert(index == l.ends.size() + 1 && "intervals must be recorded in order");
  (void)index;
  l.pages.insert(l.pages.end(), pages.begin(), pages.end());
  l.ends.push_back(static_cast<std::uint32_t>(l.pages.size()));
}

std::uint64_t PageDirectory::count_notices(const VClock& have,
                                           const VClock& target) const {
  std::uint64_t count = 0;
  for (NodeId n = 0; n < nodes(); ++n) {
    count += pages_between(n, have.get(n), target.get(n)).size();
  }
  return count;
}

}  // namespace svmsim::svm
