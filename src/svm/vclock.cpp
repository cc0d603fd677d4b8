#include "svm/vclock.hpp"

#include <cassert>
#include <charconv>
#include <cstring>

namespace svmsim::svm {

void VClock::recompute_max() noexcept {
  const std::uint32_t* v = data();
  std::uint32_t m = 0;
  for (int i = 0; i < size_; ++i) {
    if (v[i] > m) m = v[i];
  }
  max_ = m;
}

bool VClock::covers(const VClock& o) const {
  assert(size_ == o.size_);
  if (this == &o || o.sum_ == 0) return true;
  // Dominance implies both sum and max dominance; equal sums reduce
  // dominance to equality.
  if (sum_ < o.sum_ || max_ < o.max_) return false;
  const std::uint32_t* a = data();
  const std::uint32_t* b = o.data();
  if (sum_ == o.sum_) {
    return std::memcmp(a, b, static_cast<std::size_t>(size_) *
                                 sizeof(std::uint32_t)) == 0;
  }
  for (int i = 0; i < size_; ++i) {
    if (a[i] < b[i]) return false;
  }
  return true;
}

void VClock::merge(const VClock& o) {
  assert(size_ == o.size_);
  if (this == &o || o.sum_ == 0) return;
  const std::uint32_t* b = o.data();
  // Equal sums + equal bytes: the common "nothing new since last time" case
  // on re-acquired locks and repeated barriers.
  if (sum_ == o.sum_ &&
      std::memcmp(data(), b,
                  static_cast<std::size_t>(size_) * sizeof(std::uint32_t)) ==
          0) {
    return;
  }
  std::uint32_t* a = mut();
  for (int i = 0; i < size_; ++i) {
    if (b[i] > a[i]) {
      sum_ += b[i] - a[i];
      a[i] = b[i];
    }
  }
  if (o.max_ > max_) max_ = o.max_;
}

bool VClock::operator==(const VClock& o) const {
  if (size_ != o.size_ || sum_ != o.sum_ || max_ != o.max_) return false;
  return std::memcmp(data(), o.data(),
                     static_cast<std::size_t>(size_) *
                         sizeof(std::uint32_t)) == 0;
}

std::string VClock::to_string() const {
  // One reserve + one pass: this renders in violation reports and debug
  // paths where a 256-node clock through an ostringstream was quadratic.
  std::string out;
  out.reserve(static_cast<std::size_t>(size_) * 11 + 2);
  out += '[';
  const std::uint32_t* v = data();
  char buf[12];
  for (int i = 0; i < size_; ++i) {
    if (i) out += ' ';
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v[i]);
    (void)ec;
    out.append(buf, end);
  }
  out += ']';
  return out;
}

}  // namespace svmsim::svm
