#include "topo/spec.hpp"

#include <charconv>
#include <sstream>

namespace svmsim::topo {

namespace {

/// Strict positive-integer parse of the whole of `text` (no sign, no
/// whitespace, no trailing junk). Returns -1 on failure.
int parse_pos_int(std::string_view text) {
  int v = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last || v <= 0) return -1;
  return v;
}

}  // namespace

std::optional<Spec> Spec::parse(std::string_view text) {
  Spec s;
  // "crossbar" names the paper's contention-free network, which is the
  // legacy (default) spec.
  if (text == "legacy" || text == "crossbar") return s;
  if (text.starts_with("fattree:")) {
    const int k = parse_pos_int(text.substr(8));
    // Arity must be even (k/2 up-ports per switch) and small enough that
    // the full k-ary tree's link table stays sane; 64 hosts 65536 nodes,
    // far past the bench ceiling.
    if (k < 2 || k > 64 || k % 2 != 0) return std::nullopt;
    s.kind = Kind::kFatTree;
    s.fat_k = k;
    return s;
  }
  if (text.starts_with("torus:")) {
    std::string_view rest = text.substr(6);
    int n = 0;
    while (!rest.empty()) {
      if (n == 3) return std::nullopt;  // more than three dimensions
      const std::size_t x = rest.find('x');
      const std::string_view tok =
          x == std::string_view::npos ? rest : rest.substr(0, x);
      const int d = parse_pos_int(tok);
      if (d < 1 || d > 16384) return std::nullopt;
      s.dims[static_cast<std::size_t>(n++)] = d;
      if (x == std::string_view::npos) break;
      rest = rest.substr(x + 1);
      if (rest.empty()) return std::nullopt;  // trailing 'x'
    }
    if (n < 2) return std::nullopt;  // a 1D "torus" is a spec typo
    if (n == 2) s.dims[2] = 1;
    s.kind = Kind::kTorus;
    return s;
  }
  return std::nullopt;
}

std::string Spec::to_string() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kLegacy:
      os << "legacy";
      break;
    case Kind::kFatTree:
      os << "fattree:" << fat_k;
      break;
    case Kind::kTorus:
      os << "torus:" << dims[0] << "x" << dims[1];
      if (dims[2] > 1) os << "x" << dims[2];
      break;
  }
  return os.str();
}

}  // namespace svmsim::topo
