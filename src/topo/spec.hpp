// Topology selection spec — the parsed form of the --topology CLI flag.
//
// Standalone (no dependency on the Topology interface) so core/params.hpp
// can embed a Spec in SimConfig without pulling in the engine headers.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace svmsim::topo {

enum class Kind : std::uint8_t {
  kLegacy = 0,  ///< the paper's contention-free crossbar (no backend)
  kFatTree,     ///< k-ary fat tree, contended up/down links
  kTorus,       ///< 2D/3D torus, dimension-order routing, contended rings
};

/// Which interconnect a run simulates. kLegacy (the default) is the paper's
/// contention-free crossbar, parsed from "legacy" or "crossbar" and printed
/// as "legacy"; fat tree and torus add link-level contention
/// (docs/topology.md).
struct Spec {
  Kind kind = Kind::kLegacy;
  int fat_k = 0;                   ///< fat tree arity; even, in [2, 64]
  std::array<int, 3> dims{0, 0, 0};  ///< torus extents; dims[2] == 1 for 2D

  /// Parse "legacy", "crossbar", "fattree:<k>" or "torus:<X>x<Y>[x<Z>]".
  /// Rejects malformed specs (odd k, zero/negative dims, trailing junk)
  /// with nullopt; whether the spec fits a node count is checked separately
  /// (topo::fits) because the cluster size is a different flag.
  [[nodiscard]] static std::optional<Spec> parse(std::string_view text);

  [[nodiscard]] std::string to_string() const;

  bool operator==(const Spec&) const = default;
};

}  // namespace svmsim::topo
