// The paper's tables and figures as data for the one paper driver
// (bench/paper.cpp): each figure is a pair of its points, built through
// PointBuilder, and its printer, which reads the figure's runs in point
// order. A failed run prints as a FAIL cell, and so does every slowdown or
// relation cell derived from it.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace svmsim::bench {

/// One table or figure of the paper.
struct Figure {
  std::string name;  ///< e.g. "fig05_host_overhead"; the paper CLI name
  std::function<void(PointBuilder&)> points;
  /// Print the figure's tables (and CSVs) from its runs, in point order.
  std::function<void(std::span<const harness::AppRun>, const Options&)> print;
};

/// Every figure, in the order `paper` prints them when given no name.
[[nodiscard]] const std::vector<Figure>& figures();

/// The figures `names` selects, in the given order; every figure when
/// `names` is empty. An unknown name prints the valid names and exits 2.
[[nodiscard]] std::vector<const Figure*> select_figures(
    const std::vector<std::string>& names, const std::string& prog);

/// The figure's points under `opt`.
[[nodiscard]] std::vector<harness::SweepPoint> figure_points(
    const Figure& figure, const Options& opt);

}  // namespace svmsim::bench
