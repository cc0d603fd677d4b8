// Parameter-sweep driver used by the paper driver (bench/paper): runs an
// application suite across a list of configurations, caching the
// uniprocessor baseline per application, and computes the paper's speedup
// metrics (achievable / best / ideal).
//
// Thread-safety contract: baseline(), run_point() and run_points() may be
// called from several threads at once (the baseline cache is internally
// locked and simulations share no state). run_points() with a JobPool fans
// the points out across the pool's workers after pre-warming every distinct
// baseline, and its results are bit-identical to the serial path: each point
// owns its Machine/EventQueue and writes an insertion-ordered result slot.
// A batch simulates each distinct (app, SimConfig) once, and a point that
// throws becomes a failed slot instead of ending the batch.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "core/params.hpp"
#include "core/runner.hpp"
#include "harness/job_pool.hpp"

namespace svmsim::harness {

struct AppRun {
  std::string app;
  double param = 0.0;       ///< swept parameter value for this point
  RunResult result;
  Cycles uniprocessor = 0;  ///< baseline time for this app
  /// Why the point failed (deadlock, failed validation, a rejected config),
  /// empty when it ran. A failed run has no result: print it as a failed
  /// cell, never as a number.
  std::string error;

  [[nodiscard]] bool failed() const { return !error.empty(); }
  [[nodiscard]] double speedup() const {
    return result.time > 0
               ? static_cast<double>(uniprocessor) /
                     static_cast<double>(result.time)
               : 0.0;
  }
  /// The paper's ideal speedup: uniprocessor time over compute + local
  /// stall of the slowest processor in the parallel run.
  [[nodiscard]] double ideal_speedup() const {
    const Cycles local = result.stats.max_local_only();
    return local > 0 ? static_cast<double>(uniprocessor) /
                           static_cast<double>(local)
                     : 0.0;
  }
};

/// One simulation point of a sweep: an application at a configuration.
struct SweepPoint {
  std::string app;
  SimConfig cfg;
  double value = 0.0;  ///< recorded as AppRun::param
};

/// For each point, the index of the first point with the same app and
/// config: its own index when it is the first. run_points simulates exactly
/// the points whose entry is their own index.
[[nodiscard]] std::vector<std::size_t> first_equal(
    const std::vector<SweepPoint>& points);

class Sweep {
 public:
  explicit Sweep(apps::Scale scale) : scale_(scale) {}

  /// Uniprocessor time for `app` under `base` (cached per app+page size).
  Cycles baseline(const std::string& app, const SimConfig& base);

  /// Run one application at one configuration.
  AppRun run_point(const std::string& app, const SimConfig& cfg,
                   double param_value);

  /// Run every point, concurrently on `pool` when it has more than one
  /// worker (serially otherwise). Results are returned in point order
  /// regardless of completion order. Each distinct (app, cfg) is simulated
  /// once and copied into its duplicate slots, which keep their own param.
  /// A point whose run throws gets AppRun::error set; the rest still run,
  /// so a caller that cannot print a failed point must check failed().
  std::vector<AppRun> run_points(const std::vector<SweepPoint>& points,
                                 JobPool* pool = nullptr) {
    return run_points(points, first_equal(points), pool);
  }
  /// The same, with `first` = first_equal(points) already computed by a
  /// caller that also reports the distinct points.
  std::vector<AppRun> run_points(const std::vector<SweepPoint>& points,
                                 std::span<const std::size_t> first,
                                 JobPool* pool);

  /// Sweep `values`; `apply` writes the value into a config copy.
  std::vector<AppRun> run_sweep(
      const std::string& app, const SimConfig& base,
      const std::vector<double>& values,
      const std::function<void(SimConfig&, double)>& apply,
      JobPool* pool = nullptr);

  [[nodiscard]] apps::Scale scale() const noexcept { return scale_; }

 private:
  /// What the uniprocessor baseline actually depends on: communication
  /// parameters are irrelevant on one processor, but page size and protocol
  /// change local fault behavior.
  struct BaselineKey {
    std::string app;
    std::uint32_t page_bytes;
    Protocol protocol;
    auto operator<=>(const BaselineKey&) const = default;
  };
  static BaselineKey key_of(const std::string& app, const SimConfig& cfg) {
    return BaselineKey{app, cfg.comm.page_bytes, cfg.comm.protocol};
  }

  /// Compute-and-cache every distinct baseline `points` will need, using
  /// `pool` so baseline runs overlap; afterwards the fan-out only reads.
  void prewarm_baselines(const std::vector<SweepPoint>& points, JobPool* pool);

  apps::Scale scale_;
  std::mutex mu_;  ///< guards baselines_
  std::map<BaselineKey, Cycles> baselines_;
};

/// Max slowdown between the best and the worst speedup in a sweep, as a
/// percentage (Table 3). Negative values indicate a speedup.
[[nodiscard]] double max_slowdown_pct(std::span<const AppRun> runs);

}  // namespace svmsim::harness
