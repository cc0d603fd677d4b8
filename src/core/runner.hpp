// Workload interface and the single-run driver.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/machine.hpp"
#include "core/params.hpp"
#include "core/stats.hpp"
#include "engine/task.hpp"

namespace svmsim::engine {
class ChoiceHook;
}  // namespace svmsim::engine

namespace svmsim {

/// A parallel program to run on the simulated cluster. Implemented by every
/// application in src/apps.
class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Allocate shared data and initialize home copies (untimed, like the
  /// initialization phase excluded from SPLASH-2 measurements).
  virtual void setup(Machine& m) = 0;

  /// Per-processor program body. A final global barrier is appended by the
  /// runner, so the last user-level barrier may be omitted.
  virtual engine::Task<void> body(Machine& m, ProcId pid) = 0;

  /// Check the computed results by reading home copies; true if correct.
  virtual bool validate(Machine& m) = 0;
};

struct RunResult {
  Cycles time = 0;     ///< parallel execution time (last processor finish)
  Stats stats{0};
  std::uint64_t events = 0;  ///< discrete events fired by the simulation
  bool validated = false;
  /// Consistency violations found by the shadow oracle; always 0 unless the
  /// run had cfg.check.enabled.
  std::uint64_t check_violations = 0;
  /// PDES mode (cfg.par_cores > 1): conservative windows executed. Serial
  /// runs execute zero windows.
  std::uint64_t windows = 0;

  /// Per-processor rate of `events` per million compute cycles, averaged
  /// over processors — the normalization used by Table 2 / Figures 3-4.
  [[nodiscard]] double per_proc_per_mcycles(std::uint64_t events) const;
};

/// Run `w` on a machine configured by `cfg`. Throws if the simulation
/// deadlocks or exceeds `max_cycles`. A non-null `hook` installs a
/// schedule-choice hook (engine/choice.hpp) on the machine's simulator —
/// explorer mode, serial only: with cfg.par_cores > 1 the run throws
/// std::invalid_argument (arbitrated schedules are alternative histories,
/// which the PDES byte-identity contract cannot cover).
RunResult run(Workload& w, const SimConfig& cfg,
              Cycles max_cycles = Cycles{1} << 42,
              engine::ChoiceHook* hook = nullptr);

/// Convenience: the uniprocessor baseline configuration for `cfg`.
[[nodiscard]] SimConfig uniprocessor_config(const SimConfig& cfg);

}  // namespace svmsim
