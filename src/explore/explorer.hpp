// The schedule explorer: stateless DFS over the engine's choice tree.
//
// The engine is deterministic except where it consults the ChoiceHook
// (engine/choice.hpp): wire-band arbitration, interrupt victim selection,
// poll slip. The explorer exploits that by *re-executing from t=0* for
// every branch — no state snapshotting, no engine surgery. Each run is
// driven by a forced prefix of choices; past the prefix the hook takes the
// engine's defaults while logging, at every free decision, the full
// alternative set and the live sleep set. After the run, the driver forks
// one child per eligible alternative: the child's prefix is the parent's
// taken log up to that decision plus the alternative, and its sleep set is
// the decision's snapshot plus the default choice plus earlier siblings
// (classic sleep sets — an action already explored from this state need
// not lead the re-exploration). Deliveries to a sleeping channel's
// destination wake it, preserving soundness.
//
// The same machinery gives record/replay for free: run_schedule({}) records
// the baseline decision log; run_schedule(log) replays it byte-identically;
// any prefix the DFS produced is a valid --replay file. Determinism of the
// whole exploration (state counts, violation order) follows from the DFS
// visiting branches in decision/alternative order.
//
// See docs/exploration.md for the contract and the independence argument.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/params.hpp"
#include "core/runner.hpp"
#include "explore/config.hpp"
#include "explore/schedule.hpp"

namespace svmsim::explore {

/// One run's worth of record/replay output.
struct RunOutcome {
  RunResult result;
  Schedule schedule;  ///< full decision log (forced prefix + free defaults)
  bool error = false;          ///< run threw (deadlock / cycle budget)
  std::string error_message;
};

struct ExploreResult {
  std::uint64_t states = 0;      ///< complete runs executed
  std::uint64_t decisions = 0;   ///< hook consultations, summed over runs
  std::uint64_t branches = 0;    ///< children forked
  std::uint64_t sleep_pruned = 0;        ///< alternatives suppressed (slept)
  /// Runs cut short by sleep sets: some action in the run's free region was
  /// asleep when it executed, so the continuation only re-derives traces an
  /// earlier sibling already covered — no branches are forked past that
  /// point. (The run itself still executes to completion; the engine cannot
  /// abandon a simulation mid-flight.)
  std::uint64_t redundant = 0;
  std::uint64_t independent_pruned = 0;  ///< kDependent: different-dst skips
  std::uint64_t hb_pruned = 0;   ///< kDependent+hb_prune: causal-order skips
  std::uint64_t violations = 0;  ///< runs with oracle/validate/run failures
  std::uint64_t max_depth = 0;   ///< longest schedule seen
  bool budget_exhausted = false;
  /// Up to max_violations_kept failing schedules, in discovery order; each
  /// replays its failure byte-identically.
  std::vector<Schedule> violating;
};

/// Drives exploration of one (app, config) point. Checking should be
/// enabled if the oracle or happens-before pruning is wanted.
class Explorer {
 public:
  Explorer(std::string app, apps::Scale scale, SimConfig cfg,
           ExploreConfig xcfg);

  /// The config fingerprint embedded in schedule files for this point.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

  /// Exhaust the choice tree (subject to budgets). Deterministic: two calls
  /// on equal inputs produce identical results.
  [[nodiscard]] ExploreResult explore();

  /// Execute one run under `forced` (empty = the baseline schedule),
  /// recording the full decision log. Throws std::runtime_error if the
  /// forced choices diverge from the decisions the engine actually offers
  /// (wrong kind, unavailable alternative, or leftover forced tail).
  [[nodiscard]] RunOutcome run_schedule(const Schedule& forced);

  struct RunLog;  // explorer.cpp internal; public so the hook can see it

 private:
  RunOutcome run_internal(const Schedule& forced,
                          const std::vector<std::uint64_t>& sleep,
                          RunLog* log, ExploreResult* tally);

  std::string app_;
  apps::Scale scale_;
  SimConfig cfg_;
  ExploreConfig xcfg_;
  std::uint64_t fingerprint_;
};

/// The fingerprint binding a schedule file to its (app, machine) point:
/// fnv1a over the app name and every parameter that shapes the decision
/// stream. Exposed so bench/explore can diagnose fingerprint mismatches.
[[nodiscard]] std::uint64_t config_fingerprint(const std::string& app,
                                               const SimConfig& cfg);

}  // namespace svmsim::explore
