// Consistency-checker configuration: the runtime gate for the shadow oracle.
//
// Kept free of any checker machinery so core/params.hpp can embed a Config
// in SimConfig without pulling the whole check subsystem into every
// translation unit (the same layering as src/trace/config.hpp). See
// src/check/checker.hpp for the oracle itself and docs/checking.md for the
// user-facing story.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace svmsim::check {

/// Fault-injection classes used to verify the checker itself (the mutation
/// smoke tests): each one plants a specific protocol bug, and the suite
/// asserts the checker catches every class. Selected via the
/// SVMSIM_CHECK_MUTATION environment variable; only honoured when the
/// checker is enabled for the run.
enum class Mutation : std::uint8_t {
  kNone = 0,
  kStaleRead,      ///< refetches of an invalidated page keep the stale bytes
  kLostDiff,       ///< drop one diff per release flush (HLRC) / every
                   ///< automatic-update run (AURC)
  kSkippedNotice,  ///< drop the last page from every invalidation batch
  /// Schedule-dependent: like kSkippedNotice, but the drop only triggers
  /// after some NI has observed two same-cycle arrivals in descending
  /// source order — an order the baseline (time, key)-sorted wire band can
  /// never produce, so single-seed runs are provably clean and only the
  /// schedule explorer (src/explore/) can surface the bug. The mutation-kill
  /// matrix uses it to prove the explorer adds coverage, not just runs.
  kReorderSensitiveNotice,
};

[[nodiscard]] std::string_view to_string(Mutation m) noexcept;

/// Parse a SVMSIM_CHECK_MUTATION value ("", "none", "stale_read",
/// "lost_diff", "skipped_notice", "reorder_sensitive_notice"). Returns
/// nullopt on an unknown name.
[[nodiscard]] std::optional<Mutation> parse_mutation(std::string_view name);

/// Per-run checker settings, carried inside SimConfig. The checker never
/// affects simulated time: two runs differing only in Config produce
/// identical RunResults.
struct Config {
  bool enabled = false;  ///< create a Checker for this run

  /// When a run with an (in-memory or file) tracer detects a violation, the
  /// runner additionally dumps the captured SVMTRACE here so the failure can
  /// be replayed through tools/trace2chrome. Empty = no violation dump.
  std::string trace_path;

  bool operator==(const Config&) const = default;
};

}  // namespace svmsim::check
