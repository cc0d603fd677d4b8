// Trace analysis: rebuild the run's statistics from the records and
// cross-check them against the core::Stats embedded in the trace. Counters
// are rebuilt by re-applying the probe projection (trace::count) to the
// records, so they agree by construction whenever every probe recorded what
// it counted; the check guards exactly that, plus the file format and the
// Breakdown mirror (kTimeSpan). Used by bench/trace_analyze and
// tests/test_trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace svmsim::trace {

/// One hot entity: (event count over the trace, page or lock id).
struct HotEntry {
  std::uint64_t count = 0;
  std::uint64_t id = 0;
};

struct Analysis {
  Stats recomputed{0};  ///< counters + breakdowns rebuilt from records only
  std::array<std::uint64_t, static_cast<std::size_t>(kCategories)>
      records_per_category{};
  std::vector<HotEntry> hot_pages;  ///< by protocol-event count, descending
  std::vector<HotEntry> hot_locks;
};

/// Scan `f.records` once and rebuild the run's statistics. `top_n` bounds
/// the hottest-pages/locks lists.
[[nodiscard]] Analysis analyze(const TraceFile& f, std::size_t top_n = 10);

/// Compare the recomputed statistics against the Stats embedded in the
/// trace. Counters (and breakdowns) whose category was masked out of the
/// trace are skipped. Returns one human-readable line per mismatch; empty
/// means the trace reproduces core::Stats exactly.
[[nodiscard]] std::vector<std::string> check(const TraceFile& f);

/// Render the analysis as printable text (breakdown table, counters,
/// hottest pages/locks).
[[nodiscard]] std::string report(const TraceFile& f, const Analysis& a);

}  // namespace svmsim::trace
