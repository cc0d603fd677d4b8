#include "trace/analyze.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

namespace svmsim::trace {

namespace {

std::vector<HotEntry> top_n(const std::unordered_map<std::uint64_t,
                                                     std::uint64_t>& counts,
                            std::size_t n) {
  std::vector<HotEntry> v;
  v.reserve(counts.size());
  for (const auto& [id, count] : counts) v.push_back({count, id});
  // Deterministic order: count descending, then id ascending.
  std::sort(v.begin(), v.end(), [](const HotEntry& a, const HotEntry& b) {
    return a.count != b.count ? a.count > b.count : a.id < b.id;
  });
  if (v.size() > n) v.resize(n);
  return v;
}

/// Whether a trace recorded under `mask` holds the events that feed
/// counter `i`.
bool counter_recorded(std::uint32_t mask, int i) {
  const Category c = kCounterCategories[static_cast<std::size_t>(i)];
  return (mask & category_bit(c)) != 0;
}

}  // namespace

Analysis analyze(const TraceFile& f, std::size_t top) {
  Analysis a;
  a.recomputed = Stats(f.procs);
  Counters& c = a.recomputed.counters();
  std::unordered_map<std::uint64_t, std::uint64_t> page_events;
  std::unordered_map<std::uint64_t, std::uint64_t> lock_events;

  for (const Record& r : f.records) {
    if (r.cat < kCategories) {
      ++a.records_per_category[r.cat];
    }
    const auto ev = static_cast<Event>(r.event);
    count(c, ev, r.a0, r.a1);
    switch (ev) {
      case Event::kWriteNotices:  // a0 is a notice count, not a page
      case Event::kBarrierEnter:  // a0 is an arrival index, not a lock
      case Event::kBarrierExit:
        break;
      case Event::kUpdateSend:
        if (r.a0 != ~0ull) ++page_events[r.a0];
        break;
      case Event::kTimeSpan:
        if (r.proc >= 0 && r.proc < f.procs &&
            r.a1 < static_cast<std::uint64_t>(kTimeCats)) {
          a.recomputed.proc(r.proc).t[r.a1] += r.a0;
        }
        break;
      default:
        if (category_of(ev) == Category::kPage) ++page_events[r.a0];
        if (category_of(ev) == Category::kLock) ++lock_events[r.a0];
        break;
    }
  }

  a.hot_pages = top_n(page_events, top);
  a.hot_locks = top_n(lock_events, top);
  return a;
}

std::vector<std::string> check(const TraceFile& f) {
  const Analysis a = analyze(f, 0);
  std::vector<std::string> mismatches;

  const auto expect = counters_to_array(f.stats.counters());
  const auto got = counters_to_array(a.recomputed.counters());
  for (int i = 0; i < kCounterCount; ++i) {
    if (!counter_recorded(f.mask, i)) continue;
    if (expect[i] != got[i]) {
      std::ostringstream os;
      os << "counter " << counter_name(i) << ": stats=" << expect[i]
         << " trace=" << got[i];
      mismatches.push_back(os.str());
    }
  }

  if ((f.mask & category_bit(Category::kSched)) != 0) {
    for (int p = 0; p < f.procs; ++p) {
      for (int cat = 0; cat < kTimeCats; ++cat) {
        const Cycles expect_t = f.stats.proc(p).t[static_cast<std::size_t>(cat)];
        const Cycles got_t =
            a.recomputed.proc(p).t[static_cast<std::size_t>(cat)];
        if (expect_t != got_t) {
          std::ostringstream os;
          os << "proc " << p << " " << svmsim::to_string(TimeCat(cat))
             << ": stats=" << expect_t << " trace=" << got_t;
          mismatches.push_back(os.str());
        }
      }
    }
  }
  return mismatches;
}

std::string report(const TraceFile& f, const Analysis& a) {
  std::ostringstream os;
  os << "trace: " << f.records.size() << " records, " << f.procs
     << " procs / " << f.nodes << " nodes, end time " << f.end_time
     << ", categories " << mask_to_string(f.mask) << "\n";
  os << "build: " << f.provenance << "\n";

  os << "records per category:";
  for (int i = 0; i < kCategories; ++i) {
    os << " " << to_string(static_cast<Category>(i)) << "="
       << a.records_per_category[static_cast<std::size_t>(i)];
  }
  os << "\n";

  if (f.mask & category_bit(Category::kSched)) {
    os << "per-category time (cycles, all processors):\n";
    const Breakdown agg = a.recomputed.aggregate();
    for (int cat = 0; cat < kTimeCats; ++cat) {
      os << "  " << svmsim::to_string(TimeCat(cat)) << ": "
         << agg.t[static_cast<std::size_t>(cat)] << "\n";
    }
  }

  const auto counters = counters_to_array(a.recomputed.counters());
  os << "counters (recomputed from records):\n";
  for (int i = 0; i < kCounterCount; ++i) {
    if (!counter_recorded(f.mask, i)) continue;
    os << "  " << counter_name(i) << ": " << counters[i] << "\n";
  }

  os << "hottest pages (protocol events):";
  for (const auto& h : a.hot_pages) os << " " << h.id << "(" << h.count << ")";
  os << "\nhottest locks (protocol events):";
  for (const auto& h : a.hot_locks) os << " " << h.id << "(" << h.count << ")";
  os << "\n";
  return os.str();
}

}  // namespace svmsim::trace
