// Trace subsystem tests: record/file roundtrip, category masks, the
// determinism contract (tracing never perturbs the simulation), the
// Stats-reproduction oracle (trace::check), and the Chrome JSON exporter
// (structurally valid JSON, per-track monotonic timestamps).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "common.hpp"
#include "trace/analyze.hpp"
#include "trace/chrome.hpp"
#include "trace/trace.hpp"

namespace {

using namespace svmsim;
using test::config_with;

/// Temp file that cleans up after itself (tests run in the build tree).
struct TempFile {
  std::string path;
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
};

RunResult run_fft(const trace::Config& tc,
                  InterruptScheme irq = InterruptScheme::kFixedProcessor) {
  SimConfig cfg = config_with(8, 2);
  cfg.comm.interrupt_scheme = irq;
  cfg.trace = tc;
  auto app = apps::make_app("fft", apps::Scale::kTiny);
  return svmsim::run(*app, cfg);
}

TEST(TraceConfig, ParseMask) {
  EXPECT_EQ(trace::parse_mask(""), trace::kAllCategories);
  EXPECT_EQ(trace::parse_mask("all"), trace::kAllCategories);
  EXPECT_EQ(trace::parse_mask("page"),
            trace::category_bit(trace::Category::kPage));
  EXPECT_EQ(trace::parse_mask("page,net"),
            trace::category_bit(trace::Category::kPage) |
                trace::category_bit(trace::Category::kNet));
  EXPECT_EQ(trace::parse_mask("sched,irq,lock"),
            trace::category_bit(trace::Category::kSched) |
                trace::category_bit(trace::Category::kIrq) |
                trace::category_bit(trace::Category::kLock));
  EXPECT_FALSE(trace::parse_mask("bogus").has_value());
  EXPECT_FALSE(trace::parse_mask("page,bogus").has_value());
}

TEST(TraceConfig, MaskToStringRoundtrip) {
  for (std::uint32_t mask = 1; mask <= trace::kAllCategories; ++mask) {
    const std::string s = trace::mask_to_string(mask);
    EXPECT_EQ(trace::parse_mask(s), mask) << "mask " << mask << " -> " << s;
  }
}

TEST(TraceFileFormat, RecordRoundtrip) {
  trace::Config tc;
  tc.enabled = true;  // in-memory: no path
  trace::Tracer t(tc, 4, 2);
  t.emit(100, trace::Event::kPageFault, 3, 1, 42, 1);
  t.emit(250, trace::Event::kPacketTx, -1, 0, 1, 4096);
  t.emit(250, trace::Event::kTimeSpan, 0, 0, 150, 0);
  EXPECT_EQ(t.record_count(), 3u);

  Stats stats(4);
  stats.proc(0).add(TimeCat::kCompute, 150);
  stats.counters().page_faults = 1;
  stats.counters().packets_sent = 1;
  const trace::TraceFile f = t.capture(stats, 250);
  EXPECT_EQ(f.records.size(), 3u);
  EXPECT_EQ(f.records[0].time, 100u);
  EXPECT_EQ(f.records[0].a0, 42u);
  EXPECT_EQ(f.records[1].proc, -1);
  EXPECT_EQ(f.records[1].cat, static_cast<int>(trace::Category::kNet));

  TempFile tmp("test_trace_roundtrip.bin");
  trace::write_file(f, tmp.path);
  const trace::TraceFile g = trace::read_file(tmp.path);
  EXPECT_EQ(g.version, f.version);
  EXPECT_EQ(g.mask, f.mask);
  EXPECT_EQ(g.procs, 4);
  EXPECT_EQ(g.nodes, 2);
  EXPECT_EQ(g.end_time, 250u);
  EXPECT_EQ(g.provenance, f.provenance);
  EXPECT_TRUE(g.stats == stats);
  EXPECT_EQ(g.records, f.records);
}

TEST(TraceFileFormat, ReadRejectsMissingAndCorrupt) {
  EXPECT_THROW((void)trace::read_file("no_such_trace.bin"),
               std::runtime_error);
  TempFile tmp("test_trace_corrupt.bin");
  {
    std::FILE* out = std::fopen(tmp.path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    std::fputs("not a trace", out);
    std::fclose(out);
  }
  EXPECT_THROW((void)trace::read_file(tmp.path), std::runtime_error);

  // Header fields that would size allocations must be validated first:
  // std::runtime_error, not length_error from Stats(-1) or bad_alloc from a
  // 32 TiB record vector behind an intact counter block.
  trace::TraceFile f;
  f.procs = 2;
  f.nodes = 1;
  f.stats = Stats(2);
  f.records.resize(3);
  const auto patched = [&](std::size_t offset, auto value) {
    trace::write_file(f, tmp.path);
    std::fstream io(tmp.path, std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(static_cast<std::streamoff>(offset));
    io.write(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  patched(16, std::int32_t{-1});  // procs
  EXPECT_THROW((void)trace::read_file(tmp.path), std::runtime_error);
  patched(20, std::int32_t{1 << 16});  // nodes beyond Record::node
  EXPECT_THROW((void)trace::read_file(tmp.path), std::runtime_error);
  patched(32, std::uint64_t{1} << 40);  // record_count
  EXPECT_THROW((void)trace::read_file(tmp.path), std::runtime_error);
  patched(32, std::uint64_t{3});  // the unpatched count still reads back
  EXPECT_EQ(trace::read_file(tmp.path).records.size(), 3u);
}

TEST(TraceDeterminism, TracingDoesNotPerturbTheSimulation) {
  const RunResult off = run_fft(trace::Config{});

  trace::Config in_memory;
  in_memory.enabled = true;
  const RunResult mem = run_fft(in_memory);

  TempFile tmp("test_trace_determinism.bin");
  trace::Config to_file;
  to_file.enabled = true;
  to_file.path = tmp.path;
  const RunResult file = run_fft(to_file);

  ASSERT_TRUE(off.validated);
  for (const RunResult* r : {&mem, &file}) {
    EXPECT_EQ(r->time, off.time);
    EXPECT_EQ(r->events, off.events);
    EXPECT_TRUE(r->stats == off.stats);
    EXPECT_TRUE(r->validated);
  }
}

TEST(TraceOracle, CheckReproducesStatsExactly) {
  // Interrupt delivery and polling count at different probes (kIrqIssue at
  // dispatch, kPollDeliver at the poll tick); both must match the records.
  for (const InterruptScheme irq :
       {InterruptScheme::kFixedProcessor, InterruptScheme::kPolling}) {
    SCOPED_TRACE(irq == InterruptScheme::kPolling ? "polling" : "interrupts");
    TempFile tmp("test_trace_oracle.bin");
    trace::Config tc;
    tc.enabled = true;
    tc.path = tmp.path;
    const RunResult r = run_fft(tc, irq);
    ASSERT_TRUE(r.validated);
    const Counters& rc = r.stats.counters();
    EXPECT_GT(irq == InterruptScheme::kPolling ? rc.polled_requests
                                               : rc.interrupts,
              0u);

    const trace::TraceFile f = trace::read_file(tmp.path);
    EXPECT_GT(f.records.size(), 0u);
    EXPECT_TRUE(f.stats == r.stats);
    const std::vector<std::string> mismatches = trace::check(f);
    EXPECT_TRUE(mismatches.empty())
        << mismatches.size() << " mismatch(es), first: "
        << (mismatches.empty() ? "" : mismatches.front());

    const trace::Analysis a = trace::analyze(f);
    EXPECT_TRUE(a.recomputed.counters() == rc);
    EXPECT_FALSE(trace::report(f, a).empty());
  }
}

TEST(TraceProjection, EventsFeedOnlyCountersOfTheirCategory) {
  // trace::count is the only map from events to Counters. Every counter an
  // event touches must belong to that event's category (so a category mask
  // drops whole counters, never parts of one), and every counter must be
  // fed by some event (so none can drift from the record stream).
  std::array<bool, trace::kCounterCount> fed{};
  for (int e = 0; e < trace::kEvents; ++e) {
    const auto ev = static_cast<trace::Event>(e);
    for (const std::uint64_t a1 : {0u, 1u}) {
      Counters c;
      trace::count(c, ev, 1, a1);
      const auto after = trace::counters_to_array(c);
      for (int i = 0; i < trace::kCounterCount; ++i) {
        if (after[static_cast<std::size_t>(i)] == 0) continue;
        fed[static_cast<std::size_t>(i)] = true;
        EXPECT_EQ(trace::kCounterCategories[static_cast<std::size_t>(i)],
                  trace::category_of(ev))
            << trace::to_string(ev) << " feeds " << trace::counter_name(i);
      }
      EXPECT_EQ(trace::counted(ev), after != decltype(after){})
          << trace::to_string(ev);
    }
  }
  for (int i = 0; i < trace::kCounterCount; ++i) {
    EXPECT_TRUE(fed[static_cast<std::size_t>(i)])
        << trace::counter_name(i) << " is fed by no event";
  }
}

TEST(TraceOracle, MaskedCategoriesAreSkippedNotMismatched) {
  TempFile tmp("test_trace_masked.bin");
  trace::Config tc;
  tc.enabled = true;
  tc.path = tmp.path;
  tc.mask = trace::category_bit(trace::Category::kPage) |
            trace::category_bit(trace::Category::kLock);
  const RunResult r = run_fft(tc);
  ASSERT_TRUE(r.validated);

  const trace::TraceFile f = trace::read_file(tmp.path);
  EXPECT_EQ(f.mask, tc.mask);
  // No net/irq/sched records were recorded...
  const trace::Analysis a = trace::analyze(f);
  EXPECT_EQ(a.records_per_category[static_cast<int>(trace::Category::kNet)],
            0u);
  EXPECT_EQ(a.records_per_category[static_cast<int>(trace::Category::kSched)],
            0u);
  EXPECT_GT(a.records_per_category[static_cast<int>(trace::Category::kPage)],
            0u);
  // ...and check() knows those counters are unrecoverable, not wrong.
  EXPECT_TRUE(trace::check(f).empty());
}

// --- Chrome JSON validation -------------------------------------------------

/// Structural JSON scan: quotes/escapes respected, braces and brackets
/// balanced, non-negative depth throughout. Enough to catch any emitter
/// bug that would make chrome://tracing reject the file.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

/// Pull `"key": <number>` out of one emitted event line.
std::uint64_t field_u64(const std::string& line, const std::string& key,
                        bool* ok) {
  const std::size_t k = line.find("\"" + key + "\": ");
  if (k == std::string::npos) {
    *ok = false;
    return 0;
  }
  return std::strtoull(line.c_str() + k + key.size() + 4, nullptr, 10);
}

TEST(TraceChrome, ValidJsonWithMonotonicTracks) {
  TempFile tmp("test_trace_chrome.bin");
  trace::Config tc;
  tc.enabled = true;
  tc.path = tmp.path;
  const RunResult r = run_fft(tc);
  ASSERT_TRUE(r.validated);

  const trace::TraceFile f = trace::read_file(tmp.path);
  const std::string json = trace::to_chrome_json(f);
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);

  // The emitter writes one event object per line; timestamps within every
  // (pid, tid) track must be non-decreasing or the viewer mis-renders.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> last_ts;
  std::size_t events = 0;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\": \"M\"") != std::string::npos) continue;
    bool ok = true;
    const std::uint64_t ts = field_u64(line, "ts", &ok);
    if (!ok) continue;  // not an event line
    const std::uint64_t pid = field_u64(line, "pid", &ok);
    const std::uint64_t tid = field_u64(line, "tid", &ok);
    ASSERT_TRUE(ok) << line;
    auto [it, fresh] = last_ts.try_emplace({pid, tid}, ts);
    if (!fresh) {
      EXPECT_GE(ts, it->second) << "track (" << pid << "," << tid << ")";
      it->second = ts;
    }
    ++events;
  }
  EXPECT_GT(events, 0u);
  EXPECT_GE(last_ts.size(), 8u);  // at least one track per processor

  // write_chrome_json is the same renderer plus an atomic file write.
  TempFile out("test_trace_chrome.json");
  trace::write_chrome_json(f, out.path);
  std::ifstream written(out.path);
  ASSERT_TRUE(written.good());
  std::stringstream ss;
  ss << written.rdbuf();
  EXPECT_EQ(ss.str(), json);
}

}  // namespace
