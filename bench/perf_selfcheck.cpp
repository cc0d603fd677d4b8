// Self-measurement for the simulator hot path: runs the same multi-app
// host-overhead sweep serially and under --jobs N, checks the results are
// identical, and reports wall-clock time, simulation throughput (events/sec)
// and heap-allocation rate (allocs/event), machine-readably.
//
// A second arm measures the PDES mode (docs/engine.md): one run of
// --pdes-app, serial vs --par-cores=<pdes-cores> partition worker threads.
// Both must be bit-identical; the speedup, per-partition event counts and
// conservative-window statistics (windows, windows/sec, events per
// partition-window) land in the "pdes" section of the JSON. A third arm
// re-runs the fig05 host-overhead matrix under --par-cores and records the
// suite-wide window total ("pdes_fig05" section).
//
//   ./perf_selfcheck [--scale=tiny] [--jobs=N] [--apps=a,b,c]
//                    [--pdes-app=fft] [--pdes-cores=4] [--pdes-scale=large]
//                    [--out=BENCH_sweep.json]
//
// If the output file already exists with a compatible schema, the previous
// serial numbers are read back and a before/after comparison line is
// printed, so regressions in either throughput or allocation discipline are
// visible at a glance. A missing previous file or one written by an older
// schema skips the comparison with a note on stderr — never an error:
// the first run on a fresh checkout must succeed.
//
// Exit status is nonzero if any parallel results differ from the serial
// ones, so this doubles as a determinism check for CI, and 1 if any point
// fails (two failed arms would otherwise compare equal).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "trace/trace.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator-new in the binary ticks it.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// GCC pairs inlined new-expressions with the malloc inside the replacement
// and flags a mismatch; the replacement set is consistent, so silence it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using svmsim::harness::AppRun;

struct Measurement {
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;

  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0.0;
  }
  [[nodiscard]] double allocs_per_event() const {
    return events > 0 ? static_cast<double>(allocs) / static_cast<double>(events)
                      : 0.0;
  }
};

Measurement measure(std::vector<AppRun>& out,
                    const std::vector<svmsim::harness::SweepPoint>& points,
                    svmsim::apps::Scale scale, svmsim::harness::JobPool* pool) {
  // A fresh Sweep each time so the baseline cache is cold for both arms.
  svmsim::harness::Sweep sweep(scale);
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  out = sweep.run_points(points, pool);
  const auto t1 = std::chrono::steady_clock::now();
  svmsim::bench::exit_on_failed_point("perf_selfcheck", out);
  Measurement m;
  m.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  m.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  for (const auto& r : out) m.events += r.result.events;
  return m;
}

bool identical(const std::vector<AppRun>& a, const std::vector<AppRun>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].app != b[i].app || a[i].param != b[i].param ||
        a[i].uniprocessor != b[i].uniprocessor ||
        a[i].result.time != b[i].result.time ||
        a[i].result.events != b[i].result.events ||
        !(a[i].result.stats == b[i].result.stats)) {
      return false;
    }
  }
  return true;
}

std::uint64_t total_windows(const std::vector<AppRun>& runs) {
  std::uint64_t w = 0;
  for (const auto& r : runs) w += r.result.windows;
  return w;
}

/// The --par-cores run of the PDES arm, with the derived per-window rates
/// the "pdes" JSON section reports.
struct ParRun {
  svmsim::RunResult result;
  Measurement m;

  [[nodiscard]] double windows_per_sec() const {
    return m.wall_seconds > 0
               ? static_cast<double>(result.windows) / m.wall_seconds
               : 0.0;
  }
  [[nodiscard]] double events_per_partition_window() const {
    const auto denom = static_cast<double>(result.windows) *
                       static_cast<double>(result.partition_events.size());
    return denom > 0 ? static_cast<double>(result.events) / denom : 0.0;
  }
};

/// Pull one numeric field out of the previous run's JSON (crude but enough
/// for the flat schema this program writes itself).
std::optional<double> json_number_after(const std::string& text,
                                        const std::string& section,
                                        const std::string& key) {
  const std::size_t s = text.find("\"" + section + "\"");
  if (s == std::string::npos) return std::nullopt;
  const std::size_t k = text.find("\"" + key + "\"", s);
  if (k == std::string::npos) return std::nullopt;
  const std::size_t colon = text.find(':', k);
  if (colon == std::string::npos) return std::nullopt;
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

/// The schema version this program writes. v2 added the top-level "schema"
/// tag itself and a shared scheduler-microbenchmark section; files without
/// the tag predate v2. v3 added the
/// "pdes" section (node-partitioned parallel simulation). v4 split the
/// "pdes" parallel numbers into per-window-policy subsections (adaptive vs
/// fixed, with windows, windows_per_sec and events_per_partition_window)
/// and added the "pdes_fig05" window probe over the host-overhead matrix.
/// v5 added allocs_per_event and peak_clock_pool (high-water pooled clock
/// bodies, docs/scaling.md) to every pdes measurement — the allocation-free
/// invariant tracked at --pdes-procs scale — and began preserving the
/// bench_scale "scale" section across rewrites. v6 began preserving the
/// extra_topology "topology" section (contended interconnects, src/topo/)
/// across rewrites. v7 dropped the fixed window policy: "pdes" carries one
/// "parallel" subsection and "pdes_fig05" one window total, and the
/// scheduler-microbenchmark section is gone.
constexpr int kSchema = 7;

}  // namespace

int main(int argc, char** argv) {
  using namespace svmsim;
  harness::Cli cli(argc, argv);
  // Re-parse through the bench options for scale/apps/jobs handling, but
  // default to tiny scale: this is a self-check, not a figure.
  auto opt = bench::Options::parse(argc, argv);
  if (!cli.get("scale")) opt.scale = apps::Scale::kTiny;
  const std::string out_path = cli.get_or("out", "BENCH_sweep.json");
  const unsigned jobs =
      opt.jobs > 1 ? static_cast<unsigned>(opt.jobs)
                   : harness::JobPool::hardware_default();

  // Previous numbers (if any) for the before/after comparison. Degrade
  // gracefully: a missing or older-schema file only skips the comparison.
  std::optional<double> prev_eps, prev_ape;
  std::optional<std::string> overhead_section, scale_section, topology_section;
  {
    std::ifstream prev(out_path);
    if (!prev) {
      std::fprintf(stderr,
                   "perf_selfcheck: no previous %s; skipping the "
                   "before/after comparison\n",
                   out_path.c_str());
    } else {
      std::stringstream ss;
      ss << prev.rdbuf();
      const std::string text = ss.str();
      const auto schema = json_number_after(text, "bench", "schema");
      if (!schema || static_cast<int>(*schema) < kSchema) {
        std::fprintf(stderr,
                     "perf_selfcheck: previous %s has schema %d (this "
                     "program writes %d); skipping the before/after "
                     "comparison\n",
                     out_path.c_str(), schema ? static_cast<int>(*schema) : 1,
                     kSchema);
      } else {
        prev_eps = json_number_after(text, "serial", "events_per_sec");
        prev_ape = json_number_after(text, "serial", "allocs_per_event");
      }
      // Keep the other tools' sections (if any) across our rewrite.
      overhead_section = harness::json_object_section(text, "trace_overhead");
      scale_section = harness::json_object_section(text, "scale");
      topology_section = harness::json_object_section(text, "topology");
    }
  }

  // The fig05 host-overhead sweep: a representative all-independent batch.
  const std::vector<double> values{0, 500, 1000, 2000};
  const auto apply = [](SimConfig& c, double v) {
    c.comm.host_overhead = static_cast<Cycles>(v);
  };
  bench::PointBuilder builder("perf_selfcheck", opt);
  builder.sweep(values, apply);
  const auto points = builder.take();

  std::fprintf(stderr, "perf_selfcheck: %zu points (%zu apps x %zu values), "
               "serial then --jobs=%u\n",
               points.size(), opt.app_names.size(), values.size(), jobs);

  std::vector<AppRun> serial_runs;
  const Measurement serial = measure(serial_runs, points, opt.scale, nullptr);

  std::vector<AppRun> parallel_runs;
  harness::JobPool pool(jobs);
  const Measurement parallel =
      measure(parallel_runs, points, opt.scale, &pool);

  const bool same = identical(serial_runs, parallel_runs);
  const double speedup = parallel.wall_seconds > 0
                             ? serial.wall_seconds / parallel.wall_seconds
                             : 0.0;

  // PDES arm: one run, serial event loop vs par_cores partition workers.
  // Both runs must be bit-identical (the docs/engine.md determinism
  // contract), so equal events make the events/sec ratio a pure wall-clock
  // speedup.
  const int pdes_cores =
      std::max(2, static_cast<int>(cli.get_int("pdes-cores", 4)));
  const std::string pdes_app = cli.get_or("pdes-app", "fft");
  apps::Scale pdes_scale = opt.scale;
  if (auto s = cli.get("pdes-scale")) {
    pdes_scale = *s == "large"   ? apps::Scale::kLarge
                 : *s == "small" ? apps::Scale::kSmall
                                 : apps::Scale::kTiny;
  }
  auto timed_run = [](const std::string& app, apps::Scale scale,
                      const SimConfig& cfg, Measurement& m) {
    auto w = apps::make_app(app, scale);
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    RunResult r = run(*w, cfg);
    const auto t1 = std::chrono::steady_clock::now();
    m.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    m.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
    m.events = r.events;
    return r;
  };
  // --pdes-procs grows the simulated cluster (keeping the paper's 4 procs
  // per node): more nodes means more events inside each conservative window,
  // which is the regime the PDES mode exists for. 0 keeps the default.
  SimConfig pdes_base = bench::base_config();
  if (auto procs_arg = cli.get("pdes-procs")) {
    pdes_base.comm.total_procs = bench::checked_total_procs(
        argc > 0 ? argv[0] : nullptr, "--pdes-procs",
        std::strtol(procs_arg->c_str(), nullptr, 10),
        pdes_base.comm.procs_per_node);
  }
  std::fprintf(stderr, "perf_selfcheck: pdes arm: %s on %d procs, serial "
               "then --par-cores=%d\n",
               pdes_app.c_str(), pdes_base.comm.total_procs, pdes_cores);
  Measurement pdes_serial_m;
  const RunResult pdes_serial =
      timed_run(pdes_app, pdes_scale, pdes_base, pdes_serial_m);
  SimConfig pdes_cfg = pdes_base;
  pdes_cfg.par_cores = pdes_cores;
  ParRun pdes_par;
  pdes_par.result = timed_run(pdes_app, pdes_scale, pdes_cfg, pdes_par.m);
  const bool pdes_same = pdes_serial.time == pdes_par.result.time &&
                         pdes_serial.events == pdes_par.result.events &&
                         pdes_serial.stats == pdes_par.result.stats &&
                         pdes_serial.stats.counters() ==
                             pdes_par.result.stats.counters();
  const double pdes_speedup =
      pdes_serial_m.events_per_sec() > 0
          ? pdes_par.m.events_per_sec() / pdes_serial_m.events_per_sec()
          : 0.0;

  // fig05 window probe: the same host-overhead matrix as the sweep arms,
  // under --par-cores. The serial sweep above is the byte-identity
  // reference.
  std::fprintf(stderr,
               "perf_selfcheck: fig05 probe: %zu points at --par-cores=%d\n",
               points.size(), pdes_cores);
  auto par_points = points;
  for (auto& p : par_points) p.cfg.par_cores = pdes_cores;
  std::vector<AppRun> fig_par_runs;
  measure(fig_par_runs, par_points, opt.scale, nullptr);
  const std::uint64_t fig_windows = total_windows(fig_par_runs);
  const bool fig_same = identical(serial_runs, fig_par_runs);

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"sweep\",\n"
       << "  \"schema\": " << kSchema << ",\n"
       << "  \"build\": \"" << trace::build_provenance() << "\",\n"
       << "  \"points\": " << points.size() << ",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"hardware_threads\": " << harness::JobPool::hardware_default()
       << ",\n"
       << "  \"serial\": {\"wall_seconds\": " << serial.wall_seconds
       << ", \"events\": " << serial.events
       << ", \"events_per_sec\": " << serial.events_per_sec()
       << ", \"allocs\": " << serial.allocs
       << ", \"allocs_per_event\": " << serial.allocs_per_event() << "},\n"
       << "  \"parallel\": {\"wall_seconds\": " << parallel.wall_seconds
       << ", \"events\": " << parallel.events
       << ", \"events_per_sec\": " << parallel.events_per_sec()
       << ", \"allocs\": " << parallel.allocs
       << ", \"allocs_per_event\": " << parallel.allocs_per_event() << "},\n";
  if (prev_eps) {
    json << "  \"previous_serial\": {\"events_per_sec\": " << *prev_eps;
    if (prev_ape) json << ", \"allocs_per_event\": " << *prev_ape;
    json << "},\n";
  }
  json << "  \"speedup\": " << speedup << ",\n"
       << "  \"identical_results\": " << (same ? "true" : "false") << ",\n"
       << "  \"pdes\": {\"app\": \"" << pdes_app << "\""
       << ", \"procs\": " << pdes_base.comm.total_procs
       << ", \"par_cores\": " << pdes_cores
       << ", \"partitions\": " << pdes_par.result.partition_events.size()
       << ", \"serial_wall_seconds\": " << pdes_serial_m.wall_seconds
       << ", \"serial_events_per_sec\": " << pdes_serial_m.events_per_sec()
       << ", \"serial_allocs_per_event\": " << pdes_serial_m.allocs_per_event()
       << ", \"serial_peak_clock_pool\": " << pdes_serial.peak_clock_pool
       << ", \"parallel\": {\"wall_seconds\": " << pdes_par.m.wall_seconds
       << ", \"events_per_sec\": " << pdes_par.m.events_per_sec()
       << ", \"allocs_per_event\": " << pdes_par.m.allocs_per_event()
       << ", \"peak_clock_pool\": " << pdes_par.result.peak_clock_pool
       << ", \"windows\": " << pdes_par.result.windows
       << ", \"windows_per_sec\": " << pdes_par.windows_per_sec()
       << ", \"events_per_partition_window\": "
       << pdes_par.events_per_partition_window() << "}"
       << ", \"speedup\": " << pdes_speedup << ", \"partition_events\": [";
  for (std::size_t p = 0; p < pdes_par.result.partition_events.size(); ++p) {
    json << (p ? ", " : "") << pdes_par.result.partition_events[p];
  }
  json << "], \"identical_results\": " << (pdes_same ? "true" : "false")
       << "},\n"
       << "  \"pdes_fig05\": {\"par_cores\": " << pdes_cores
       << ", \"points\": " << par_points.size()
       << ", \"windows\": " << fig_windows
       << ", \"identical_results\": " << (fig_same ? "true" : "false") << "}";
  if (overhead_section) {
    json << ",\n  \"trace_overhead\": " << *overhead_section;
  }
  if (scale_section) {
    json << ",\n  \"scale\": " << *scale_section;
  }
  if (topology_section) {
    json << ",\n  \"topology\": " << *topology_section;
  }
  json << "\n}\n";
  harness::write_file_atomic(out_path, json.str());

  std::printf("== perf_selfcheck: serial vs --jobs=%u sweep ==\n", jobs);
  harness::Table t(
      {"arm", "wall seconds", "events", "events/sec", "allocs/event"});
  t.add_row({"serial", harness::fmt(serial.wall_seconds, 3),
             std::to_string(serial.events),
             harness::fmt(serial.events_per_sec(), 0),
             harness::fmt(serial.allocs_per_event(), 3)});
  t.add_row({"parallel", harness::fmt(parallel.wall_seconds, 3),
             std::to_string(parallel.events),
             harness::fmt(parallel.events_per_sec(), 0),
             harness::fmt(parallel.allocs_per_event(), 3)});
  t.print();
  if (prev_eps) {
    std::printf(
        "vs previous serial: events/sec %.0f -> %.0f (%+.1f%%)",
        *prev_eps, serial.events_per_sec(),
        *prev_eps > 0
            ? 100.0 * (serial.events_per_sec() - *prev_eps) / *prev_eps
            : 0.0);
    if (prev_ape) {
      std::printf(", allocs/event %.3f -> %.3f (%.1fx fewer)", *prev_ape,
                  serial.allocs_per_event(),
                  serial.allocs_per_event() > 0
                      ? *prev_ape / serial.allocs_per_event()
                      : 0.0);
    }
    std::printf("\n");
  }
  std::printf("speedup: %.2fx, identical results: %s (written to %s)\n",
              speedup, same ? "yes" : "NO", out_path.c_str());
  std::printf(
      "pdes: %s serial %.3fs vs --par-cores=%d %.3fs -> %.2fx "
      "(%zu partitions), identical results: %s\n",
      pdes_app.c_str(), pdes_serial_m.wall_seconds, pdes_cores,
      pdes_par.m.wall_seconds, pdes_speedup,
      pdes_par.result.partition_events.size(), pdes_same ? "yes" : "NO");
  std::printf(
      "pdes footprint: %.3f allocs/event serial, peak pooled clock bodies "
      "%llu serial / %llu parallel\n",
      pdes_serial_m.allocs_per_event(),
      static_cast<unsigned long long>(pdes_serial.peak_clock_pool),
      static_cast<unsigned long long>(pdes_par.result.peak_clock_pool));
  std::printf("pdes windows: %llu (%.1f events per partition-window)\n",
              static_cast<unsigned long long>(pdes_par.result.windows),
              pdes_par.events_per_partition_window());
  std::printf(
      "pdes fig05 probe: %llu windows over %zu points, identical results: "
      "%s\n",
      static_cast<unsigned long long>(fig_windows), par_points.size(),
      fig_same ? "yes" : "NO");
  return same && pdes_same && fig_same ? 0 : 1;
}
