// Large-machine scaling bench: host-side cost of the protocol hot path as
// the simulated cluster grows past the paper's 16 processors.
//
// ROADMAP item 1 wants the four-parameter sweep re-run at 64-1024
// processors; what that needs from the simulator is throughput, and what
// throughput needs is synchronization cost that scales with *activity*, not
// with machine size (sparse vector-clock deltas, summary-short-circuited
// merges, incremental barrier reduction — see docs/scaling.md). This bench
// measures exactly that: events/sec, allocs/event and host nanoseconds per
// synchronization operation at --procs ∈ {16, 64, 256, 1024}, on two arms:
//
//   sync   the stress-gen fuzz workload (lock-guarded RMWs on falsely
//          shared slots + two barriers per round) under both protocols —
//          the sync-heavy arm the CI gates watch
//   fig05  the same workload across the paper's fig05 host-overhead matrix
//          (0 and 1000 cycles), HLRC — scaling of the paper's own
//          parameter sweep, not just of a stress point
//
// Every point runs serially and under --par-cores=N; the two results must
// be bit-identical (the PDES determinism contract) and the run must
// validate, so this doubles as a protocol correctness check at sizes the
// tier-1 tests never reach. Results are merged into the shared
// BENCH_sweep.json as a "scale" section (preserving other tools' sections).
//
//   ./bench_scale [--procs=16,64,256,1024] [--par-cores=4] [--seed=3]
//                 [--scale=tiny] [--out=BENCH_sweep.json]
//                 [--max-regression-16=F] [--min-eps-ratio-256=R]
//
// Gates (exit 1 when violated):
//   --max-regression-16=F   serial events/sec on the sync/hlrc arm at 16
//                           procs must be >= (1-F) x the previous file's
//                           value. Self-disables (with a note) when the
//                           previous file lacks a scale section — the first
//                           run on a fresh checkout must succeed.
//   --min-eps-ratio-256=R   eps(256)/eps(16) on the sync/hlrc serial arm
//                           must be >= R. Within-run, so it never
//                           self-disables: a reintroduced O(P) hot path
//                           drags the ratio down on any machine.
//
// Exit status is also nonzero if any parallel run differs from its serial
// run or any run fails validation.
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
#include "core/runner.hpp"
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

using namespace svmsim;

/// One timed run of one configuration (serial or PDES).
struct Timed {
  RunResult result;
  double wall_seconds = 0.0;
  std::uint64_t allocs = 0;

  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0
               ? static_cast<double>(result.events) / wall_seconds
               : 0.0;
  }
  [[nodiscard]] double allocs_per_event() const {
    return result.events > 0 ? static_cast<double>(allocs) /
                                   static_cast<double>(result.events)
                             : 0.0;
  }
  /// Lock acquires (local + remote) plus per-processor barrier crossings:
  /// the denominator of the per-sync host cost.
  [[nodiscard]] std::uint64_t syncs() const {
    const auto& c = result.stats.counters();
    return c.local_lock_acquires + c.remote_lock_acquires + c.barriers;
  }
  [[nodiscard]] double ns_per_sync() const {
    const std::uint64_t s = syncs();
    return s > 0 ? wall_seconds * 1e9 / static_cast<double>(s) : 0.0;
  }
};

Timed timed_run(const std::string& app, apps::Scale scale,
                const SimConfig& cfg) {
  auto w = apps::make_app(app, scale);
  Timed t;
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  t.result = run(*w, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  t.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  t.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  return t;
}

/// One (arm, protocol, overhead, procs) measurement: serial + parallel.
struct Point {
  std::string arm;
  std::string protocol;
  Cycles host_overhead = 0;
  int procs = 0;
  int nodes = 0;
  Timed serial;
  Timed par;
  bool identical = false;
  bool validated = false;
};

/// Serial and PDES runs of one point must be bit-identical.
bool same_run(const RunResult& a, const RunResult& b) {
  return a.time == b.time && a.events == b.events && a.stats == b.stats &&
         a.stats.counters() == b.stats.counters();
}

void emit_timed(std::ostringstream& json, const char* name, const Timed& t) {
  json << "\"" << name << "\": {\"wall_seconds\": " << t.wall_seconds
       << ", \"events\": " << t.result.events
       << ", \"events_per_sec\": " << t.events_per_sec()
       << ", \"allocs\": " << t.allocs
       << ", \"allocs_per_event\": " << t.allocs_per_event()
       << ", \"syncs\": " << t.syncs()
       << ", \"ns_per_sync\": " << t.ns_per_sync()
       << ", \"peak_clock_pool\": " << t.result.peak_clock_pool
       << ", \"sim_cycles\": " << t.result.time << "}";
}

/// Pull one numeric field out of the previous file's "scale" section (crude
/// but enough for the flat JSON this program writes itself).
std::optional<double> scale_number(const std::string& text,
                                   const std::string& key) {
  const std::size_t s = text.find("\"scale\"");
  if (s == std::string::npos) return std::nullopt;
  const std::size_t k = text.find("\"" + key + "\"", s);
  if (k == std::string::npos) return std::nullopt;
  const std::size_t colon = text.find(':', k);
  if (colon == std::string::npos) return std::nullopt;
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  harness::Cli cli(argc, argv);
  const char* argv0 = argc > 0 ? argv[0] : "bench_scale";

  apps::Scale scale = apps::Scale::kTiny;
  const std::string scale_arg = cli.get_or("scale", "tiny");
  if (scale_arg == "small") {
    scale = apps::Scale::kSmall;
  } else if (scale_arg == "large") {
    scale = apps::Scale::kLarge;
  }
  const long seed = cli.get_int("seed", 3);
  const std::string app = "stress-gen@" + std::to_string(seed);
  const int par_cores =
      std::max(2, static_cast<int>(cli.get_int("par-cores", 4)));
  const std::string out_path = cli.get_or("out", "BENCH_sweep.json");
  const double max_regression_16 = cli.get_double("max-regression-16", 0.0);
  const double min_eps_ratio_256 = cli.get_double("min-eps-ratio-256", 0.0);

  const SimConfig base = bench::base_config();
  std::vector<int> procs_list;
  {
    std::stringstream ss(cli.get_or("procs", "16,64,256,1024"));
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (item.empty()) continue;
      procs_list.push_back(bench::checked_total_procs(
          argv0, "--procs", std::strtol(item.c_str(), nullptr, 10),
          base.comm.procs_per_node));
    }
  }
  if (procs_list.empty()) {
    std::fprintf(stderr, "%s: --procs needs at least one cluster size\n",
                 argv0);
    return 2;
  }

  // The arm matrix at each size: the gated sync-heavy arm under both
  // protocols, then the fig05 host-overhead endpoints under HLRC.
  struct Arm {
    const char* name;
    Protocol protocol;
    Cycles host_overhead;
  };
  const Arm arms[] = {
      {"sync", Protocol::kHLRC, base.comm.host_overhead},
      {"sync", Protocol::kAURC, base.comm.host_overhead},
      {"fig05", Protocol::kHLRC, 0},
      {"fig05", Protocol::kHLRC, 1000},
  };

  std::vector<Point> points;
  bool all_identical = true;
  bool all_validated = true;
  for (int procs : procs_list) {
    for (const Arm& arm : arms) {
      Point p;
      p.arm = arm.name;
      p.protocol = to_string(arm.protocol);
      p.host_overhead = arm.host_overhead;
      p.procs = procs;
      SimConfig cfg = base;
      cfg.comm.total_procs = procs;
      cfg.comm.protocol = arm.protocol;
      cfg.comm.host_overhead = arm.host_overhead;
      p.nodes = cfg.comm.node_count();
      std::fprintf(stderr,
                   "bench_scale: %s/%s overhead=%llu procs=%d (%d nodes), "
                   "serial then --par-cores=%d\n",
                   p.arm.c_str(), p.protocol.c_str(),
                   static_cast<unsigned long long>(p.host_overhead), procs,
                   p.nodes, par_cores);
      p.serial = timed_run(app, scale, cfg);
      cfg.par_cores = par_cores;
      p.par = timed_run(app, scale, cfg);
      p.identical = same_run(p.serial.result, p.par.result);
      p.validated = p.serial.result.validated && p.par.result.validated;
      all_identical &= p.identical;
      all_validated &= p.validated;
      points.push_back(std::move(p));
    }
  }

  // Previous numbers (if any) for the regression gate. Degrade gracefully:
  // a missing file or one without a scale section only disables the
  // vs-previous gate.
  std::optional<double> prev_eps16;
  std::string prev_text;
  {
    std::ifstream prev(out_path);
    if (prev) {
      std::stringstream ss;
      ss << prev.rdbuf();
      prev_text = ss.str();
      prev_eps16 = scale_number(prev_text, "gate_eps_16");
    }
  }

  // The gate anchors: serial events/sec on the sync/hlrc arm.
  auto gate_eps = [&](int procs) -> std::optional<double> {
    for (const Point& p : points) {
      if (p.arm == "sync" && p.protocol == to_string(Protocol::kHLRC) &&
          p.procs == procs) {
        return p.serial.events_per_sec();
      }
    }
    return std::nullopt;
  };
  const std::optional<double> eps16 = gate_eps(16);
  const std::optional<double> eps256 = gate_eps(256);
  const double eps_ratio_256 =
      eps16 && eps256 && *eps16 > 0 ? *eps256 / *eps16 : 0.0;

  std::ostringstream section;
  // Section schema 2: each timed run gained peak_clock_pool (high-water
  // pooled clock bodies — the sparse-transport footprint at scale).
  section << "\"scale\": {\n    \"schema\": 2"
          << ",\n    \"app\": \"" << app << "\""
          << ",\n    \"par_cores\": " << par_cores << ",\n    \"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    section << (i ? "," : "") << "\n      {\"arm\": \"" << p.arm
            << "\", \"protocol\": \"" << p.protocol
            << "\", \"host_overhead\": " << p.host_overhead
            << ", \"procs\": " << p.procs << ", \"nodes\": " << p.nodes
            << ",\n       ";
    emit_timed(section, "serial", p.serial);
    section << ",\n       ";
    emit_timed(section, "par", p.par);
    section << ",\n       \"identical\": " << (p.identical ? "true" : "false")
            << ", \"validated\": " << (p.validated ? "true" : "false") << "}";
  }
  section << "\n    ]";
  if (eps16) section << ",\n    \"gate_eps_16\": " << *eps16;
  if (eps256) section << ",\n    \"gate_eps_256\": " << *eps256;
  if (eps16 && eps256) {
    section << ",\n    \"eps_ratio_256\": " << eps_ratio_256;
  }
  section << ",\n    \"identical_results\": "
          << (all_identical ? "true" : "false")
          << ",\n    \"validated\": " << (all_validated ? "true" : "false")
          << "\n  }";

  // Merge our section into the shared BENCH JSON (replacing any previous
  // run's section, preserving everything else).
  std::string text = harness::strip_json_section(prev_text, "scale");
  const std::size_t close = text.find_last_of('}');
  if (close == std::string::npos) {
    text = "{\n  \"bench\": \"sweep\",\n  \"schema\": 2,\n  \"build\": \"" +
           trace::build_provenance() + "\",\n  " + section.str() + "\n}\n";
  } else {
    text = text.substr(0, close) + ",\n  " + section.str() + "\n}\n";
  }
  harness::write_file_atomic(out_path, text);

  std::printf("== bench_scale: %s, serial vs --par-cores=%d ==\n", app.c_str(),
              par_cores);
  harness::Table t({"arm", "protocol", "ovh", "procs", "events", "ev/s",
                    "par ev/s", "allocs/ev", "ns/sync", "pk clocks", "same"});
  for (const Point& p : points) {
    t.add_row({p.arm, p.protocol, std::to_string(p.host_overhead),
               std::to_string(p.procs), std::to_string(p.serial.result.events),
               harness::fmt(p.serial.events_per_sec(), 0),
               harness::fmt(p.par.events_per_sec(), 0),
               harness::fmt(p.serial.allocs_per_event(), 3),
               harness::fmt(p.serial.ns_per_sync(), 0),
               std::to_string(p.serial.result.peak_clock_pool),
               p.identical && p.validated ? "yes" : "NO"});
  }
  t.print();
  std::printf("(merged into %s)\n", out_path.c_str());

  bool gates_ok = true;
  if (max_regression_16 > 0 && eps16) {
    if (!prev_eps16) {
      std::fprintf(stderr,
                   "bench_scale: no previous scale section in %s; skipping "
                   "the --max-regression-16 gate\n",
                   out_path.c_str());
    } else if (*eps16 < (1.0 - max_regression_16) * *prev_eps16) {
      std::fprintf(stderr,
                   "bench_scale: events/sec at 16 procs regressed %.0f -> "
                   "%.0f, past the --max-regression-16=%.2f gate\n",
                   *prev_eps16, *eps16, max_regression_16);
      gates_ok = false;
    }
  }
  if (min_eps_ratio_256 > 0 && eps16 && eps256) {
    if (eps_ratio_256 < min_eps_ratio_256) {
      std::fprintf(stderr,
                   "bench_scale: eps(256)/eps(16) = %.3f is below the "
                   "--min-eps-ratio-256=%.3f gate (per-sync host cost is "
                   "growing with machine size again)\n",
                   eps_ratio_256, min_eps_ratio_256);
      gates_ok = false;
    }
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_scale: serial and --par-cores=%d results differ\n",
                 par_cores);
  }
  if (!all_validated) {
    std::fprintf(stderr, "bench_scale: a run failed validation\n");
  }
  return all_identical && all_validated && gates_ok ? 0 : 1;
}
