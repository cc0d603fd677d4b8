// Contended-topology scaling bench: the paper's four-parameter sweep re-run
// at 64-1024 processors on the pluggable interconnects of src/topo/.
//
// The paper's crossbar deliberately models no network contention (§2); at
// 16 processors that is defensible, at 256 nodes it is not. This bench runs
// the achievable baseline plus each of the four swept communication
// parameters (host overhead, I/O-bus bandwidth, NI occupancy, interrupt
// cost) alone at its best value, at --procs ∈ {64, 256, 1024}, on three
// backends per size: the contention-free crossbar, the smallest fitting
// fat tree (fattree:k), and the square torus (torus:NxN). Per-link
// occupancy (grants/busy/wait/bytes, from Stats::links) is reported per
// point, so the contended runs show where the topology actually queues.
//
//   ./extra_topology [--procs=64,256,1024] [--seed=3] [--scale=tiny]
//                    [--par-cores=4] [--out=BENCH_sweep.json]
//                    [--max-regression=F]
//
// Results merge into BENCH_sweep.json as a "topology" section (schema 1),
// preserving every other tool's section.
//
// Gates (exit 1 when violated):
//  - at the smallest size, every topology's baseline must be bit-identical
//    between serial and --par-cores=N (the PDES determinism contract now
//    extended to per-hop link state);
//  - every run must validate;
//  - crossbar events/sec at 16 procs must stay within --max-regression of
//    the previous file's gate_crossbar_eps_16. Self-disables with a note
//    when no reference exists, like bench_scale.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/runner.hpp"
#include "trace/trace.hpp"

namespace {

using namespace svmsim;

struct Timed {
  RunResult result;
  double wall_seconds = 0.0;

  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(result.events) / wall_seconds
                            : 0.0;
  }
};

Timed timed_run(const std::string& app, apps::Scale scale,
                const SimConfig& cfg) {
  auto w = apps::make_app(app, scale);
  Timed t;
  const auto t0 = std::chrono::steady_clock::now();
  t.result = run(*w, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  t.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return t;
}

/// Serial and PDES runs must be bit-identical; Stats::operator== covers
/// breakdowns, counters and per-link occupancy.
bool same_run(const RunResult& a, const RunResult& b) {
  return a.time == b.time && a.events == b.events && a.stats == b.stats;
}

/// Aggregated link occupancy of one run (zero for the crossbar).
struct LinkSummary {
  std::uint64_t links = 0;
  std::uint64_t grants = 0;
  std::uint64_t busy = 0;
  std::uint64_t wait = 0;
  std::uint64_t bytes = 0;
  std::int32_t max_wait_link = -1;
  std::uint64_t max_wait = 0;
};

LinkSummary summarize_links(const Stats& st) {
  LinkSummary s;
  for (const LinkUse& l : st.links()) {
    ++s.links;
    s.grants += l.grants;
    s.busy += l.busy;
    s.wait += l.wait;
    s.bytes += l.bytes;
    if (l.wait >= s.max_wait) {
      s.max_wait = l.wait;
      s.max_wait_link = l.id;
    }
  }
  return s;
}

/// Smallest even fat-tree arity whose k^3/4 hosts cover `nodes`.
int fat_tree_arity(int nodes) {
  for (int k = 2; k <= 64; k += 2) {
    if (k * k * k / 4 >= nodes) return k;
  }
  return 64;
}

/// Most-square 2D factorization of `nodes` (X <= Y, X maximal).
std::pair<int, int> torus_dims(int nodes) {
  int x = 1;
  for (int d = 1; d * d <= nodes; ++d) {
    if (nodes % d == 0) x = d;
  }
  return {x, nodes / x};
}

/// One measured point of the sweep matrix.
struct Point {
  std::string topology;
  std::string param;  ///< "base" or the swept parameter's name
  int procs = 0;
  int nodes = 0;
  Timed serial;
  LinkSummary links;
  bool validated = false;
};

std::optional<double> topo_number(const std::string& text,
                                  const std::string& key) {
  const std::size_t s = text.find("\"topology\"");
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
  const char* argv0 = argc > 0 ? argv[0] : "extra_topology";

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
  const double max_regression = cli.get_double("max-regression", 0.0);

  const SimConfig base = bench::base_config();
  std::vector<int> procs_list;
  {
    std::stringstream ss(cli.get_or("procs", "64,256,1024"));
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

  // The four swept communication parameters, each alone at its best value
  // over the achievable baseline (paper §3, Table 1).
  const CommParams best = CommParams::best();
  struct Param {
    const char* name;
    void (*apply)(CommParams&, const CommParams&);
  };
  const Param params[] = {
      {"base", [](CommParams&, const CommParams&) {}},
      {"host_overhead",
       [](CommParams& c, const CommParams& b) {
         c.host_overhead = b.host_overhead;
       }},
      {"io_bus_bandwidth",
       [](CommParams& c, const CommParams& b) {
         c.io_bus_mb_per_mhz = b.io_bus_mb_per_mhz;
       }},
      {"ni_occupancy",
       [](CommParams& c, const CommParams& b) {
         c.ni_occupancy = b.ni_occupancy;
       }},
      {"interrupt_cost",
       [](CommParams& c, const CommParams& b) {
         c.interrupt_cost = b.interrupt_cost;
       }},
  };

  std::vector<Point> points;
  bool par_identical = true;
  bool all_validated = true;
  const int smallest = *std::min_element(procs_list.begin(), procs_list.end());

  for (int procs : procs_list) {
    SimConfig size_cfg = base;
    size_cfg.comm.total_procs = procs;
    const int nodes = size_cfg.comm.node_count();

    const auto [tx, ty] = torus_dims(nodes);
    const std::vector<std::string> topos = {
        "crossbar", "fattree:" + std::to_string(fat_tree_arity(nodes)),
        "torus:" + std::to_string(tx) + "x" + std::to_string(ty)};

    for (const std::string& topo_name : topos) {
      const auto spec = topo::Spec::parse(topo_name);
      if (!spec) {
        std::fprintf(stderr, "%s: internal: bad spec %s\n", argv0,
                     topo_name.c_str());
        return 2;
      }
      bench::checked_topology(argv0, *spec, nodes);
      for (const Param& prm : params) {
        Point p;
        p.topology = topo_name;
        p.param = prm.name;
        p.procs = procs;
        p.nodes = nodes;
        SimConfig cfg = size_cfg;
        cfg.topology = *spec;
        prm.apply(cfg.comm, best);
        std::fprintf(stderr, "extra_topology: procs=%d %s %s\n", procs,
                     topo_name.c_str(), prm.name);
        p.serial = timed_run(app, scale, cfg);
        p.links = summarize_links(p.serial.result.stats);
        p.validated = p.serial.result.validated;
        all_validated &= p.validated;

        if (std::string(prm.name) == "base" && procs == smallest) {
          SimConfig pcfg = cfg;
          pcfg.par_cores = par_cores;
          const Timed par = timed_run(app, scale, pcfg);
          if (!same_run(p.serial.result, par.result)) {
            std::fprintf(stderr,
                         "extra_topology: %s serial vs --par-cores=%d "
                         "differ at %d procs\n",
                         topo_name.c_str(), par_cores, procs);
            par_identical = false;
          }
        }
        points.push_back(std::move(p));
      }
    }
  }

  // The regression-gate anchor: crossbar events/sec at the paper's machine
  // size, always measured so the next run's gate has a reference.
  std::fprintf(stderr, "extra_topology: crossbar eps anchor at 16 procs\n");
  SimConfig anchor_cfg = base;
  anchor_cfg.topology = *topo::Spec::parse("crossbar");
  const Timed anchor = timed_run(app, scale, anchor_cfg);
  const double crossbar_eps_16 = anchor.events_per_sec();
  all_validated &= anchor.result.validated;

  std::optional<double> prev_eps;
  std::string prev_text;
  {
    std::ifstream prev(out_path);
    if (prev) {
      std::stringstream ss;
      ss << prev.rdbuf();
      prev_text = ss.str();
      prev_eps = topo_number(prev_text, "gate_crossbar_eps_16");
    }
  }

  std::ostringstream section;
  section << "\"topology\": {\n    \"schema\": 1"
          << ",\n    \"app\": \"" << app << "\""
          << ",\n    \"par_cores\": " << par_cores << ",\n    \"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    section << (i ? "," : "") << "\n      {\"topology\": \"" << p.topology
            << "\", \"param\": \"" << p.param << "\", \"procs\": " << p.procs
            << ", \"nodes\": " << p.nodes
            << ",\n       \"wall_seconds\": " << p.serial.wall_seconds
            << ", \"events\": " << p.serial.result.events
            << ", \"events_per_sec\": " << p.serial.events_per_sec()
            << ", \"sim_cycles\": " << p.serial.result.time
            << ",\n       \"links\": " << p.links.links
            << ", \"link_grants\": " << p.links.grants
            << ", \"link_busy_cycles\": " << p.links.busy
            << ", \"link_wait_cycles\": " << p.links.wait
            << ", \"link_bytes\": " << p.links.bytes
            << ", \"hottest_link\": " << p.links.max_wait_link
            << ", \"hottest_link_wait\": " << p.links.max_wait
            << ", \"validated\": " << (p.validated ? "true" : "false") << "}";
  }
  section << "\n    ]"
          << ",\n    \"gate_crossbar_eps_16\": " << crossbar_eps_16
          << ",\n    \"par_identical\": " << (par_identical ? "true" : "false")
          << ",\n    \"validated\": " << (all_validated ? "true" : "false")
          << "\n  }";

  std::string text = harness::strip_json_section(prev_text, "topology");
  const std::size_t close = text.find_last_of('}');
  if (close == std::string::npos) {
    text = "{\n  \"bench\": \"sweep\",\n  \"schema\": 2,\n  \"build\": \"" +
           trace::build_provenance() + "\",\n  " + section.str() + "\n}\n";
  } else {
    text = text.substr(0, close) + ",\n  " + section.str() + "\n}\n";
  }
  harness::write_file_atomic(out_path, text);

  std::printf("== extra_topology: %s, four-parameter sweep x topology ==\n",
              app.c_str());
  harness::Table t({"topology", "procs", "param", "sim cycles", "ev/s",
                    "links", "link wait", "hottest", "ok"});
  for (const Point& p : points) {
    t.add_row({p.topology, std::to_string(p.procs), p.param,
               std::to_string(p.serial.result.time),
               harness::fmt(p.serial.events_per_sec(), 0),
               std::to_string(p.links.links), std::to_string(p.links.wait),
               p.links.max_wait_link >= 0
                   ? "link" + std::to_string(p.links.max_wait_link) + "(" +
                         std::to_string(p.links.max_wait) + ")"
                   : "-",
               p.validated ? "yes" : "NO"});
  }
  t.print();
  std::printf("(merged into %s; crossbar eps@16 = %.0f)\n", out_path.c_str(),
              crossbar_eps_16);

  bool gates_ok = true;
  if (max_regression > 0) {
    if (!prev_eps) {
      std::fprintf(stderr,
                   "extra_topology: no previous topology section in %s; "
                   "skipping the --max-regression gate\n",
                   out_path.c_str());
    } else if (crossbar_eps_16 < (1.0 - max_regression) * *prev_eps) {
      std::fprintf(stderr,
                   "extra_topology: crossbar events/sec at 16 procs "
                   "regressed %.0f -> %.0f, past the --max-regression=%.2f "
                   "gate\n",
                   *prev_eps, crossbar_eps_16, max_regression);
      gates_ok = false;
    }
  }
  if (!par_identical) {
    std::fprintf(stderr, "extra_topology: serial/parallel results differ\n");
  }
  if (!all_validated) {
    std::fprintf(stderr, "extra_topology: a run failed validation\n");
  }
  return par_identical && all_validated && gates_ok ? 0 : 1;
}
