#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace svmsim::bench {

Options Options::parse(int argc, char** argv) {
  harness::Cli cli(argc, argv);
  Options opt;
  opt.prog = argc > 0 ? argv[0] : "bench";
  const std::string scale = cli.get_or("scale", "small");
  if (scale == "tiny") {
    opt.scale = apps::Scale::kTiny;
  } else if (scale == "large") {
    opt.scale = apps::Scale::kLarge;
  } else {
    opt.scale = apps::Scale::kSmall;
  }
  opt.csv_dir = cli.get_or("csv", "");
  if (auto apps_arg = cli.get("apps")) {
    std::stringstream ss(*apps_arg);
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (item.empty()) continue;
      // The registry is the one list of names: an unknown one is a usage
      // error here, not an uncaught throw from the first sweep point.
      try {
        (void)apps::make_app(item, apps::Scale::kTiny);
      } catch (const std::invalid_argument&) {
        std::fprintf(stderr, "%s: unknown --apps value '%s'\n",
                     opt.prog.c_str(), item.c_str());
        std::exit(2);
      }
      opt.app_names.push_back(item);
    }
  } else {
    opt.app_names = apps::suite();
  }
  opt.trace.path = cli.get_or("trace", "");
  opt.trace.enabled = !opt.trace.path.empty();
  if (auto cats = cli.get("trace-categories")) {
    if (auto mask = trace::parse_mask(*cats)) {
      opt.trace.mask = *mask;
    } else {
      std::fprintf(stderr,
                   "unknown --trace-categories value '%s' "
                   "(expected a comma list of page,lock,net,irq,sched)\n",
                   cats->c_str());
      std::exit(2);
    }
  }
  opt.check.enabled = cli.has("check-consistency");
  opt.par_cores = std::max(1, static_cast<int>(cli.get_int("par-cores", 1)));
  if (opt.trace.enabled && opt.par_cores > 1) {
    // Catch the conflict at the CLI instead of the Machine constructor's
    // throw, with a distinct exit code scripts can branch on.
    std::fprintf(stderr,
                 "%s: --trace cannot be combined with --par-cores=%d: a "
                 "trace is one global event stream in emission order, and "
                 "partition workers emitting concurrently would interleave "
                 "nondeterministically (see docs/tracing.md). Drop --trace "
                 "or run with --par-cores=1.\n",
                 argc > 0 ? argv[0] : "bench", opt.par_cores);
    std::exit(kExitTracedParallel);
  }
  if (auto t = cli.get("topology")) {
    if (auto spec = topo::Spec::parse(*t)) {
      opt.topology = *spec;
    } else {
      std::fprintf(stderr,
                   "%s: unknown --topology value '%s' (expected legacy, "
                   "crossbar, fattree:<even k in [2,64]>, or "
                   "torus:<X>x<Y>[x<Z>] with positive dimensions)\n",
                   opt.prog.c_str(), t->c_str());
      std::exit(kExitBadTopology);
    }
  }
  // Architecture overrides are validated here, at parse time, with the same
  // check the Machine constructor applies — the bench exits kExitBadArch
  // instead of dying on the constructor's throw mid-sweep.
  opt.arch = SimConfig{}.arch;
  opt.arch.link_bytes_per_cycle =
      cli.get_double("link-bytes-per-cycle", opt.arch.link_bytes_per_cycle);
  opt.arch.wire_latency_cycles = static_cast<Cycles>(cli.get_int(
      "wire-latency", static_cast<long>(opt.arch.wire_latency_cycles)));
  if (const std::string err = opt.arch.validate(); !err.empty()) {
    std::fprintf(stderr, "%s: bad architecture parameter: %s\n",
                 opt.prog.c_str(), err.c_str());
    std::exit(kExitBadArch);
  }
  // Jobs x par_cores threads run at once: when PDES mode is on, shrink the
  // default job count so the machine is not oversubscribed. An explicit
  // --jobs always wins.
  long default_jobs = static_cast<long>(harness::JobPool::hardware_default());
  if (opt.par_cores > 1) {
    default_jobs = std::max(1L, default_jobs / opt.par_cores);
  }
  opt.jobs = static_cast<int>(cli.get_int("jobs", default_jobs));
  opt.jobs = std::max(1, opt.jobs);
  if (opt.jobs > 1) {
    opt.pool_ = std::make_shared<harness::JobPool>(
        static_cast<unsigned>(opt.jobs));
  }
  return opt;
}

int checked_total_procs(const char* argv0, const char* flag, long total,
                        int procs_per_node) {
  const char* prog = argv0 != nullptr ? argv0 : "bench";
  if (total <= 0 || total > kMaxTotalProcs) {
    std::fprintf(stderr,
                 "%s: %s=%ld is out of range: the simulated cluster must "
                 "have between 1 and %ld processors\n",
                 prog, flag, total, kMaxTotalProcs);
    std::exit(kExitBadProcs);
  }
  if (procs_per_node <= 0 || total % procs_per_node != 0) {
    std::fprintf(stderr,
                 "%s: %s=%ld is not a multiple of procs_per_node=%d: nodes "
                 "are whole, so the cluster size must be a positive multiple "
                 "of the processors per node\n",
                 prog, flag, total, procs_per_node);
    std::exit(kExitBadProcs);
  }
  return static_cast<int>(total);
}

void checked_topology(const char* argv0, const topo::Spec& spec, int nodes) {
  if (topo::fits(spec, nodes)) return;
  std::fprintf(stderr,
               "%s: --topology=%s does not fit a %d-node cluster: a fat "
               "tree of arity k hosts up to k^3/4 nodes and a torus needs "
               "its dimension product to equal the node count exactly\n",
               argv0 != nullptr ? argv0 : "bench", spec.to_string().c_str(),
               nodes);
  std::exit(kExitBadTopology);
}

SimConfig base_config() {
  SimConfig cfg;
  cfg.comm = CommParams::achievable();
  return cfg;
}

std::vector<harness::SweepPoint> suite_points(
    const std::vector<double>& values,
    const std::function<void(SimConfig&, double)>& apply, const Options& opt) {
  std::vector<harness::SweepPoint> points;
  points.reserve(opt.app_names.size() * values.size());
  for (const auto& app : opt.app_names) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      harness::SweepPoint p{app, base_config(), values[i]};
      apply(p.cfg, values[i]);
      p.cfg.arch = opt.arch;
      p.cfg.topology = opt.topology;
      // apply() may resize the cluster, so fit is checked per point.
      checked_topology(opt.prog.c_str(), p.cfg.topology,
                       p.cfg.comm.node_count());
      p.cfg.par_cores = opt.par_cores;
      p.cfg.trace = opt.trace;
      if (opt.trace.enabled) {
        // Each point is its own Machine/run: give each its own trace file.
        p.cfg.trace.path =
            opt.trace.path + "." + app + "-" + std::to_string(i);
      }
      p.cfg.check = opt.check;
      if (opt.check.enabled && opt.trace.enabled) {
        // A violating point dumps its trace for trace2chrome replay.
        p.cfg.check.trace_path = p.cfg.trace.path + ".violation";
      }
      points.push_back(std::move(p));
    }
  }
  return points;
}

std::vector<std::vector<harness::AppRun>> run_figure(
    const std::string& figure, const std::string& param_name,
    const std::vector<double>& values,
    const std::function<void(SimConfig&, double)>& apply, const Options& opt,
    harness::Sweep& sweep,
    const std::function<std::string(double)>& value_label) {
  auto label = [&](double v) {
    return value_label ? value_label(v) : harness::fmt(v, 0);
  };

  std::vector<std::string> header{"application"};
  for (double v : values) header.push_back(param_name + "=" + label(v));
  harness::Table table(header);

  // One flat batch across the whole suite: with --jobs > 1 every
  // (app, value) point runs concurrently, not just the points of one app.
  std::vector<harness::AppRun> flat =
      sweep.run_points(suite_points(values, apply, opt), opt.pool());

  // --check-consistency turns the bench into a pass/fail harness: any
  // violation (already reported per-run on stderr) fails the process.
  std::uint64_t violations = 0;
  for (const auto& r : flat) violations += r.result.check_violations;
  if (violations > 0) {
    std::fprintf(stderr,
                 "%s: consistency checker found %llu violation(s)\n",
                 figure.c_str(),
                 static_cast<unsigned long long>(violations));
    std::exit(1);
  }

  std::vector<std::vector<harness::AppRun>> all;
  auto it = flat.begin();
  for (const auto& app : opt.app_names) {
    std::vector<harness::AppRun> runs(
        std::make_move_iterator(it),
        std::make_move_iterator(it + static_cast<std::ptrdiff_t>(values.size())));
    it += static_cast<std::ptrdiff_t>(values.size());
    std::vector<std::string> row{app};
    for (const auto& r : runs) row.push_back(harness::fmt(r.speedup()));
    table.add_row(std::move(row));
    all.push_back(std::move(runs));
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");

  std::printf("== %s: speedup (16 processors) vs %s ==\n", figure.c_str(),
              param_name.c_str());
  table.print();
  harness::maybe_write_csv(table, opt.csv_dir, figure);
  return all;
}

void print_relation(const std::string& figure,
                    const std::string& slowdown_label,
                    const std::string& metric_label,
                    const std::vector<std::vector<harness::AppRun>>& sweeps,
                    const std::function<double(const harness::AppRun&)>& metric,
                    const Options& opt) {
  std::vector<double> slowdowns;
  std::vector<double> metrics;
  for (const auto& runs : sweeps) {
    slowdowns.push_back(std::max(0.0, harness::max_slowdown_pct(runs)));
    metrics.push_back(metric(runs.front()));
  }
  const double max_s = std::max(1e-12, *std::max_element(slowdowns.begin(),
                                                         slowdowns.end()));
  const double max_m =
      std::max(1e-12, *std::max_element(metrics.begin(), metrics.end()));

  harness::Table table({"application", slowdown_label, metric_label});
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    table.add_row({opt.app_names[i], harness::fmt(slowdowns[i] / max_s),
                   harness::fmt(metrics[i] / max_m)});
  }
  std::printf("== %s: normalized %s vs normalized %s ==\n", figure.c_str(),
              slowdown_label.c_str(), metric_label.c_str());
  table.print();
  harness::maybe_write_csv(table, opt.csv_dir, figure);
}

}  // namespace svmsim::bench
