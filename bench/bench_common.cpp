#include "bench_common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace svmsim::bench {

Options Options::parse(int argc, char** argv) {
  harness::Cli cli(argc, argv);
  Options opt;
  opt.prog = argc > 0 ? argv[0] : "bench";
  const std::string scale = cli.get_or("scale", "small");
  if (scale == "tiny") {
    opt.scale = apps::Scale::kTiny;
  } else if (scale == "small") {
    opt.scale = apps::Scale::kSmall;
  } else if (scale == "large") {
    opt.scale = apps::Scale::kLarge;
  } else {
    std::fprintf(stderr,
                 "%s: unknown --scale value '%s' (expected tiny, small or "
                 "large)\n",
                 opt.prog.c_str(), scale.c_str());
    std::exit(2);
  }
  opt.csv_dir = cli.get_or("csv", "");
  if (!opt.csv_dir.empty()) {
    // Checked before any point runs: a missing directory would otherwise
    // surface only when the first finished table is written.
    std::error_code ec;
    if (!std::filesystem::is_directory(opt.csv_dir, ec) ||
        ::access(opt.csv_dir.c_str(), W_OK) != 0) {
      std::fprintf(stderr,
                   "%s: --csv directory '%s' does not exist or is not "
                   "writable\n",
                   opt.prog.c_str(), opt.csv_dir.c_str());
      std::exit(2);
    }
  }
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
  if (auto c = cli.get("check-consistency")) {
    // A bare flag reads as "1"; anything else is a word the parser took as
    // its value (`paper --check-consistency fig05_host_overhead`), which
    // would otherwise be dropped without a word.
    if (*c != "1") {
      std::fprintf(stderr,
                   "%s: --check-consistency takes no value, got '%s' (put "
                   "names before the flags)\n",
                   opt.prog.c_str(), c->c_str());
      std::exit(2);
    }
    opt.check.enabled = true;
  }
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

void exit_on_failed_point(const char* argv0,
                          std::span<const harness::AppRun> runs) {
  const char* prog = argv0 != nullptr ? argv0 : "bench";
  bool failed = false;
  for (const harness::AppRun& r : runs) {
    if (!r.failed()) continue;
    failed = true;
    std::fprintf(stderr, "%s: %s at %g failed: %s\n", prog, r.app.c_str(),
                 r.param, r.error.c_str());
  }
  if (failed) std::exit(1);
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

void PointBuilder::add(const std::string& app, double value,
                       const std::function<void(SimConfig&)>& edit) {
  const int index = per_app_[app]++;
  harness::SweepPoint p{app, base_config(), value};
  if (edit) edit(p.cfg);
  p.cfg.arch = opt_.arch;
  p.cfg.topology = opt_.topology;
  checked_topology(opt_.prog.c_str(), p.cfg.topology, p.cfg.comm.node_count());
  p.cfg.par_cores = opt_.par_cores;
  p.cfg.trace = opt_.trace;
  if (opt_.trace.enabled) {
    // Each point is its own Machine/run: give each its own trace file.
    p.cfg.trace.path = opt_.trace.path + "." + figure_ + "." + app + "-" +
                       std::to_string(index);
  }
  p.cfg.check = opt_.check;
  if (opt_.check.enabled && opt_.trace.enabled) {
    // A violating point dumps its trace for trace2chrome replay.
    p.cfg.check.trace_path = p.cfg.trace.path + ".violation";
  }
  points_.push_back(std::move(p));
}

void PointBuilder::sweep(
    const std::vector<double>& values,
    const std::function<void(SimConfig&, double)>& apply) {
  for (const auto& app : opt_.app_names) {
    for (double v : values) {
      add(app, v, [&](SimConfig& c) { apply(c, v); });
    }
  }
}

}  // namespace svmsim::bench
