#include "bench_common.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace svmsim::bench {

std::vector<std::string> read_apps(const harness::Cli& cli,
                                   std::vector<std::string> def) {
  const auto apps_arg = cli.get("apps");
  if (!apps_arg) return def;
  std::vector<std::string> names;
  std::stringstream ss(*apps_arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    // The registry is the one list of names: an unknown one is a usage
    // error here, not an uncaught throw from the first sweep point.
    try {
      (void)apps::make_app(item, apps::Scale::kTiny);
    } catch (const std::invalid_argument&) {
      cli.fail("unknown --apps value '" + item + "'");
    }
    names.push_back(item);
  }
  return names;
}

topo::Spec read_topology(const harness::Cli& cli) {
  const auto t = cli.get("topology");
  if (!t) return {};
  if (auto spec = topo::Spec::parse(*t)) return *spec;
  std::fprintf(stderr,
               "%s: unknown --topology value '%s' (expected legacy, "
               "crossbar, fattree:<even k in [2,64]>, or "
               "torus:<X>x<Y>[x<Z>] with positive dimensions)\n",
               cli.prog().c_str(), t->c_str());
  std::exit(kExitBadTopology);
}

Options Options::parse(int argc, char** argv) {
  using Kind = harness::Cli::Kind;
  static constexpr harness::Cli::Flag kFlags[] = {
      {"scale", Kind::kString}, {"csv", Kind::kString}, {"apps", Kind::kString},
      {"jobs", Kind::kInt, 1, harness::JobPool::kMaxWorkers},
      {"trace", Kind::kString}, {"trace-categories", Kind::kString},
      {"check-consistency", Kind::kBool}, {"topology", Kind::kString},
      {"link-bytes-per-cycle", Kind::kDouble}, {"wire-latency", Kind::kInt, 0}};
  const harness::Cli cli(argc, argv, kFlags);
  Options opt;
  opt.prog = cli.prog();
  opt.names = cli.positional();
  opt.scale = cli.get_enum("scale", apps::kScaleNames, apps::Scale::kSmall);
  opt.csv_dir = cli.get_or("csv", "");
  if (!opt.csv_dir.empty()) {
    // Checked before any point runs: a missing directory would otherwise
    // surface only when the first finished table is written.
    std::error_code ec;
    if (!std::filesystem::is_directory(opt.csv_dir, ec) ||
        ::access(opt.csv_dir.c_str(), W_OK) != 0) {
      cli.fail("--csv directory '" + opt.csv_dir +
               "' does not exist or is not writable");
    }
  }
  opt.app_names = read_apps(cli, apps::suite());
  opt.trace.path = cli.get_or("trace", "");
  opt.trace.enabled = !opt.trace.path.empty();
  if (auto cats = cli.get("trace-categories")) {
    if (auto mask = trace::parse_mask(*cats)) {
      opt.trace.mask = *mask;
    } else {
      cli.fail("unknown --trace-categories value '" + *cats +
               "' (expected a comma list of page,lock,net,irq,sched)");
    }
  }
  opt.check.enabled = cli.has("check-consistency");
  opt.topology = read_topology(cli);
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
  opt.jobs = static_cast<int>(cli.get_int(
      "jobs", static_cast<long>(harness::JobPool::hardware_default())));
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
