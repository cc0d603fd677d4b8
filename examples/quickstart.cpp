// Quickstart: simulate one SPLASH-2-style application on a 16-processor SVM
// cluster at the paper's "achievable" communication parameters, and print
// the speedup plus a time breakdown.
//
//   ./quickstart [app] [--scale=tiny|small|large]
#include <cstdio>
#include <stdexcept>
#include <string>

#include "apps/registry.hpp"
#include "core/runner.hpp"
#include "harness/cli.hpp"

namespace {

using namespace svmsim;

constexpr harness::Cli::Flag kFlags[] = {
    {"scale", harness::Cli::Kind::kString}};

int quickstart(const harness::Cli& cli) {
  const std::string app_name =
      cli.positional().empty() ? "fft" : cli.positional().front();
  const apps::Scale scale =
      cli.get_enum("scale", apps::kScaleNames, apps::Scale::kSmall);

  // The cluster: 16 processors in 4-way SMP nodes, HLRC protocol, and the
  // paper's achievable communication parameters (Table 1).
  SimConfig cfg;
  cfg.comm = CommParams::achievable();

  std::printf("running '%s' (%s) on %d processors (%d nodes x %d), %s...\n",
              app_name.c_str(), apps::to_string(scale).c_str(),
              cfg.comm.total_procs,
              cfg.comm.node_count(), cfg.comm.procs_per_node,
              to_string(cfg.comm.protocol).c_str());

  auto parallel = apps::make_app(app_name, scale);
  RunResult par = run(*parallel, cfg);

  auto sequential = apps::make_app(app_name, scale);
  RunResult uni = run(*sequential, uniprocessor_config(cfg));

  std::printf("\nresult valid: %s\n", par.validated ? "yes" : "NO");
  std::printf("uniprocessor time : %12llu cycles\n",
              static_cast<unsigned long long>(uni.time));
  std::printf("parallel time     : %12llu cycles\n",
              static_cast<unsigned long long>(par.time));
  std::printf("speedup           : %12.2f\n",
              static_cast<double>(uni.time) / static_cast<double>(par.time));
  std::printf("ideal speedup     : %12.2f  (compute + local stall only)\n",
              static_cast<double>(uni.time) /
                  static_cast<double>(par.stats.max_local_only()));

  std::printf("\nwhere the parallel time went (all processors):\n");
  const Breakdown agg = par.stats.aggregate();
  for (int i = 0; i < kTimeCats; ++i) {
    const auto cat = static_cast<TimeCat>(i);
    std::printf("  %-14s %6.2f%%\n", std::string(to_string(cat)).c_str(),
                100.0 * static_cast<double>(agg.get(cat)) /
                    static_cast<double>(agg.total()));
  }

  const Counters& c = par.stats.counters();
  std::printf("\nprotocol activity:\n");
  std::printf("  page fetches    %8llu\n",
              static_cast<unsigned long long>(c.page_fetches));
  std::printf("  lock acquires   %8llu local, %llu remote\n",
              static_cast<unsigned long long>(c.local_lock_acquires),
              static_cast<unsigned long long>(c.remote_lock_acquires));
  std::printf("  messages        %8llu (%.2f MB on the wire)\n",
              static_cast<unsigned long long>(c.messages_sent),
              static_cast<double>(c.bytes_sent) / 1e6);
  std::printf("  interrupts      %8llu\n",
              static_cast<unsigned long long>(c.interrupts));
  return par.validated ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv, kFlags);
  try {
    return quickstart(cli);
  } catch (const std::invalid_argument& e) {
    // An application name apps::make_app does not know: report it, exit 1.
    std::fprintf(stderr, "%s: %s\n", cli.prog().c_str(), e.what());
    return 1;
  }
}
