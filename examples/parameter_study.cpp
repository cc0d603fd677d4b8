// A miniature of the paper's methodology: pick one application and study how
// its end performance depends on each communication parameter, holding the
// others at the achievable point (paper section 3).
//
//   ./parameter_study [app] [--scale=tiny|small|large] [--jobs=N]
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "harness/cli.hpp"
#include "harness/job_pool.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"

int main(int argc, char** argv) {
  using namespace svmsim;
  using Kind = harness::Cli::Kind;
  static constexpr harness::Cli::Flag kFlags[] = {
      {"scale", Kind::kString},
      {"jobs", Kind::kInt, 1, harness::JobPool::kMaxWorkers}};
  const harness::Cli cli(argc, argv, kFlags);
  const std::string app =
      cli.positional().empty() ? "water-nsq" : cli.positional().front();
  const apps::Scale scale =
      cli.get_enum("scale", apps::kScaleNames, apps::Scale::kSmall);

  struct Study {
    const char* name;
    std::vector<double> values;
    std::function<void(SimConfig&, double)> apply;
  };
  const std::vector<Study> studies = {
      {"host overhead (cycles)",
       {0, 500, 1000, 2000},
       [](SimConfig& c, double v) {
         c.comm.host_overhead = static_cast<Cycles>(v);
       }},
      {"NI occupancy (cycles/packet)",
       {0, 1000, 2000, 4000},
       [](SimConfig& c, double v) {
         c.comm.ni_occupancy = static_cast<Cycles>(v);
       }},
      {"I/O bandwidth (MB/MHz)",
       {2.0, 0.5, 0.25, 0.125},
       [](SimConfig& c, double v) { c.comm.io_bus_mb_per_mhz = v; }},
      {"interrupt cost (cycles)",
       {0, 500, 2500, 5000},
       [](SimConfig& c, double v) {
         c.comm.interrupt_cost = static_cast<Cycles>(v);
       }},
  };

  SimConfig base;
  base.comm = CommParams::achievable();
  harness::Sweep sweep(scale);

  // Independent simulation points run concurrently under --jobs (default:
  // one per hardware thread; --jobs=1 forces the serial path).
  const auto jobs = static_cast<unsigned>(cli.get_int(
      "jobs", static_cast<long>(harness::JobPool::hardware_default())));
  std::unique_ptr<harness::JobPool> pool;
  if (jobs > 1) pool = std::make_unique<harness::JobPool>(jobs);

  std::printf("parameter sensitivity of '%s' (16 processors, 4 per node)\n\n",
              app.c_str());
  harness::Table table({"parameter", "value", "speedup", "slowdown vs best"});
  for (const auto& s : studies) {
    auto runs = sweep.run_sweep(app, base, s.values, s.apply, pool.get());
    for (const auto& r : runs) {
      if (r.failed()) {
        std::fprintf(stderr, "parameter_study: %s=%g failed: %s\n", s.name,
                     r.param, r.error.c_str());
        return 1;
      }
    }
    double best = 0;
    for (const auto& r : runs) best = std::max(best, r.speedup());
    for (const auto& r : runs) {
      table.add_row({s.name, harness::fmt(r.param, 3),
                     harness::fmt(r.speedup()),
                     harness::fmt((best / r.speedup() - 1.0) * 100.0, 1) + "%"});
    }
  }
  table.print();
  std::printf(
      "\nReading this the paper's way: the parameter whose worst value "
      "causes the largest slowdown is the one system designers should "
      "attack first.\n");
  return 0;
}
