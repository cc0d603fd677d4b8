// Deterministic sweep dump for build- and mode-equivalence checking.
//
// Runs one small fixed sweep per protocol (HLRC and AURC; fft, lu and
// stress-gen@3 at tiny scale) and prints every observable of each run:
// execution time, events fired, validation flag, uniprocessor baseline,
// per-category time breakdown and the full protocol/communication counter
// set. The output is bit-reproducible, so diffing it between two builds or
// execution modes proves they fire events in the same (time, seq) order
// everywhere these protocols exercise the engine.
//
// The points, in print order: every (protocol, app) at host overhead 0 and
// 1000 first, then every (protocol, app) at the achievable point and with
// each of I/O-bus bandwidth, NI occupancy and interrupt cost alone at its
// best value (CommParams::best(); host overhead's best value is the 0
// above). So each of the paper's four communication parameters is swept
// away from the achievable point at every --procs and --topology. Each
// block's header line names the point's parameter and value ("achievable"
// for the base point).
//
// With --check-consistency every run additionally carries the shadow
// consistency checker (src/check/); the printed observables are unchanged —
// that is what tools/instrumentation_equivalence.sh verifies — but the process
// exits 1 if any run reports a violation.
//
// With --par-cores=N every run executes in PDES mode on N partition worker
// threads; the dump must still be byte-identical to the serial one, which is
// what tools/pdes_equivalence.sh verifies.
//
// With --apps=a,b,c the sweep is restricted to that comma list (any
// apps::make_app name, including stress-gen@<seed>).
//
// With --procs=N every run simulates an N-processor cluster instead of the
// paper's 16 (validated like every procs flag: exit 4 when out of range or
// not a multiple of procs_per_node) — the large-machine arms of
// tools/pdes_equivalence.sh, tools/sanitize.sh and tools/scale_check.sh use
// this.
//
// With --topology=<spec> every run uses that interconnect (src/topo/).
// "crossbar" is the default contention-free network; fat tree / torus runs
// append one "link" line per physical link (occupancy counters), which
// tools/scale_check.sh holds byte-identical between serial and --par-cores
// runs.
//
// A point that fails (a deadlock, a run past the cycle limit, a failed
// validation, a rejected config) prints no dump: the process names it on
// stderr and exits 1.
//
// Keep the format append-only: the equivalence checks compare byte-for-byte,
// and new points go after the existing ones so an older dump stays a byte
// prefix of a newer one.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace svmsim;

  harness::Cli cli(argc, argv);
  const bool check = cli.has("check-consistency");
  const int par_cores =
      static_cast<int>(std::max(1L, cli.get_int("par-cores", 1)));
  std::vector<std::string> app_list = {"fft", "lu", "stress-gen@3"};
  if (auto apps_arg = cli.get("apps")) {
    app_list.clear();
    std::stringstream ss(*apps_arg);
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) app_list.push_back(item);
    }
  }

  SimConfig base = bench::base_config();
  if (auto procs_arg = cli.get("procs")) {
    base.comm.total_procs = bench::checked_total_procs(
        argc > 0 ? argv[0] : "sweep_dump", "--procs",
        std::strtol(procs_arg->c_str(), nullptr, 10),
        base.comm.procs_per_node);
  }
  if (auto t = cli.get("topology")) {
    if (auto spec = topo::Spec::parse(*t)) {
      base.topology = *spec;
    } else {
      std::fprintf(stderr, "sweep_dump: unknown --topology value '%s'\n",
                   t->c_str());
      return bench::kExitBadTopology;
    }
    bench::checked_topology(argc > 0 ? argv[0] : "sweep_dump", base.topology,
                            base.comm.node_count());
  }

  harness::Sweep sweep(apps::Scale::kTiny);

  std::vector<harness::SweepPoint> points;
  std::vector<std::string> labels;  ///< per point, its block's header tail
  // One point: `app` under `proto` at the base config edited by `edit`.
  const auto add = [&](Protocol proto, const std::string& app,
                       std::string label, double value,
                       const std::function<void(CommParams&)>& edit) {
    SimConfig cfg = base;
    cfg.comm.protocol = proto;
    edit(cfg.comm);
    cfg.check.enabled = check;
    cfg.par_cores = par_cores;
    points.push_back({app, cfg, value});
    labels.push_back(std::move(label));
  };
  const auto named = [](const char* name, double value) {
    char label[64];
    std::snprintf(label, sizeof label, "%s=%g", name, value);
    return std::string(label);
  };
  const Protocol protocols[] = {Protocol::kHLRC, Protocol::kAURC};
  for (Protocol proto : protocols) {
    for (const std::string& app : app_list) {
      for (double overhead : {0.0, 1000.0}) {
        add(proto, app, named("host_overhead", overhead), overhead,
            [&](CommParams& c) {
              c.host_overhead = static_cast<Cycles>(overhead);
            });
      }
    }
  }
  const CommParams best = CommParams::best();
  const auto io_bus = best.io_bus_mb_per_mhz;
  const auto ni = static_cast<double>(best.ni_occupancy);
  const auto irq = static_cast<double>(best.interrupt_cost);
  for (Protocol proto : protocols) {
    for (const std::string& app : app_list) {
      add(proto, app, "achievable", 0, [](CommParams&) {});
      add(proto, app, named("io_bus_mb_per_mhz", io_bus), io_bus,
          [&](CommParams& c) { c.io_bus_mb_per_mhz = io_bus; });
      add(proto, app, named("ni_occupancy", ni), ni,
          [&](CommParams& c) { c.ni_occupancy = best.ni_occupancy; });
      add(proto, app, named("interrupt_cost", irq), irq,
          [&](CommParams& c) { c.interrupt_cost = best.interrupt_cost; });
    }
  }

  const auto runs = sweep.run_points(points);
  bench::exit_on_failed_point(argc > 0 ? argv[0] : "sweep_dump", runs);

  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    const auto& cfg = points[i].cfg;
    std::printf("%s proto=%s %s\n", r.app.c_str(),
                cfg.comm.protocol == Protocol::kAURC ? "aurc" : "hlrc",
                labels[i].c_str());
    std::printf("  time=%llu events=%llu validated=%d uniprocessor=%llu\n",
                static_cast<unsigned long long>(r.result.time),
                static_cast<unsigned long long>(r.result.events),
                r.result.validated ? 1 : 0,
                static_cast<unsigned long long>(r.uniprocessor));
    const auto& st = r.result.stats;
    for (int p = 0; p < st.procs(); ++p) {
      std::printf("  proc%d:", p);
      for (int c = 0; c < kTimeCats; ++c) {
        std::printf(" %llu", static_cast<unsigned long long>(
                                 st.proc(p).t[static_cast<std::size_t>(c)]));
      }
      std::printf("\n");
    }
    const auto& k = st.counters();
    std::printf(
        "  faults=%llu/%llu/%llu fetches=%llu locks=%llu/%llu barriers=%llu\n",
        static_cast<unsigned long long>(k.page_faults),
        static_cast<unsigned long long>(k.read_faults),
        static_cast<unsigned long long>(k.write_faults),
        static_cast<unsigned long long>(k.page_fetches),
        static_cast<unsigned long long>(k.local_lock_acquires),
        static_cast<unsigned long long>(k.remote_lock_acquires),
        static_cast<unsigned long long>(k.barriers));
    std::printf(
        "  msgs=%llu packets=%llu bytes=%llu interrupts=%llu polled=%llu\n",
        static_cast<unsigned long long>(k.messages_sent),
        static_cast<unsigned long long>(k.packets_sent),
        static_cast<unsigned long long>(k.bytes_sent),
        static_cast<unsigned long long>(k.interrupts),
        static_cast<unsigned long long>(k.polled_requests));
    std::printf(
        "  twins=%llu diffs=%llu diff_bytes=%llu notices=%llu invals=%llu "
        "updates=%llu update_bytes=%llu overflows=%llu\n",
        static_cast<unsigned long long>(k.twins_created),
        static_cast<unsigned long long>(k.diffs_created),
        static_cast<unsigned long long>(k.diff_bytes),
        static_cast<unsigned long long>(k.write_notices),
        static_cast<unsigned long long>(k.invalidations),
        static_cast<unsigned long long>(k.updates_sent),
        static_cast<unsigned long long>(k.update_bytes),
        static_cast<unsigned long long>(k.ni_queue_overflows));
    // Contended-topology runs only (empty otherwise): one line per physical
    // link, so the serial-vs-parallel diff also proves link-state identity.
    for (const auto& l : st.links()) {
      std::printf("  link%d owner=%d kind=%d grants=%llu busy=%llu "
                  "wait=%llu bytes=%llu\n",
                  l.id, l.owner, static_cast<int>(l.kind),
                  static_cast<unsigned long long>(l.grants),
                  static_cast<unsigned long long>(l.busy),
                  static_cast<unsigned long long>(l.wait),
                  static_cast<unsigned long long>(l.bytes));
    }
  }

  // Violation counts stay off stdout (the dump must be byte-identical with
  // the checker off) but still fail the process.
  std::uint64_t violations = 0;
  for (const auto& r : runs) violations += r.result.check_violations;
  if (violations > 0) {
    std::fprintf(stderr, "sweep_dump: %llu consistency violation(s)\n",
                 static_cast<unsigned long long>(violations));
    return 1;
  }
  return 0;
}
