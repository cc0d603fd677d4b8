// Deterministic sweep dump for build- and instrumentation-equivalence
// checking.
//
// Runs one small fixed sweep per protocol (HLRC and AURC; fft, lu and
// stress-gen@3 at tiny scale) and prints every observable of each run:
// execution time, events fired, validation flag, uniprocessor baseline,
// per-category time breakdown and the full protocol/communication counter
// set. The output is bit-reproducible, so diffing it between two builds, or
// with the checker off and on, proves they fire events in the same
// (time, seq) order everywhere these protocols exercise the engine.
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
// With --apps=a,b,c the sweep is restricted to that comma list (any
// apps::make_app name, including stress-gen@<seed>).
//
// With --procs=N every run simulates an N-processor cluster instead of the
// paper's 16 (validated like every procs flag: exit 4 when out of range or
// not a multiple of procs_per_node) — the large-machine arms of
// tools/sanitize.sh and tools/scale_check.sh use this.
//
// With --topology=<spec> every run uses that interconnect (src/topo/).
// "crossbar" is the default contention-free network; fat tree / torus runs
// append one "link" line per physical link (occupancy counters), which
// tools/scale_check.sh requires.
//
// Any other --flag, a repeated one and a --procs that is not an integer
// exit 2 and name it (harness::Cli). --apps and --topology are read as in
// paper: an unknown app name exits 2, a malformed spec exits 5.
//
// A point that fails (a deadlock, a run past the cycle limit, a failed
// validation, a rejected config) prints no dump: the process names it on
// stderr and exits 1.
//
// Keep the format append-only: the equivalence checks compare byte-for-byte,
// and new points go after the existing ones so an older dump stays a byte
// prefix of a newer one.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace svmsim;

  using Kind = harness::Cli::Kind;
  static constexpr harness::Cli::Flag kFlags[] = {
      {"check-consistency", Kind::kBool}, {"apps", Kind::kString},
      {"procs", Kind::kInt}, {"topology", Kind::kString}};
  const harness::Cli cli(argc, argv, kFlags);
  const bool check = cli.has("check-consistency");
  const std::vector<std::string> app_list =
      bench::read_apps(cli, {"fft", "lu", "stress-gen@3"});

  SimConfig base = bench::base_config();
  if (cli.has("procs")) {
    base.comm.total_procs = bench::checked_total_procs(
        cli.prog().c_str(), "--procs", cli.get_int("procs", 0),
        base.comm.procs_per_node);
  }
  base.topology = bench::read_topology(cli);
  bench::checked_topology(cli.prog().c_str(), base.topology,
                          base.comm.node_count());

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
  bench::exit_on_failed_point(cli.prog().c_str(), runs);

  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    const auto& cfg = points[i].cfg;
    std::printf("%s proto=%s %s\n", r.app.c_str(),
                harness::spelling(kProtocolNames, cfg.comm.protocol).data(),
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
    // link, so a diff of two dumps also compares link state.
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
