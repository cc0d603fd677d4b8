// Schedule exploration driver (docs/exploration.md): enumerate alternative
// wire-delivery / interrupt-dispatch interleavings of one small simulation
// point, running the consistency checker and end-of-run validation as the
// oracle on every branch — a model checker for the protocol stack, with the
// simulator itself as the state-space generator.
//
// Modes:
//   (default)             explore: DFS over the choice tree, report states /
//                         pruning / violations. Deterministic for a fixed
//                         flag set.
//   --record=<file>       run the baseline schedule once, write its decision
//                         log as a replay file.
//   --replay=<file>       re-execute one recorded schedule byte-identically
//                         and report its outcome. Unusable files (missing,
//                         truncated, corrupt, wrong version, wrong config
//                         fingerprint) exit kExitBadSchedule with a
//                         diagnostic naming the reason.
//
// Flags (harness::Cli: an undeclared or repeated flag, an unknown spelling
// and a number that does not parse in full or is out of range exit 2):
//   --app=<name>            default stress-micro@1
//   --procs=N --ppn=N       cluster size (default 2 nodes x 1 proc)
//   --protocol=hlrc|aurc    default hlrc
//   --interrupt=fixed|round-robin|polling
//   --page-bytes=N          small pages spread tiny arrays across pages
//   --mode=full|dependent   branching policy (default full)
//   --no-hb-prune           disable happens-before refinement (dependent)
//   --no-irq-choices        wire decisions only
//   --max-states=N          exploration budget (default 4096)
//   --stop-on-violation     stop at the first failing schedule
//   --save-violation=<file> write the first failing schedule as a replay file
//   --expect-states=N       exit 1 unless exactly N states were explored
//   --expect-violations=N   exit 1 unless exactly N violating runs were seen
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>

#include "bench_common.hpp"
#include "explore/explorer.hpp"
#include "harness/cli.hpp"

namespace {

using namespace svmsim;

constexpr std::pair<std::string_view, InterruptScheme> kInterruptNames[] = {
    {"fixed", InterruptScheme::kFixedProcessor},
    {"round-robin", InterruptScheme::kRoundRobin},
    {"polling", InterruptScheme::kPolling}};

constexpr std::pair<std::string_view, explore::Branching> kModeNames[] = {
    {"full", explore::Branching::kFull},
    {"dependent", explore::Branching::kDependent}};

using Kind = harness::Cli::Kind;
constexpr harness::Cli::Flag kFlags[] = {
    {"app", Kind::kString}, {"procs", Kind::kInt}, {"ppn", Kind::kInt, 1},
    {"protocol", Kind::kString}, {"interrupt", Kind::kString},
    {"page-bytes", Kind::kInt, 1}, {"wire-latency", Kind::kInt, 1},
    {"mode", Kind::kString}, {"no-hb-prune", Kind::kBool},
    {"no-irq-choices", Kind::kBool}, {"max-states", Kind::kInt, 0},
    {"stop-on-violation", Kind::kBool}, {"save-violation", Kind::kString},
    {"expect-states", Kind::kInt, 0}, {"expect-violations", Kind::kInt, 0},
    {"record", Kind::kString}, {"replay", Kind::kString}};

}  // namespace

int main(int argc, char** argv) {
  const harness::Cli cli(argc, argv, kFlags);
  const char* argv0 = cli.prog().c_str();

  const std::string app = cli.get_or("app", "stress-micro@1");
  const int ppn = static_cast<int>(cli.get_int("ppn", 1));
  const int total = bench::checked_total_procs(
      argv0, "--procs", cli.get_int("procs", 2L * ppn), ppn);

  SimConfig cfg = bench::base_config();
  cfg.comm.total_procs = total;
  cfg.comm.procs_per_node = ppn;
  cfg.comm.page_bytes =
      static_cast<std::uint32_t>(cli.get_int("page-bytes", 256));
  cfg.comm.protocol =
      cli.get_enum("protocol", kProtocolNames, Protocol::kHLRC);
  cfg.comm.interrupt_scheme = cli.get_enum(
      "interrupt", kInterruptNames, InterruptScheme::kFixedProcessor);
  // Longer flight times widen the windows in which independent deliveries
  // are co-pending, i.e. grow the choice tree; the canonical exhaustive
  // config raises this so even a two-node machine overlaps its channels.
  cfg.arch.wire_latency_cycles =
      static_cast<Cycles>(cli.get_int("wire-latency", 100));
  // The oracle: every explored run is checked and validated.
  cfg.check.enabled = true;

  explore::ExploreConfig xcfg;
  xcfg.branching =
      cli.get_enum("mode", kModeNames, explore::Branching::kFull);
  xcfg.hb_prune = !cli.has("no-hb-prune");
  xcfg.irq_choices = !cli.has("no-irq-choices");
  xcfg.max_states =
      static_cast<std::uint64_t>(cli.get_int("max-states", 4096));
  xcfg.stop_on_violation = cli.has("stop-on-violation");

  explore::Explorer ex(app, apps::Scale::kTiny, cfg, xcfg);

  if (const auto path = cli.get("replay")) {
    explore::Schedule sched;
    const explore::DecodeError err =
        explore::load_file(*path, ex.fingerprint(), sched);
    if (err != explore::DecodeError::kOk) {
      std::fprintf(stderr, "%s: cannot replay %s: %s\n", argv0, path->c_str(),
                   std::string(to_string(err)).c_str());
      return bench::kExitBadSchedule;
    }
    const explore::RunOutcome out = ex.run_schedule(sched);
    std::printf("replay %s: decisions=%zu time=%llu validated=%d "
                "violations=%llu%s%s\n",
                path->c_str(), out.schedule.size(),
                static_cast<unsigned long long>(out.result.time),
                out.result.validated ? 1 : 0,
                static_cast<unsigned long long>(out.result.check_violations),
                out.error ? " error=" : "", out.error_message.c_str());
    const bool bad = out.error || !out.result.validated ||
                     out.result.check_violations > 0;
    return bad ? 1 : 0;
  }

  if (const auto path = cli.get("record")) {
    const explore::RunOutcome out = ex.run_schedule({});
    if (!explore::save_file(*path, out.schedule, ex.fingerprint())) {
      std::fprintf(stderr, "%s: cannot write %s\n", argv0, path->c_str());
      return 1;
    }
    std::printf("recorded %s: decisions=%zu time=%llu validated=%d "
                "violations=%llu\n",
                path->c_str(), out.schedule.size(),
                static_cast<unsigned long long>(out.result.time),
                out.result.validated ? 1 : 0,
                static_cast<unsigned long long>(out.result.check_violations));
    return out.error || !out.result.validated ? 1 : 0;
  }

  const explore::ExploreResult res = ex.explore();
  std::printf(
      "explore %s procs=%d ppn=%d %s %s mode=%s%s%s: states=%llu "
      "decisions=%llu branches=%llu redundant=%llu sleep_pruned=%llu "
      "independent=%llu hb_pruned=%llu max_depth=%llu violations=%llu%s\n",
      app.c_str(), total, ppn,
      harness::spelling(kProtocolNames, cfg.comm.protocol).data(),
      harness::spelling(kInterruptNames, cfg.comm.interrupt_scheme).data(),
      to_string(xcfg.branching), xcfg.hb_prune ? "" : " no-hb",
      xcfg.irq_choices ? "" : " no-irq",
      static_cast<unsigned long long>(res.states),
      static_cast<unsigned long long>(res.decisions),
      static_cast<unsigned long long>(res.branches),
      static_cast<unsigned long long>(res.redundant),
      static_cast<unsigned long long>(res.sleep_pruned),
      static_cast<unsigned long long>(res.independent_pruned),
      static_cast<unsigned long long>(res.hb_pruned),
      static_cast<unsigned long long>(res.max_depth),
      static_cast<unsigned long long>(res.violations),
      res.budget_exhausted ? " (budget exhausted)" : "");

  if (const auto path = cli.get("save-violation")) {
    if (res.violating.empty()) {
      std::fprintf(stderr, "%s: no violating schedule to save\n", argv0);
      return 1;
    }
    if (!explore::save_file(*path, res.violating.front(),
                            ex.fingerprint())) {
      std::fprintf(stderr, "%s: cannot write %s\n", argv0, path->c_str());
      return 1;
    }
    std::printf("violating schedule (%zu decisions) written to %s\n",
                res.violating.front().size(), path->c_str());
  }

  if (cli.has("expect-states")) {
    const long want = cli.get_int("expect-states", 0);
    if (res.states != static_cast<std::uint64_t>(want)) {
      std::fprintf(stderr, "%s: expected %ld states, explored %llu\n", argv0,
                   want, static_cast<unsigned long long>(res.states));
      return 1;
    }
  }
  if (cli.has("expect-violations")) {
    const long want = cli.get_int("expect-violations", 0);
    if (res.violations != static_cast<std::uint64_t>(want)) {
      std::fprintf(stderr, "%s: expected %ld violations, found %llu\n",
                   argv0, want,
                   static_cast<unsigned long long>(res.violations));
      return 1;
    }
  }
  return 0;
}
