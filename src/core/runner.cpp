#include "core/runner.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/checker.hpp"
#include "engine/choice.hpp"
#include "trace/trace.hpp"

namespace svmsim {

namespace {

engine::Task<void> proc_main(Workload& w, Machine& m, ProcId pid,
                             int& finished) {
  co_await w.body(m, pid);
  // Final global barrier: flushes every node and guarantees quiescence, so
  // validation can read home copies.
  co_await m.agent_of(pid).barrier(m.proc(pid));
  co_await m.proc(pid).drain();
  m.proc(pid).mark_finished(m.sim().now());
  ++finished;
}

}  // namespace

double RunResult::per_proc_per_mcycles(std::uint64_t events) const {
  // (events / procs) per (compute / procs) million cycles: the processor
  // counts cancel, leaving events per million total compute cycles.
  const double compute = static_cast<double>(stats.total_compute());
  if (compute <= 0) return 0.0;
  return static_cast<double>(events) * 1e6 / compute;
}

RunResult run(Workload& w, const SimConfig& cfg, Cycles max_cycles,
              engine::ChoiceHook* hook) {
  Machine m(cfg);
  if (hook != nullptr) {
    m.sim().set_choice_hook(hook);
    hook->on_attach(m.checker());
  }
  w.setup(m);

  int finished = 0;
  const int n = m.total_procs();
  {
    engine::ScopedFrameRegistry scope(m.registry());
    for (ProcId pid = 0; pid < n; ++pid) {
      engine::spawn(proc_main(w, m, pid, finished));
    }
  }
  if (!m.sim().run_until(max_cycles)) {
    throw std::runtime_error(w.name() + ": exceeded max simulated cycles");
  }
  if (finished != n) {
    for (NodeId nd = 0; nd < m.node_count(); ++nd) {
      m.agent(nd).dump_lock_state();
    }
    throw std::runtime_error(w.name() + ": simulation deadlocked (" +
                             std::to_string(finished) + "/" +
                             std::to_string(n) + " processors finished)");
  }

  RunResult r;
  m.finalize_stats();  // per-link occupancy into stats (topology runs only)
  r.stats = m.stats();
  r.events = m.sim().queue().events_fired();
  for (ProcId pid = 0; pid < n; ++pid) {
    r.time = std::max(r.time, m.proc(pid).finished_at());
  }
  r.validated = w.validate(m);
  if (check::Checker* ck = m.checker()) {
    // The final barrier + drain above guarantee every interval is flushed,
    // so the end-of-run structural checks are meaningful.
    ck->finalize(r.time);
    r.check_violations = ck->violation_count();
    if (r.check_violations > 0) {
      ck->report(w.name(), stderr);
      // Preserve the failing run's event trace for replay through
      // tools/trace2chrome (see docs/checking.md).
      if (!cfg.check.trace_path.empty()) {
        if (trace::Tracer* t = m.tracer()) {
          trace::write_file(t->capture(m.stats(), r.time),
                            cfg.check.trace_path);
          std::fprintf(stderr, "svmsim-check: violation trace written to %s\n",
                       cfg.check.trace_path.c_str());
        }
      }
    }
  }
  // Publish the trace (if one was recorded to a file): the run's final
  // Stats are embedded so the trace is self-checkable (trace::check).
  if (trace::Tracer* t = m.tracer()) t->finish(r.stats, r.time);
  return r;
}

SimConfig uniprocessor_config(const SimConfig& cfg) {
  SimConfig uni = cfg;
  uni.comm.total_procs = 1;
  uni.comm.procs_per_node = 1;
  // A one-node machine sends no packets, so the interconnect cannot matter;
  // drop to the legacy network rather than demand the topology (a fixed
  // torus extent, say) fit a single node.
  uni.topology = topo::Spec{};
  // Baseline runs are never traced or checked: the interesting run is the
  // parallel one, and a shared trace path must not be overwritten by the
  // baseline.
  uni.trace = trace::Config{};
  uni.check = check::Config{};
  return uni;
}

}  // namespace svmsim
