// One simulated processor.
//
// Timing model (augmint-style direct execution): application compute and
// cache hits accumulate on a *local* pending-cycle counter without touching
// the event queue; the processor synchronizes with global simulated time
// (drain()) only at misses, faults, messages and synchronization points.
//
// Interrupt handlers for incoming remote requests run on a victim processor
// (processor 0 of the node by default). Handler occupancy is "stolen" from
// the victim's application: it is injected into the app's timeline at its
// next drain, except where it overlapped a wait (a processor idling at a
// barrier services interrupts for free).
#pragma once

#include <array>
#include <functional>

#include "core/params.hpp"
#include "core/stats.hpp"
#include "engine/resource.hpp"
#include "engine/simulator.hpp"
#include "engine/task.hpp"
#include "memsys/memory_bus.hpp"
#include "memsys/memory_system.hpp"

namespace svmsim {

class Processor {
 public:
  Processor(engine::Simulator& sim, const SimConfig& cfg, ProcId global_id,
            int local_index, NodeId node, memsys::MemoryBus& membus,
            Breakdown& breakdown);

  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  [[nodiscard]] ProcId id() const noexcept { return id_; }
  [[nodiscard]] int local_index() const noexcept { return local_index_; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] engine::Simulator& sim() noexcept { return *sim_; }
  [[nodiscard]] memsys::ProcMemory& mem() noexcept { return mem_; }
  [[nodiscard]] Breakdown& breakdown() noexcept { return *bd_; }

  /// The processor's local clock: global time plus unsynchronized work.
  [[nodiscard]] Cycles local_now() const noexcept {
    return sim_->now() + pending_;
  }

  /// Account `c` cycles of local work (accumulates; no event-queue traffic).
  void charge(TimeCat cat, Cycles c) {
    bd_->add(cat, c);
    pending_ += c;
    trace_time(cat, c);
  }

  /// Account cycles that already elapsed on the global clock (slow paths).
  void note(TimeCat cat, Cycles c) {
    bd_->add(cat, c);
    trace_time(cat, c);
  }

  /// Synchronize local time with the global clock, absorbing any handler
  /// time stolen by interrupts in the meantime.
  engine::Task<void> drain();

  /// Begin a timed wait: drains first, returns the wait start time.
  engine::Task<Cycles> wait_begin();

  /// End a timed wait started at `t0`: charge the elapsed time to `cat` and
  /// forgive handler steal that overlapped the wait.
  void wait_end(TimeCat cat, Cycles t0);

  /// Run an interrupt handler on this processor: pays interrupt issue +
  /// delivery cost, serializes with other handlers on this processor, and
  /// steals the elapsed time from the application.
  void service_interrupt(std::function<engine::Task<void>()> body);

  /// Run a handler found by polling: like service_interrupt but without
  /// the interrupt issue/delivery cost (only the poll-check charge).
  void service_polled(std::function<engine::Task<void>()> body);

  /// Total simulated time at which this processor finished its program.
  [[nodiscard]] Cycles finished_at() const noexcept { return finished_at_; }
  void mark_finished(Cycles t);

 private:
  engine::Task<void> interrupt_body(std::function<engine::Task<void>()> body,
                                    Cycles entry_cost);

  /// Tracing mirror of the Breakdown: every bucket increment accumulates
  /// here too (only while a tracer is attached) and is flushed as one
  /// kTimeSpan record per category at drain()/mark_finished(), so the
  /// per-processor per-category sums over a trace equal the Breakdown
  /// exactly. Two extra instructions on the hot charge() path when no
  /// tracer is attached.
  void trace_time(TimeCat cat, Cycles c) noexcept {
    if (sim_->tracer() != nullptr) {
      trace_acc_[static_cast<std::size_t>(cat)] += c;
    }
  }
  void flush_trace_spans();

  engine::Simulator* sim_;
  const SimConfig* cfg_;
  ProcId id_;
  int local_index_;
  NodeId node_;
  Breakdown* bd_;
  memsys::ProcMemory mem_;

  Cycles pending_ = 0;  ///< local work not yet pushed to the global clock
  Cycles steal_ = 0;    ///< handler time to inject at the next drain
  engine::Resource handler_cpu_;  ///< serializes handlers on this processor
  Cycles finished_at_ = 0;
  std::array<Cycles, kTimeCats> trace_acc_{};  ///< unflushed span cycles
};

}  // namespace svmsim
