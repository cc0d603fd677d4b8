#include "core/processor.hpp"

#include <utility>

#include "trace/trace.hpp"

namespace svmsim {

Processor::Processor(engine::Simulator& sim, const SimConfig& cfg,
                     ProcId global_id, int local_index, NodeId node,
                     memsys::MemoryBus& membus, Breakdown& breakdown)
    : sim_(&sim),
      cfg_(&cfg),
      id_(global_id),
      local_index_(local_index),
      node_(node),
      bd_(&breakdown),
      mem_(sim, cfg.arch, membus),
      handler_cpu_(sim) {}

engine::Task<void> Processor::drain() {
  while (pending_ > 0 || steal_ > 0) {
    const Cycles p = std::exchange(pending_, 0);
    const Cycles s = std::exchange(steal_, 0);
    if (s > 0) {
      bd_->add(TimeCat::kHandler, s);
      trace_time(TimeCat::kHandler, s);
    }
    co_await sim_->delay(p + s);
    // More handler time may have been stolen while we advanced; loop.
  }
  flush_trace_spans();
}

void Processor::mark_finished(Cycles t) {
  finished_at_ = t;
  flush_trace_spans();
}

void Processor::flush_trace_spans() {
  trace::Tracer* t = sim_->tracer();
  if (t == nullptr) return;
  if (!t->wants(trace::Category::kSched)) {
    trace_acc_.fill(0);
    return;
  }
  const Cycles now = sim_->now();
  for (std::size_t i = 0; i < trace_acc_.size(); ++i) {
    if (trace_acc_[i] == 0) continue;
    t->emit(now, trace::Event::kTimeSpan, id_, node_, trace_acc_[i],
            static_cast<std::uint64_t>(i));
    trace_acc_[i] = 0;
  }
}

engine::Task<Cycles> Processor::wait_begin() {
  co_await drain();
  co_return sim_->now();
}

void Processor::wait_end(TimeCat cat, Cycles t0) {
  const Cycles waited = sim_->now() - t0;
  bd_->add(cat, waited);
  trace_time(cat, waited);
  // Handler work that ran while the application was blocked anyway did not
  // slow the application down; forgive that much of the pending steal.
  steal_ = steal_ > waited ? steal_ - waited : 0;
}

engine::Task<void> Processor::interrupt_body(
    std::function<engine::Task<void>()> body, Cycles entry_cost) {
  const Cycles t0 = sim_->now();
  // Delivery cost (interrupt issue+delivery, or the poll check), then the
  // handler dispatch and the handler itself.
  co_await sim_->delay(entry_cost + cfg_->arch.handler_dispatch_cycles);
  co_await body();
  const Cycles dur = sim_->now() - t0;
  steal_ += dur;
  SVMSIM_PROBE(*sim_, kHandlerSpan, id_, node_, dur, entry_cost);
}

void Processor::service_interrupt(std::function<engine::Task<void>()> body) {
  engine::spawn(handler_cpu_.with(
      [this, body = std::move(body)]() mutable -> engine::Task<void> {
        return interrupt_body(std::move(body), 2 * cfg_->comm.interrupt_cost);
      }));
}

void Processor::service_polled(std::function<engine::Task<void>()> body) {
  engine::spawn(handler_cpu_.with(
      [this, body = std::move(body)]() mutable -> engine::Task<void> {
        return interrupt_body(std::move(body), cfg_->comm.poll_check_cost);
      }));
}

}  // namespace svmsim
