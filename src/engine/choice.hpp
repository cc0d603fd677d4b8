// Choice-point hook: the single interface through which every source of
// schedule nondeterminism the engine models is exposed to an external
// driver. Three kinds of decision funnel through it:
//
//  * Wire-band deliveries (WireArbiter::choose_wire, inherited): which of
//    the co-pending delivery channels' head packets crosses the wire next.
//  * Interrupt victim selection (choose_victim): which processor services a
//    message interrupt under the round-robin and polling schemes (the
//    fixed-processor scheme has exactly one legal victim, so it is never
//    consulted).
//  * Poll slip (choose_poll_slip): under the polling scheme, whether a
//    handler dispatch lands on the next poll tick or slips one interval —
//    modeling the race between a message arrival and an in-flight poll.
//
// Every virtual defaults to "take the engine's deterministic default", so a
// hook that overrides nothing observes the exact baseline schedule. The
// schedule explorer (src/explore/) is the only client; normal simulations
// carry a null hook and pay one pointer test per decision site. See
// docs/exploration.md for the full choice-point contract.
#pragma once

#include <cstddef>

#include "engine/event_queue.hpp"
#include "engine/types.hpp"

namespace svmsim::check {
class Checker;
}  // namespace svmsim::check

namespace svmsim::engine {

class ChoiceHook : public WireArbiter {
 public:
  /// Called once per run after the machine is wired, with the run's
  /// consistency checker (nullptr when checking is off).
  /// Gives happens-before-based pruners access to the checker's clocks.
  virtual void on_attach(check::Checker* checker) { (void)checker; }

  /// Wire-band decision (see WireArbiter). Default: the band's own order.
  std::size_t choose_wire(const WireChoice* alts, std::size_t n) override {
    (void)alts;
    (void)n;
    return 0;
  }

  /// Which of node `node`'s `nprocs` (>= 2) processors services the next
  /// message interrupt; `preferred` is the engine's round-robin default.
  /// Must return a value in [0, nprocs).
  virtual int choose_victim(NodeId node, int nprocs, int preferred) {
    (void)node;
    (void)nprocs;
    return preferred;
  }

  /// Polling scheme only: return true to slip this dispatch one poll
  /// interval past the default tick.
  virtual bool choose_poll_slip(NodeId node) {
    (void)node;
    return false;
  }
};

}  // namespace svmsim::engine
