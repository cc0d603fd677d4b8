// Protocol pools: every recyclable object the hot path needs.
//
// The Machine owns one ProtocolPools, declared before every structure that
// can hold references into it, so the pools outlive all PoolRefs (see
// docs/memory.md for the full ownership rules). Pooled Triggers schedule on
// the Machine's simulator.
#pragma once

#include "core/pool.hpp"
#include "engine/simulator.hpp"
#include "svm/payload.hpp"

namespace svmsim::svm {

struct ProtocolPools {
  explicit ProtocolPools(engine::Simulator& sim) : triggers(sim) {}

  core::ObjectPool<VClockBody> vclocks;
  core::ObjectPool<core::PooledBytes> buffers;
  core::ObjectPool<DiffBatchBody> diff_batches;
  core::ObjectPool<VClockDeltaBody> clock_deltas;
  engine::TriggerPool triggers;

  /// A pooled vector-clock body holding a copy of `vc`.
  [[nodiscard]] VClockRef vclock(const VClock& vc) {
    VClockRef r = vclocks.acquire();
    r->vc = vc;  // same node count every time: capacity is reused
    return r;
  }
  /// An empty pooled byte buffer (capacity from its previous life).
  [[nodiscard]] BytesRef bytes() { return buffers.acquire(); }
  /// An empty pooled diff batch.
  [[nodiscard]] DiffBatchRef diff_batch() { return diff_batches.acquire(); }
  /// An empty pooled sparse clock delta.
  [[nodiscard]] VClockDeltaRef clock_delta() { return clock_deltas.acquire(); }
};

}  // namespace svmsim::svm
