// Per-processor memory hierarchy: write-through L1 + write buffer +
// write-back L2, sharing the node's split-transaction memory bus.
//
// The fast path (hits, stores) is a plain function that only returns a cycle
// count: like augmint-style execution-driven simulators, hit latencies
// accumulate on the processor's local clock and never touch the event queue.
// Only L2 misses (and background writebacks/retirements) arbitrate for the
// bus on the global timeline.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/params.hpp"
#include "engine/simulator.hpp"
#include "engine/task.hpp"
#include "memsys/cache.hpp"
#include "memsys/memory_bus.hpp"
#include "memsys/write_buffer.hpp"

namespace svmsim::memsys {

class ProcMemory {
 public:
  ProcMemory(engine::Simulator& sim, const ArchParams& arch, MemoryBus& bus);

  /// log2 of the L1 line size: `addr >> line_shift()` is a line number.
  [[nodiscard]] std::uint32_t line_shift() const noexcept {
    return l1_.line_shift();
  }

  /// A load of one cache line, fast path. Returns the hit latency, or
  /// nullopt if the line misses to memory (call `read_line_slow`).
  /// `now` is the processor's current local time.
  [[nodiscard]] std::optional<Cycles> read_line_fast(std::uint64_t line_addr,
                                                     Cycles now) {
    if (!wb_.quiet(now)) drain_write_buffer(now);
    if (wb_.contains(line_addr)) return arch_->wb_hit_cycles;
    if (l1_.lookup(line_addr)) return arch_->l1.hit_cycles;
    if (l2_.lookup(line_addr)) {
      // L2 hit refills the (write-through, so never dirty) L1.
      l1_.fill(line_addr, /*dirty=*/false);
      return arch_->l2.hit_cycles;
    }
    return std::nullopt;  // memory access needed
  }

  /// A load that missed: fetch the line over the memory bus. Simulated time
  /// advances; returns the cycles the processor stalled.
  engine::Task<Cycles> read_line_slow(std::uint64_t line_addr);

  /// A store to one line: write-through L1 + write buffer. Always completes
  /// locally; returns {issue cycles, write-buffer-full stall cycles}.
  struct StoreCost {
    Cycles issue;
    Cycles wb_stall;
  };
  StoreCost write_line(std::uint64_t line_addr, Cycles now);

  /// Page replaced or invalidated by the SVM layer: drop stale lines.
  void invalidate_range(std::uint64_t start, std::uint64_t len);

  [[nodiscard]] const Cache& l1() const noexcept { return l1_; }
  [[nodiscard]] const Cache& l2() const noexcept { return l2_; }
  [[nodiscard]] const WriteBuffer& wb() const noexcept { return wb_; }

 private:
  /// Advance the write buffer's drain clock to `now` and absorb what
  /// retires.
  void drain_write_buffer(Cycles now);
  /// Account a retired write-buffer entry: L2 write-allocate; misses and
  /// dirty evictions produce background bus traffic.
  void absorb_retired(const std::vector<std::uint64_t>& retired);

  engine::Simulator* sim_;
  const ArchParams* arch_;
  MemoryBus* bus_;
  Cache l1_;
  Cache l2_;
  WriteBuffer wb_;
  std::vector<std::uint64_t> retired_scratch_;
};

}  // namespace svmsim::memsys
