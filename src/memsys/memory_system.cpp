#include "memsys/memory_system.hpp"

namespace svmsim::memsys {

ProcMemory::ProcMemory(engine::Simulator& sim, const ArchParams& arch,
                       MemoryBus& bus)
    : sim_(&sim),
      arch_(&arch),
      bus_(&bus),
      l1_(arch.l1),
      l2_(arch.l2),
      wb_(arch.wb_entries, arch.wb_retire_at, arch.l2.hit_cycles) {}

void ProcMemory::drain_write_buffer(Cycles now) {
  retired_scratch_.clear();
  wb_.advance(now, retired_scratch_);
  absorb_retired(retired_scratch_);
}

engine::Task<Cycles> ProcMemory::read_line_slow(std::uint64_t line_addr) {
  const Cycles start = sim_->now();
  // Split transaction: request phase (address), pipelined DRAM access,
  // then the reply data phase at memory priority.
  co_await bus_->transaction(BusMaster::kL2, 8);
  co_await sim_->delay(arch_->dram_latency_cycles);
  co_await bus_->transaction(BusMaster::kMemory, arch_->l2.line_bytes);

  auto victim = l2_.fill(line_addr, /*dirty=*/false);
  if (victim.evicted && victim.dirty) {
    bus_->post(BusMaster::kL2, arch_->l2.line_bytes);
  }
  l1_.fill(line_addr, /*dirty=*/false);
  co_return sim_->now() - start;
}

ProcMemory::StoreCost ProcMemory::write_line(std::uint64_t line_addr,
                                             Cycles now) {
  // Write-through: update L1 if present (no write-allocate), always enter
  // the write buffer.
  l1_.lookup(line_addr);  // hit updates LRU; miss is write-around
  retired_scratch_.clear();
  const Cycles stall = wb_.push(line_addr, now, retired_scratch_);
  absorb_retired(retired_scratch_);
  return StoreCost{arch_->l1.hit_cycles, stall};
}

void ProcMemory::invalidate_range(std::uint64_t start, std::uint64_t len) {
  l1_.invalidate_range(start, len);
  l2_.invalidate_range(start, len);
}

void ProcMemory::absorb_retired(const std::vector<std::uint64_t>& retired) {
  for (std::uint64_t line : retired) {
    if (l2_.lookup(line, /*mark_dirty=*/true)) continue;
    // Write-allocate: fetch the line in the background at write-buffer
    // priority; the processor does not wait. A dirty victim's writeback
    // contends for the bus the same way.
    auto victim = l2_.fill(line, /*dirty=*/true);
    bus_->post(BusMaster::kWriteBuffer, arch_->l2.line_bytes);
    if (victim.evicted && victim.dirty) {
      bus_->post(BusMaster::kL2, arch_->l2.line_bytes);
    }
  }
}

}  // namespace svmsim::memsys
