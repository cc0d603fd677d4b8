// Split-transaction memory bus with fixed-priority arbitration (paper §2):
// priorities, in decreasing order: NI outgoing path, second-level cache,
// write buffer, memory (reply phase), NI incoming path.
#pragma once

#include <cstdint>

#include "core/params.hpp"
#include "engine/resource.hpp"
#include "engine/simulator.hpp"

namespace svmsim::memsys {

enum class BusMaster : int {
  kNIOut = 0,
  kL2 = 1,
  kWriteBuffer = 2,
  kMemory = 3,
  kNIIn = 4,
};

class MemoryBus {
 public:
  MemoryBus(engine::Simulator& sim, const ArchParams& arch)
      : arch_(&arch), res_(sim, arch.membus_arbitration_cycles) {}

  /// CPU cycles the data phase of a `bytes`-byte transfer occupies.
  [[nodiscard]] Cycles transfer_cycles(std::uint64_t bytes) const {
    const std::uint64_t bus_cycles =
        (bytes + arch_->membus_bytes_per_bus_cycle - 1) /
        arch_->membus_bytes_per_bus_cycle;
    return bus_cycles * arch_->membus_cpu_per_bus_cycle;
  }

  /// Awaitable: arbitrate and occupy the bus for a `bytes` transfer.
  [[nodiscard]] auto transaction(BusMaster m, std::uint64_t bytes) {
    return res_.serve(static_cast<int>(m), transfer_cycles(bytes));
  }

  /// The same transaction with no one waiting for it (background
  /// writebacks and write-allocate fills): it contends for the bus but
  /// blocks nobody.
  void post(BusMaster m, std::uint64_t bytes) {
    res_.post(static_cast<int>(m), transfer_cycles(bytes));
  }

  [[nodiscard]] Cycles busy_cycles() const { return res_.busy_cycles(); }
  [[nodiscard]] std::uint64_t grants() const { return res_.grants(); }

 private:
  const ArchParams* arch_;
  engine::PriorityResource res_;
};

}  // namespace svmsim::memsys
