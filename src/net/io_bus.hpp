// The node's I/O bus: the bandwidth bottleneck between host memory and the
// network interface. Its bandwidth is the swept parameter of Figure 8,
// expressed as MB/s per MHz of processor clock (== bytes per CPU cycle).
#pragma once

#include <cstdint>

#include "core/params.hpp"
#include "engine/resource.hpp"
#include "engine/simulator.hpp"

namespace svmsim::net {

class IoBus {
 public:
  IoBus(engine::Simulator& sim, const CommParams& comm)
      : comm_(&comm), res_(sim) {}

  [[nodiscard]] Cycles transfer_cycles(std::uint64_t bytes) const {
    return comm_->io_bus_cycles(bytes);
  }

  /// Awaitable: occupy the I/O bus for a `bytes` DMA (either direction; the
  /// bus is shared by the NI's incoming and outgoing paths).
  [[nodiscard]] auto dma(std::uint64_t bytes) {
    return res_.serve(transfer_cycles(bytes));
  }

  [[nodiscard]] Cycles busy_cycles() const { return res_.busy_cycles(); }
  [[nodiscard]] Cycles busy_until() const { return res_.busy_until(); }
  [[nodiscard]] Cycles committed_until() const {
    return res_.committed_until();
  }

 private:
  const CommParams* comm_;
  engine::Resource res_;
};

}  // namespace svmsim::net
