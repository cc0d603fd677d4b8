#include "core/params.hpp"

#include <bit>
#include <sstream>
#include <utility>

namespace svmsim {

std::string to_string(Protocol p) {
  switch (p) {
    case Protocol::kHLRC:
      return "HLRC";
    case Protocol::kAURC:
      return "AURC";
  }
  return "?";
}

std::string CacheParams::validate() const {
  if (size_bytes == 0) return "size_bytes must be nonzero";
  if (associativity == 0) return "associativity must be nonzero";
  if (!std::has_single_bit(line_bytes)) {
    return "line_bytes must be a power of two";
  }
  const std::uint64_t way_bytes =
      static_cast<std::uint64_t>(line_bytes) * associativity;
  if (!std::has_single_bit(size_bytes / way_bytes)) {
    return "size_bytes / (line_bytes * associativity) sets must be a power "
           "of two";
  }
  return {};
}

std::string ArchParams::validate() const {
  if (const std::string err = l1.validate(); !err.empty()) {
    return "l1." + err;
  }
  if (const std::string err = l2.validate(); !err.empty()) {
    return "l2." + err;
  }
  // !(x > 0) instead of x <= 0: a NaN bandwidth must fail too. A full
  // packet's serialization time is converted to integral Cycles, so it
  // must stay below 2^53 (exact in a double, far inside the Cycles range).
  const double packet = static_cast<double>(mtu_payload_bytes) +
                        static_cast<double>(packet_header_bytes);
  const std::pair<const char*, double> bandwidths[] = {
      {"link_bytes_per_cycle", link_bytes_per_cycle},
      {"intra_link_bytes_per_cycle", intra_link_bytes_per_cycle},
      {"inter_link_bytes_per_cycle", inter_link_bytes_per_cycle}};
  for (const auto& [name, bw] : bandwidths) {
    if (!(bw > 0.0)) return std::string(name) + " must be > 0";
    if (!(packet / bw < 0x1p53)) {
      return std::string(name) +
             " is too small: a full packet would take 2^53 cycles or more";
    }
  }
  if (wire_latency_cycles == 0) return "wire_latency_cycles must be nonzero";
  if (intra_hop_latency_cycles == 0) {
    return "intra_hop_latency_cycles must be nonzero";
  }
  if (inter_hop_latency_cycles == 0) {
    return "inter_hop_latency_cycles must be nonzero";
  }
  return {};
}

std::string to_string(InterruptScheme s) {
  switch (s) {
    case InterruptScheme::kFixedProcessor:
      return "fixed-proc0";
    case InterruptScheme::kRoundRobin:
      return "round-robin";
    case InterruptScheme::kPolling:
      return "polling";
  }
  return "?";
}

CommParams CommParams::achievable() {
  CommParams p;
  p.host_overhead = 500;
  p.io_bus_mb_per_mhz = 0.5;  // 100 MB/s at 200 MHz
  p.ni_occupancy = 1000;
  p.interrupt_cost = 500;  // null interrupt: 1000 cycles
  return p;
}

CommParams CommParams::best() {
  CommParams p;
  p.host_overhead = 0;
  p.io_bus_mb_per_mhz = 2.0;  // == memory bus bandwidth
  p.ni_occupancy = 0;
  p.interrupt_cost = 0;
  return p;
}

std::string CommParams::describe() const {
  std::ostringstream os;
  os << to_string(protocol) << " o=" << host_overhead
     << " bw=" << io_bus_mb_per_mhz << "MB/MHz occ=" << ni_occupancy
     << " intr=" << interrupt_cost << " page=" << page_bytes
     << " procs/node=" << procs_per_node << "x" << node_count();
  return os.str();
}

}  // namespace svmsim
