// Simulation parameters.
//
// ArchParams are the fixed architectural constants of the paper's §2
// ("Simulation Environment"); CommParams are the communication-architecture
// parameters the paper sweeps (§3, Table 1) plus the two granularity
// parameters (page size, processors per node).
//
// Values marked [R] in DESIGN.md were lost to OCR in the source text and are
// reconstructed from surviving prose constraints and era hardware.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "check/config.hpp"
#include "engine/types.hpp"
#include "topo/spec.hpp"
#include "trace/config.hpp"

namespace svmsim {

/// Which SVM protocol runs the cluster.
enum class Protocol {
  kHLRC,  ///< home-based lazy release consistency, software diffs
  kAURC,  ///< automatic-update release consistency, hardware write propagation
};

/// How incoming remote requests reach a processor of the node.
enum class InterruptScheme {
  kFixedProcessor,  ///< interrupt processor 0 of the node (paper's base)
  kRoundRobin,      ///< interrupt processors in rotation (paper §5)
  /// No interrupts at all: processors poll the incoming queue every
  /// `poll_interval` cycles (the paper's §10 proposal for avoiding
  /// asynchronous protocol processing). Requests pay the average poll
  /// latency instead of the interrupt cost.
  kPolling,
};

/// The one spelling table of Protocol's --protocol values; to_string gives
/// the upper-case display name.
inline constexpr std::pair<std::string_view, Protocol> kProtocolNames[] = {
    {"hlrc", Protocol::kHLRC}, {"aurc", Protocol::kAURC}};

[[nodiscard]] std::string to_string(Protocol p);
[[nodiscard]] std::string to_string(InterruptScheme s);

struct CacheParams {
  std::uint32_t size_bytes;
  std::uint32_t associativity;
  std::uint32_t line_bytes;
  Cycles hit_cycles;

  /// The tag store (memsys::Cache) indexes sets with a shift and a mask, so
  /// it needs a nonzero size and associativity and a power-of-two line size
  /// and set count. Returns an empty string when valid, a diagnostic naming
  /// the offending field otherwise.
  [[nodiscard]] std::string validate() const;

  bool operator==(const CacheParams&) const = default;
};

/// Fixed node/network architecture (paper §2). The simulated processor is a
/// single-issue 1-IPC core; one cycle of "compute" is one instruction.
struct ArchParams {
  CacheParams l1{16 * 1024, 1, 64, 1};   // direct-mapped, write-through
  CacheParams l2{512 * 1024, 2, 64, 8};  // 2-way, write-back

  std::uint32_t wb_entries = 8;    // write buffer, line-wide entries
  std::uint32_t wb_retire_at = 4;  // start retiring when this full
  Cycles wb_hit_cycles = 1;        // read satisfied in the write buffer

  // Split-transaction memory bus: 64-bit wide, bus clock = CPU clock / 4,
  // arbitration one bus cycle. 2 bytes/CPU-cycle peak = 400 MB/s @ 200 MHz.
  std::uint32_t membus_bytes_per_bus_cycle = 8;
  std::uint32_t membus_cpu_per_bus_cycle = 4;
  Cycles membus_arbitration_cycles = 4;  // one bus cycle
  Cycles dram_latency_cycles = 28;       // pipelined DRAM access

  // Network: links run at processor speed, 16 bits wide => 2 bytes/cycle.
  // Link latency is small and constant in a SAN; it is not swept (paper §3).
  double link_bytes_per_cycle = 2.0;
  Cycles wire_latency_cycles = 100;

  // Contended topologies (src/topo/) split per-hop costs into two link
  // classes: intra-node (host <-> first switch/router, the injection and
  // ejection stage) and inter-node (switch <-> switch). The legacy
  // crossbar path keeps using wire_latency_cycles / link_bytes_per_cycle
  // end to end; these defaults make a minimum fat-tree route (6 hops) land
  // in the same order of magnitude as the crossbar's 100-cycle wire.
  Cycles intra_hop_latency_cycles = 20;
  Cycles inter_hop_latency_cycles = 40;
  double intra_link_bytes_per_cycle = 2.0;
  double inter_link_bytes_per_cycle = 2.0;

  // Network interface: two 1 MB queues; a full queue interrupts the host.
  std::uint32_t ni_queue_bytes = 1u << 20;
  std::uint32_t mtu_payload_bytes = 4096;
  std::uint32_t packet_header_bytes = 32;
  std::uint32_t message_header_bytes = 32;

  // Protocol-handler software costs (paper §2).
  Cycles tlb_access_cycles = 50;          // TLB access from a kernel handler
  Cycles fault_trap_cycles = 350;         // page-fault trap entry/exit [R]
  Cycles handler_dispatch_cycles = 200;   // request-handler dispatch [R]
  Cycles diff_compare_cycles_per_word = 4;   // per word compared
  Cycles diff_include_cycles_per_word = 8;   // extra per word in the diff
  Cycles write_notice_cycles = 8;            // per notice processed [R]
  Cycles page_install_cycles_per_kb = 32;    // copy/install fetched page [R]

  // Intra-node (hardware-coherent SMP) synchronization costs [R].
  Cycles smp_lock_cycles = 60;      // uncontended in-node lock acquire
  Cycles smp_barrier_cycles = 200;  // in-node hierarchical barrier stage

  /// Sanity-check the cache geometries (CacheParams::validate) and the
  /// divisors and latency floors the network layer relies on: every link
  /// bandwidth must be > 0 (transmit() and each topology hop divide by it)
  /// and every wire/hop latency nonzero (delivery events must land strictly
  /// in the future, as the wire band requires).
  /// Returns an empty string when valid, a diagnostic naming the offending
  /// field otherwise. The Machine constructor enforces this; benches map it
  /// to bench::kExitBadArch.
  [[nodiscard]] std::string validate() const;

  bool operator==(const ArchParams&) const = default;
};

/// The communication parameters of Table 1 plus granularity parameters.
struct CommParams {
  /// Host processor busy time to post one (asynchronous) message send.
  Cycles host_overhead = 500;

  /// Node-to-network bandwidth, limited by the I/O bus, expressed as in the
  /// paper: MB/s per MHz of processor clock == bytes per processor cycle.
  double io_bus_mb_per_mhz = 0.5;

  /// NI firmware time to prepare one packet (each direction).
  Cycles ni_occupancy = 1000;

  /// Cost of each of *issuing* and *delivering* an interrupt; a null
  /// interrupt costs 2x this value end to end (paper §3).
  Cycles interrupt_cost = 500;

  /// Polling period when `interrupt_scheme == kPolling`: an incoming
  /// request waits until the next poll tick instead of interrupting.
  Cycles poll_interval = 1000;
  /// Instrumentation cost charged to the polling processor per serviced
  /// request (the poll-loop check that found work).
  Cycles poll_check_cost = 20;

  std::uint32_t page_bytes = 4096;
  int procs_per_node = 4;
  int total_procs = 16;

  /// Network interfaces per node (paper §10 future work: "multiple network
  /// interfaces per node is another approach that can increase the
  /// available bandwidth ... protocol changes may be necessary to ensure
  /// proper event ordering"). Traffic between a node pair always uses the
  /// same NI index on both sides, preserving the pairwise FIFO ordering the
  /// protocol relies on.
  int nics_per_node = 1;

  Protocol protocol = Protocol::kHLRC;
  InterruptScheme interrupt_scheme = InterruptScheme::kFixedProcessor;

  [[nodiscard]] int node_count() const { return total_procs / procs_per_node; }

  /// I/O bus cycles to move `bytes` between host memory and the NI.
  [[nodiscard]] Cycles io_bus_cycles(std::uint64_t bytes) const {
    return static_cast<Cycles>(
        static_cast<double>(bytes) / io_bus_mb_per_mhz + 0.5);
  }

  /// The "achievable" point: aggressive but implementable today (paper §3).
  [[nodiscard]] static CommParams achievable();
  /// The "best" point: every swept parameter at its best value; contention
  /// is still modeled (paper §3).
  [[nodiscard]] static CommParams best();

  [[nodiscard]] std::string describe() const;

  bool operator==(const CommParams&) const = default;
};

/// Everything a run needs.
struct SimConfig {
  ArchParams arch;
  CommParams comm;

  /// Interconnect topology (src/topo/, --topology). The default kLegacy is
  /// the paper's contention-free crossbar; fat tree and torus change *what*
  /// is simulated: routes are multi-hop and links contend, so times and
  /// Stats legitimately differ.
  topo::Spec topology;

  /// Diagnostics/ablation switches used by the paper's guided simulations
  /// (§6): pretend every page fetch is local, i.e. remote fetches are free.
  bool disable_remote_fetches = false;

  /// Inert: nothing in the simulator reads it, and every run is serial
  /// whatever it holds. It remains only because the frozen benchmark
  /// (perfbench/svmbench.cpp) still assigns it; it goes in the benchmark
  /// change that drops engine.pdes_speedup / engine.pdes_windows.
  int par_cores = 1;

  /// Event-recorder settings (src/trace/). Never affects simulated time:
  /// results are byte-identical with tracing on or off.
  trace::Config trace;

  /// Consistency-checker settings (src/check/). Like tracing, the checker is
  /// passive: results are byte-identical with checking on or off.
  check::Config check;

  /// Field-wise: two equal configs simulate the same run, so a sweep batch
  /// simulates each distinct (app, config) once (harness::Sweep).
  bool operator==(const SimConfig&) const = default;
};

}  // namespace svmsim
