// Basic simulation types shared by all modules.
#pragma once

#include <cstdint>

namespace svmsim {

/// Simulated time, measured in main-processor clock cycles.
/// The paper expresses every communication parameter in processor cycles so
/// that results can be read as ratios to processor speed; we keep the same
/// convention throughout.
using Cycles = std::uint64_t;

/// Sentinel "no pending event" timestamp (all-ones). Returned by scheduler
/// and channel peek operations; no real event ever fires at this time.
inline constexpr Cycles kNever = ~Cycles{0};

/// Identifier types. Nodes are SMP boxes; processors are numbered globally
/// (0 .. total_processors-1) and map to nodes in round-robin blocks.
using NodeId = int;
using ProcId = int;

}  // namespace svmsim
