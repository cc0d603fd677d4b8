#!/usr/bin/env bash
# Measure tracing cost in all three configurations: run bench/trace_overhead
# from the default tree and from the nested instrumentation-off tree
# (-DSVMSIM_TRACE=OFF -DSVMSIM_CHECK=OFF) into the same BENCH_sweep.json
# (each writes its own subsections, preserving the other's). The nested tree
# is the one tools/instrumentation_equivalence.sh configures; running that
# script first also proves its sweep_dump output byte-identical to the
# default build's.
#
#   tools/trace_overhead.sh <build_dir> [out.json] [reps]
#
#   build_dir   an already-built default (-DSVMSIM_TRACE=ON) tree
#   out.json    merged results file (default: <repo>/BENCH_sweep.json)
#   reps        repetitions per arm (default: 5)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:?usage: trace_overhead.sh <build_dir> [out.json] [reps]}"
out="${2:-$repo_root/BENCH_sweep.json}"
reps="${3:-5}"

"$repo_root/tools/instrumentation_equivalence.sh" "$build_dir"
alt_dir="$build_dir/instr-off"
cmake --build "$alt_dir" --target trace_overhead -j "$(nproc)" \
  > "$alt_dir.build.log" 2>&1 || { cat "$alt_dir.build.log"; exit 1; }

# Alternate the two builds several times; each invocation keeps the best
# per-rep peak seen so far per configuration (see trace_overhead.cpp), so
# the recorded rates converge on the machine's unthrottled speed for both
# binaries alike. The default build runs last so the final rewrite computes
# the headline percentages from the converged numbers.
for _round in 1 2 3 4; do
  "$alt_dir/bench/trace_overhead" --app=barnes --scale=small \
      --reps="$reps" --out="$out" | tail -n 2 | head -n 1
  "$build_dir/bench/trace_overhead" --app=barnes --scale=small \
      --reps="$reps" --out="$out" | tail -n 3 | head -n 2
done
