#!/usr/bin/env bash
# Measure tracing cost in its three configurations by timing one paper
# figure, `paper fig05_host_overhead --scale=small --apps=barnes --jobs=1`,
# in three arms:
#
#   compiled_out          from the nested -DSVMSIM_TRACE=OFF -DSVMSIM_CHECK=OFF
#                         tree (no tracer code)
#   compiled_in_disabled  from the default tree, --trace off
#   enabled               from the default tree with --trace=<file>, recording
#                         every category
#
# The arms alternate within each round, the first arm rotating from round
# to round, so external load perturbs all three alike, and each arm keeps
# its best wall time over the rounds (the best of many converges on the
# machine's unthrottled speed). The script prints the walls and two
# percentages: disabled vs compiled out (the cost of compiling the tracer in
# but leaving it off) and enabled vs disabled (the cost of recording). It
# writes no file besides its scratch output under <build_dir>.
#
# Tracing must not change the simulation: every run's output, and its exit
# status, must be identical to the first run's, or the script exits 1. (At
# small scale the barnes host_overhead=2000 point deadlocks, so the figure
# prints a FAIL cell and paper exits 1 in every arm alike.) The nested tree is the one tools/instrumentation_equivalence.sh
# configures; running that script first also proves its sweep_dump output
# byte-identical to the default build's.
#
#   tools/trace_overhead.sh <build_dir> [rounds]
#
#   build_dir   an already-built default (-DSVMSIM_TRACE=ON) tree
#   rounds      timed runs per arm (default: 5)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:?usage: trace_overhead.sh <build_dir> [rounds]}"
rounds="${2:-5}"

"$repo_root/tools/instrumentation_equivalence.sh" "$build_dir"
alt_dir="$build_dir/instr-off"
cmake --build "$alt_dir" --target paper -j "$(nproc)" \
  > "$alt_dir.build.log" 2>&1 || { cat "$alt_dir.build.log"; exit 1; }

out_dir="$build_dir/trace-overhead"
rm -rf "$out_dir"
mkdir -p "$out_dir"
figure=(fig05_host_overhead --scale=small --apps=barnes --jobs=1)

now() { date +%s.%N; }

declare -A best
reference_status=""

# run_arm <arm> <paper binary> [extra flags]: one timed run of the figure.
run_arm() {
  local arm="$1" bin="$2" status=0 t0 t1 wall
  shift 2
  t0="$(now)"
  "$bin" "${figure[@]}" "$@" > "$out_dir/$arm.txt" 2> /dev/null || status=$?
  t1="$(now)"
  rm -f "$out_dir"/trace.bin.*
  wall="$(awk -v a="$t0" -v b="$t1" 'BEGIN { print b - a }')"
  if [ -z "$reference_status" ]; then
    reference_status="$status"
    cp "$out_dir/$arm.txt" "$out_dir/reference.txt"
  elif [ "$status" != "$reference_status" ] ||
      ! cmp -s "$out_dir/reference.txt" "$out_dir/$arm.txt"; then
    diff -u "$out_dir/reference.txt" "$out_dir/$arm.txt" >&2 || true
    echo "trace_overhead: $arm changed the figure (exit $status, first" \
         "run exit $reference_status) -- tracing must not affect" \
         "simulation" >&2
    exit 1
  fi
  if [ -z "${best[$arm]:-}" ] ||
      awk -v w="$wall" -v b="${best[$arm]}" 'BEGIN { exit !(w < b) }'; then
    best[$arm]="$wall"
  fi
}

arms=(compiled_out compiled_in_disabled enabled)
for round in $(seq "$rounds"); do
  # Rotate which arm goes first, so no arm always follows the traced one.
  for i in 0 1 2; do
    case "${arms[$(((round + i) % 3))]}" in
      compiled_out) run_arm compiled_out "$alt_dir/bench/paper" ;;
      compiled_in_disabled)
        run_arm compiled_in_disabled "$build_dir/bench/paper" ;;
      enabled)
        run_arm enabled "$build_dir/bench/paper" --trace="$out_dir/trace.bin"
        ;;
    esac
  done
  echo "trace_overhead: round $round/$rounds done"
done

awk -v out="${best[compiled_out]}" -v off="${best[compiled_in_disabled]}" \
    -v on="${best[enabled]}" -v rounds="$rounds" 'BEGIN {
  printf "trace_overhead: fig05_host_overhead barnes/small, best of %d\n", rounds
  printf "  compiled_out          %.3f s\n", out
  printf "  compiled_in_disabled  %.3f s\n", off
  printf "  enabled               %.3f s\n", on
  printf "  disabled_vs_out_pct       %+.1f%%\n", (off - out) / out * 100
  printf "  enabled_vs_disabled_pct   %+.1f%%\n", (on - off) / off * 100
}'
