#!/usr/bin/env bash
# Measure the cost of recording a trace by timing one paper figure,
# `paper fig05_host_overhead --scale=small --apps=barnes --jobs=1`, in two
# arms:
#
#   disabled   --trace off
#   enabled    --trace=<file>, recording every category
#
# The arms alternate within each round, the first arm switching from round
# to round, so external load perturbs both alike, and each arm keeps its
# best wall time over the rounds (the best of many converges on the
# machine's unthrottled speed). The script prints the walls and the
# percentage enabled vs disabled (the cost of recording). It writes no file
# besides its scratch output under <build_dir>.
#
# Tracing must not change the simulation: every run's output, and its exit
# status, must be identical to the first run's, or the script exits 1. (At
# small scale the barnes host_overhead=2000 point deadlocks, so the figure
# prints a FAIL cell and paper exits 1 in both arms alike.)
#
#   tools/trace_overhead.sh <build_dir> [rounds]
#
#   build_dir   an already-built tree
#   rounds      timed runs per arm (default: 5)
set -euo pipefail

build_dir="${1:?usage: trace_overhead.sh <build_dir> [rounds]}"
rounds="${2:-5}"

out_dir="$build_dir/trace-overhead"
rm -rf "$out_dir"
mkdir -p "$out_dir"
paper="$build_dir/bench/paper"
figure=(fig05_host_overhead --scale=small --apps=barnes --jobs=1)

now() { date +%s.%N; }

declare -A best
reference_status=""

# run_arm <arm> [extra flags]: one timed run of the figure.
run_arm() {
  local arm="$1" status=0 t0 t1 wall
  shift
  t0="$(now)"
  "$paper" "${figure[@]}" "$@" > "$out_dir/$arm.txt" 2> /dev/null || status=$?
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

for round in $(seq "$rounds"); do
  # Switch which arm goes first, so neither always follows the other.
  if [ $((round % 2)) -eq 1 ]; then
    run_arm disabled
    run_arm enabled --trace="$out_dir/trace.bin"
  else
    run_arm enabled --trace="$out_dir/trace.bin"
    run_arm disabled
  fi
  echo "trace_overhead: round $round/$rounds done"
done

awk -v off="${best[disabled]}" -v on="${best[enabled]}" \
    -v rounds="$rounds" 'BEGIN {
  printf "trace_overhead: fig05_host_overhead barnes/small, best of %d\n", rounds
  printf "  disabled  %.3f s\n", off
  printf "  enabled   %.3f s\n", on
  printf "  enabled_vs_disabled_pct   %+.1f%%\n", (on - off) / off * 100
}'
