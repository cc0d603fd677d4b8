#!/usr/bin/env bash
# Prove the consistency checker is observationally inert: run sweep_dump
# with the checker off and with --check-consistency, and diff the output
# byte-for-byte. The checker may watch a run but must never change it, so
# every counter must come out the same. The checked run also gates on zero
# violations (sweep_dump exits 1 otherwise), so this doubles as a clean-run
# smoke of the checker on both protocols over fft, lu and four stress-gen
# seeds; stress-gen@11 is where a checker false positive once surfaced.
# Run by ctest as the instrumentation_equivalence test.
#
#   tools/instrumentation_equivalence.sh <build_dir>
#
#   build_dir   an already-built tree
set -euo pipefail

build_dir="${1:?usage: instrumentation_equivalence.sh <build_dir>}"

out_dir="$build_dir/instrumentation-equivalence"
mkdir -p "$out_dir"
apps="fft,lu,stress-gen@3,stress-gen@5,stress-gen@7,stress-gen@11"
"$build_dir/bench/sweep_dump" --apps="$apps" > "$out_dir/dump-off.txt"
"$build_dir/bench/sweep_dump" --apps="$apps" --check-consistency \
  > "$out_dir/dump-on.txt"

if ! diff -u "$out_dir/dump-off.txt" "$out_dir/dump-on.txt"; then
  echo "instrumentation_equivalence: checker off vs on DIVERGES" >&2
  exit 1
fi
echo "instrumentation_equivalence: off == on" \
     "($(wc -l < "$out_dir/dump-off.txt") lines identical)"
