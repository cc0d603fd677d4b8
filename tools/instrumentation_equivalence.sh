#!/usr/bin/env bash
# Prove the instrumentation is observationally inert: build a second tree
# with -DSVMSIM_CHECK=OFF -DSVMSIM_TRACE=OFF, run sweep_dump in three
# configurations — compiled-in/runtime-off, compiled-out, and
# compiled-in/runtime-on (--check-consistency) — and diff the output
# byte-for-byte. The checker may watch a run but must never change it, and
# the compiled-out probes keep counting (only their recording half goes), so
# every counter must come out the same. Run by ctest as the
# instrumentation_equivalence test; tools/trace_overhead.sh reuses the
# nested tree for its compiled-out arm.
#
#   tools/instrumentation_equivalence.sh <build_dir> [sanitize]
#
#   build_dir   an already-built default (checker and tracer compiled in) tree
#   sanitize    that tree's SVMSIM_SANITIZE value, propagated to the second
#               build so the check also runs under ASan/UBSan (default: none)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:?usage: instrumentation_equivalence.sh <build_dir> [sanitize]}"
sanitize="${2:-}"

alt_dir="$build_dir/instr-off"
cmake -S "$repo_root" -B "$alt_dir" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSVMSIM_CHECK=OFF \
  -DSVMSIM_TRACE=OFF \
  -DSVMSIM_SANITIZE="$sanitize" > "$alt_dir.cmake.log" 2>&1 \
  || { cat "$alt_dir.cmake.log"; exit 1; }
cmake --build "$alt_dir" --target sweep_dump -j "$(nproc)" \
  > "$alt_dir.build.log" 2>&1 || { cat "$alt_dir.build.log"; exit 1; }

"$build_dir/bench/sweep_dump" > "$alt_dir/dump-in.txt"
"$alt_dir/bench/sweep_dump" > "$alt_dir/dump-out.txt"
# Runtime-on also gates on zero violations (sweep_dump exits 1 otherwise),
# so this doubles as a clean-run smoke of the checker on the reference sweep.
"$build_dir/bench/sweep_dump" --check-consistency > "$alt_dir/dump-on.txt"

for arm in out on; do
  if ! diff -u "$alt_dir/dump-in.txt" "$alt_dir/dump-$arm.txt"; then
    echo "instrumentation_equivalence: compiled-in vs $arm DIVERGES" >&2
    exit 1
  fi
done
echo "instrumentation_equivalence: in == out == on" \
     "($(wc -l < "$alt_dir/dump-in.txt") lines identical)"
