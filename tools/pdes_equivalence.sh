#!/usr/bin/env bash
# Prove the PDES mode is observationally inert: run sweep_dump serially and
# at --par-cores 2 and 4 and diff the output byte-for-byte. The dump covers
# both protocols (HLRC and AURC), two real apps and four stress-gen seeds, so
# a byte-identical dump means every counter, every per-processor time-
# category breakdown and every execution time replays the serial event order
# exactly from four partition threads. Run by ctest as the pdes_equivalence
# test.
#
# A 256-processor arm repeats the serial-vs-par4 byte-diff on a 64-node
# machine (stress-gen only: the real apps' tiny problem sizes stop at 16
# procs), where the sparse clock transport of docs/scaling.md carries every
# synchronization message.
#
# The last arm re-runs the PR-5 checked matrix (fig05 host-overhead sweep
# with the shadow consistency checker) under --par-cores=4: the checker's
# verdict — zero violations — must survive its hooks firing from four
# threads.
#
#   tools/pdes_equivalence.sh <build_dir>
#
#   build_dir   an already-built default tree
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:?usage: pdes_equivalence.sh <build_dir>}"

out_dir="$build_dir/pdes-equivalence"
mkdir -p "$out_dir"

apps="fft,lu,stress-gen@3,stress-gen@5,stress-gen@7,stress-gen@11"

"$build_dir/bench/sweep_dump" --apps="$apps" > "$out_dir/dump-serial.txt"
for cores in 2 4; do
  "$build_dir/bench/sweep_dump" --apps="$apps" --par-cores="$cores" \
    > "$out_dir/dump-par$cores.txt"
  if ! diff -u "$out_dir/dump-serial.txt" "$out_dir/dump-par$cores.txt"; then
    echo "pdes_equivalence: serial vs --par-cores=$cores DIVERGES" >&2
    exit 1
  fi
done

# Large-machine arm: the same byte-identity contract at 256 processors (64
# nodes), where the sparse clock transport and incremental barrier reduction
# (docs/scaling.md) carry the protocol. stress-gen only: the real apps'
# tiny-scale problem sizes do not decompose past the paper's 16 processors.
"$build_dir/bench/sweep_dump" --apps=stress-gen@3 --procs=256 \
  > "$out_dir/dump-serial-256.txt"
"$build_dir/bench/sweep_dump" --apps=stress-gen@3 --procs=256 \
  --par-cores=4 > "$out_dir/dump-par4-256.txt"
if ! diff -u "$out_dir/dump-serial-256.txt" "$out_dir/dump-par4-256.txt"; then
  echo "pdes_equivalence: 256-proc serial vs --par-cores=4 DIVERGES" >&2
  exit 1
fi

# Checked arm: also gates on zero violations (sweep_dump exits 1 otherwise).
"$build_dir/bench/sweep_dump" --apps="$apps" --par-cores=4 \
  --check-consistency > "$out_dir/dump-par4-checked.txt"
if ! diff -u "$out_dir/dump-serial.txt" "$out_dir/dump-par4-checked.txt"; then
  echo "pdes_equivalence: serial vs checked --par-cores=4 DIVERGES" >&2
  exit 1
fi

# The PR-5 checked matrix, now on four partition workers. Exit status is the
# verdict (the figure output itself legitimately differs from serial runs
# only in wall-clock, which it does not print).
"$build_dir/bench/paper" fig05_host_overhead --scale=tiny --jobs=2 \
  --apps=stress-gen@3,stress-gen@11 --check-consistency --par-cores=4 \
  > "$out_dir/fig05-checked-par4.txt"

echo "pdes_equivalence: serial == par{2,4} == par4+check" \
  "($(wc -l < "$out_dir/dump-serial.txt") lines identical;" \
  "256-proc arm $(wc -l < "$out_dir/dump-serial-256.txt") lines identical)"
