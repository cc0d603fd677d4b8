#!/usr/bin/env bash
# Prove that contended topologies keep the PDES determinism contract
# (docs/topology.md): fat-tree and torus dumps at 64 processors (16 nodes) —
# including the per-link occupancy lines (grants/busy/wait/bytes per
# physical link) — must be byte-identical between serial and --par-cores=4.
# Hop events fire on the partitions owning their links, so this checks
# cross-partition event ordering through multi-hop routes, not just final
# deliveries.
#
#   tools/topology_equivalence.sh <build_dir>
#
#   build_dir   an already-built default tree
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:?usage: topology_equivalence.sh <build_dir>}"

out_dir="$build_dir/topology-equivalence"
mkdir -p "$out_dir"

# The dumps carry one line per physical link, so the diff also proves per-hop
# link state replays identically from four partition threads.
for topo in fattree:4 torus:4x4; do
  tag="${topo//:/-}"
  "$build_dir/bench/sweep_dump" --apps=stress-gen@3 --procs=64 \
    --topology="$topo" > "$out_dir/dump-$tag-serial.txt"
  "$build_dir/bench/sweep_dump" --apps=stress-gen@3 --procs=64 \
    --topology="$topo" --par-cores=4 > "$out_dir/dump-$tag-par4.txt"
  if ! diff -u "$out_dir/dump-$tag-serial.txt" "$out_dir/dump-$tag-par4.txt"
  then
    echo "topology_equivalence: $topo serial vs --par-cores=4 DIVERGES" >&2
    exit 1
  fi
  if ! grep -q '^  link' "$out_dir/dump-$tag-serial.txt"; then
    echo "topology_equivalence: $topo dump carries no per-link lines" >&2
    exit 1
  fi
done

echo "topology_equivalence: fattree:4 and torus:4x4 serial == par4"
