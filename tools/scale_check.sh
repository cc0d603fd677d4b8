#!/usr/bin/env bash
# Check the simulator past the paper's 16 processors: for every cluster size
# given, on three fabrics — the contention-free crossbar, the smallest
# fitting fat tree (fattree:k with k^3/4 >= nodes) and the most-square 2-D
# torus — run the stress-gen@3 sweep_dump (both protocols; host overhead 0
# and 1000, the achievable point, and each other communication parameter
# alone at its best value) and require:
#
#   validation      sweep_dump exits 0: every point ran and validated;
#   per-link lines  the fat-tree and torus dumps carry one "link" line per
#                   physical link;
#   consistency     the largest size's crossbar dump, rerun with
#                   --check-consistency, exits 0: the consistency oracle
#                   finds no violation at the largest machine.
#
# When the sizes include both 16 and 256 it also gates host throughput:
# events/sec of the crossbar dump (the summed events= of its points
# over its wall time, best of 3) at 256 procs must be at least 0.35x that at
# 16 procs. The ratio is taken within one run, so it needs no baseline and
# holds on any machine; a synchronization path whose host cost grows with
# the machine size drags it down.
#
# For every size it also prints, without gating on it, the host time of
# each contended dump relative to the crossbar dump ("host ratio
# <topo>/crossbar"), from the one run of each dump the validation makes:
# the host cost of the topology hop pipeline. It is a single run on a
# possibly shared host, so read it as a rough figure.
#
#   tools/scale_check.sh <build_dir> <procs...>
#
#   build_dir   an already-built default tree
#   procs       simulated cluster sizes, multiples of 4 (e.g. 16 64 256 1024)
set -euo pipefail

build_dir="${1:?usage: scale_check.sh <build_dir> <procs...>}"
shift
[ "$#" -gt 0 ] || { echo "usage: scale_check.sh <build_dir> <procs...>" >&2;
                    exit 2; }
dump="$build_dir/bench/sweep_dump"
min_eps_ratio=0.35

out_dir="$build_dir/scale-check"
mkdir -p "$out_dir"

# Smallest even fat-tree arity whose k^3/4 hosts cover $1 nodes.
fat_tree() {
  local k=2
  while [ $((k * k * k / 4)) -lt "$1" ]; do k=$((k + 2)); done
  echo "fattree:$k"
}

# Most-square 2-D factorization X x Y (X <= Y) of $1 nodes.
torus() {
  local x=1 d=1
  while [ $((d * d)) -le "$1" ]; do
    [ $(($1 % d)) -eq 0 ] && x=$d
    d=$((d + 1))
  done
  echo "torus:${x}x$(($1 / x))"
}

now() { date +%s.%N; }

# Events per second of the crossbar dump at $1 procs: the dump's
# summed events= over the best wall time of 3 runs.
eps() {
  local best="" t0 t1 wall
  for _ in 1 2 3; do
    t0="$(now)"
    "$dump" --apps=stress-gen@3 --procs="$1" > /dev/null
    t1="$(now)"
    wall="$(awk -v a="$t0" -v b="$t1" 'BEGIN { print b - a }')"
    if [ -z "$best" ] || awk -v w="$wall" -v b="$best" 'BEGIN { exit !(w < b) }'
    then
      best="$wall"
    fi
  done
  awk -v w="$best" '
    { for (i = 1; i <= NF; ++i) if ($i ~ /^events=/) e += substr($i, 8) }
    END { printf "%.0f\n", e / w }' "$out_dir/dump-$1-crossbar.txt"
}

for procs in "$@"; do
  nodes=$((procs / 4))
  crossbar_wall=""
  for topo in crossbar "$(fat_tree "$nodes")" "$(torus "$nodes")"; do
    tag="$procs-${topo//:/-}"
    t0="$(now)"
    if ! "$dump" --apps=stress-gen@3 --procs="$procs" --topology="$topo" \
        > "$out_dir/dump-$tag.txt"; then
      echo "scale_check: $topo at $procs procs: sweep_dump failed" >&2
      exit 1
    fi
    t1="$(now)"
    wall="$(awk -v a="$t0" -v b="$t1" 'BEGIN { print b - a }')"
    if [ "$topo" != crossbar ] &&
        ! grep -q '^  link' "$out_dir/dump-$tag.txt"; then
      echo "scale_check: $topo at $procs procs: no per-link lines" >&2
      exit 1
    fi
    echo "scale_check: $procs procs, $topo: validated" \
         "($(wc -l < "$out_dir/dump-$tag.txt") lines)"
    if [ "$topo" = crossbar ]; then
      crossbar_wall="$wall"
    else
      echo "scale_check: $procs procs, host ratio $topo/crossbar" \
           "$(awk -v w="$wall" -v c="$crossbar_wall" \
                'BEGIN { printf "%.2f", w / c }')"
    fi
  done
done

largest=0
for procs in "$@"; do [ "$procs" -gt "$largest" ] && largest="$procs"; done
if ! "$dump" --apps=stress-gen@3 --procs="$largest" --check-consistency \
    > "$out_dir/dump-$largest-crossbar-checked.txt"; then
  echo "scale_check: crossbar at $largest procs: checked sweep_dump failed" >&2
  exit 1
fi
echo "scale_check: $largest procs, crossbar, --check-consistency: no violation"

if [[ " $* " == *" 16 "* && " $* " == *" 256 "* ]]; then
  eps16="$(eps 16)"
  eps256="$(eps 256)"
  ratio="$(awk -v a="$eps256" -v b="$eps16" 'BEGIN { printf "%.3f", a / b }')"
  echo "scale_check: events/sec 16 procs $eps16, 256 procs $eps256," \
       "ratio $ratio (gate >= $min_eps_ratio)"
  if awk -v r="$ratio" -v m="$min_eps_ratio" 'BEGIN { exit !(r < m) }'; then
    echo "scale_check: eps(256)/eps(16) = $ratio is below $min_eps_ratio" \
         "(per-sync host cost is growing with machine size)" >&2
    exit 1
  fi
fi
