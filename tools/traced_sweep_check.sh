#!/usr/bin/env bash
# End-to-end tracing smoke, run by ctest as traced_sweep_check: record one
# trace per simulation point of a small sweep, require every trace to
# reproduce the run's core::Stats exactly (trace_analyze --check), and
# convert one of them to Chrome JSON.
#
#   tools/traced_sweep_check.sh <build_dir>
set -euo pipefail

build_dir="${1:?usage: traced_sweep_check.sh <build_dir>}"
out="$build_dir/traced_sweep"
rm -f "$out".bin.*

"$build_dir/bench/paper" fig05_host_overhead --scale=tiny --apps=fft,lu \
    --trace="$out.bin" > /dev/null
traces=("$out".bin.*)
if [ "${#traces[@]}" -lt 2 ]; then
  echo "traced_sweep_check: expected one trace per sweep point, got ${#traces[@]}" >&2
  exit 1
fi
"$build_dir/bench/trace_analyze" --check "${traces[@]}"
"$build_dir/tools/trace2chrome" "${traces[0]}" "$out.json" > /dev/null
echo "traced_sweep_check: ${#traces[@]} traces OK, chrome export at $out.json"
