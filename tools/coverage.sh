#!/usr/bin/env bash
# Line-coverage gate for the SVM protocol layer: build with
# -DSVMSIM_COVERAGE=ON, run the tier-1 suite (the checker seed matrix
# included; the script-driven equivalence and sweep tests excluded — they
# are slow under the -O0 instrumented build), then run gcovr over src/svm/
# and fail below the floor. Run by the CI coverage job; usable locally
# whenever gcovr is installed.
#
#   tools/coverage.sh [build_dir] [floor_pct] [-- extra ctest args]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-coverage}"
floor="${2:-85}"  # measured ~96% at introduction; floor leaves headroom

command -v gcovr > /dev/null || {
  echo "coverage.sh: gcovr not found (apt-get install gcovr)" >&2
  exit 2
}

cmake -S "$repo_root" -B "$build_dir" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSVMSIM_COVERAGE=ON
cmake --build "$build_dir" -j "$(nproc)"

# The -O0 instrumented build defeats the tail calls behind coroutine
# symmetric transfer (same story as the sanitizer build — see
# tools/sanitize.sh), so long synchronous co_await chains consume real
# stack. Raise the limit rather than shrinking the tests.
# A finite limit, not unlimited: glibc sizes every new thread's stack from
# it (an unlimited limit gives threads 2 MiB), and the --jobs pool of
# paper_suite_tiny runs the same deep chains on worker threads.
ulimit -s 1048576 2>/dev/null || ulimit -s unlimited 2>/dev/null || true

ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
  -E 'equivalence|traced_sweep|checked_sweep'

# Protocol-layer floor. --fail-under-line makes gcovr exit 2 below it; the
# txt report goes to stdout so CI can publish it.
gcovr --root "$repo_root" "$build_dir" \
  --filter 'src/svm/' \
  --exclude-throw-branches \
  --print-summary \
  --fail-under-line "$floor" \
  --txt "$build_dir/coverage-svm.txt"
cat "$build_dir/coverage-svm.txt"
