#!/usr/bin/env bash
# Build the tier-1 test suite under a sanitizer and run it.
#
#   tools/sanitize.sh [address|thread] [build-dir] [-- extra ctest args]
#
# * address (default) — ASan+UBSan over the whole suite. The build defines
#   SVMSIM_POOL_PARANOID and SVMSIM_NO_FRAME_POOL (see the SVMSIM_SANITIZE
#   option in CMakeLists.txt): object pools and the coroutine frame pool hand
#   memory straight back to the allocator, so use-after-release bugs in the
#   pooled protocol hot path surface as real heap-use-after-free reports
#   instead of being masked by recycling.
#
# * thread — TSan over the sweep-pool subset: the JobPool and sweep tests
#   (whole simulations on worker threads, one Machine per worker), the
#   Machine and PageDirectory tests, and a paper --jobs=4 run. A Machine is
#   single-threaded, so the rest adds nothing under TSan and triples the
#   wall time; it is skipped.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

mode="address"
case "${1:-}" in
  address|thread) mode="$1"; shift ;;
esac
if [ "$mode" = "thread" ]; then
  sanitize="thread"
  default_dir="$repo_root/build-tsan"
else
  sanitize="address,undefined"
  default_dir="$repo_root/build-sanitize"
fi
build_dir="${1:-$default_dir}"
shift || true
[ "${1:-}" = "--" ] && shift

cmake -S "$repo_root" -B "$build_dir" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSVMSIM_SANITIZE="$sanitize"
cmake --build "$build_dir" -j "$(nproc)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
# Sanitizer instrumentation defeats the tail calls behind coroutine symmetric
# transfer, so long synchronous co_await chains consume real stack that the
# optimized build does not. Raise the limit rather than shrinking the tests.
# A finite limit, not unlimited: glibc sizes every new thread's stack from
# it (an unlimited limit gives threads 2 MiB), and the --jobs pool of
# paper_suite_tiny runs the same deep chains on worker threads.
ulimit -s 1048576 2>/dev/null || ulimit -s unlimited 2>/dev/null || true

if [ "$mode" = "thread" ]; then
  # The sweep-pool subset: the --jobs pool and the sweep batch that fans
  # out on it, and the machine/runner and page-directory paths every
  # worker's Machine runs.
  ctest --test-dir "$build_dir" --output-on-failure \
    -R 'test_(job_pool|determinism|harness|machine|page_directory)' \
    "$@"
  # The paper driver's one batch on four jobs: duplicate slots are copied
  # from their first run after the fan-out, and failed slots are written by
  # the worker that caught the exception.
  "$build_dir/bench/paper" --scale=tiny --jobs=4 --apps=fft,lu > /dev/null
  echo "sanitize.sh: TSan arm passed (sweep-pool subset + paper --jobs=4)"
else
  ctest --test-dir "$build_dir" --output-on-failure "$@"
  # Large-machine stress point under ASan/UBSan with paranoid pools: every
  # pooled clock body at 64 nodes is a real allocation, so lifetime bugs in
  # the sparse transport (docs/scaling.md) surface as use-after-free.
  "$build_dir/bench/sweep_dump" --apps=stress-gen@3 --procs=256 > /dev/null
  # Schedule exploration under ASan/UBSan: the exhaustive tiny config plus
  # a record->replay round trip exercise the forced-prefix replay, sleep
  # sets and the schedule file codec with every allocation instrumented.
  "$build_dir/bench/explore" --app=stress-micro@3 --procs=2 --ppn=1 \
    --page-bytes=32 --wire-latency=4000 --mode=full --max-states=4096 \
    --expect-states=13 --expect-violations=0 > /dev/null
  "$build_dir/bench/explore" --app=stress-micro@3 --procs=2 --ppn=1 \
    --page-bytes=32 --wire-latency=4000 --record="$build_dir/ci.sched" \
    > /dev/null
  "$build_dir/bench/explore" --app=stress-micro@3 --procs=2 --ppn=1 \
    --page-bytes=32 --wire-latency=4000 --replay="$build_dir/ci.sched" \
    > /dev/null
  rm -f "$build_dir/ci.sched"
  echo "sanitize.sh: ASan/UBSan arm passed (full suite + 256-proc stress" \
    "point + explore exhaustive/replay)"
fi
