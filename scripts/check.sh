#!/usr/bin/env bash
# Full verification loop: configure, build, test, run every benchmark.
#
# Usage: scripts/check.sh [--asan|--tsan|--all|--soak [N]]
#   (no flag)   build, run the tests and every benchmark's smoke mode and
#               regression guards, then a 2 s traced e2ebench run of each
#               workload that must report correct with no failed ops.
#   --asan      build into build-asan/ with OOINT_SANITIZE=address,undefined
#               and run the tests under the sanitizers (benchmarks skipped:
#               sanitized timings are meaningless).
#   --tsan      build into build-tsan/ with OOINT_SANITIZE=thread and run
#               the concurrency-relevant suites (thread pool, overlapped
#               fetching, federation, fault injection, conformance) with
#               the parallel runtime forced to 4 workers, then smoke-run
#               bench_parallel and bench_serving's coalescing storm so the
#               overlapped-fetch path and the single-flight window every
#               demand miss enters execute under the race detector.
#   --all       the plain pass, the --asan pass, then the --tsan pass —
#               the CI matrix in one command.
#   --soak [N]  build, then run the randomized conformance harness over N
#               seeds (default 5000) starting from a fresh offset; failing
#               seeds are shrunk to minimal repros and printed. Honors
#               OOINT_SOAK_THREADS: when set (>1), the parallel-vs-serial
#               oracle pins its worker-pool size to it instead of drawing
#               from {2, 4, 8} per seed.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--all" ]]; then
  "$0"
  "$0" --asan
  exec "$0" --tsan
fi

if [[ "${1:-}" == "--soak" ]]; then
  COUNT="${2:-5000}"
  # A date-derived start offset explores fresh seed ranges on each day
  # while staying reproducible within one (override with SOAK_START).
  START="${SOAK_START:-$(( $(date +%Y%m%d) * 1000 ))}"
  CONFIG_ARGS=()
  # Only pick a generator on a fresh configure; an existing cache pins it.
  if command -v ninja >/dev/null 2>&1 && [[ ! -f build/CMakeCache.txt ]]; then
    CONFIG_ARGS+=(-G Ninja)
  fi
  cmake -B build -S . "${CONFIG_ARGS[@]}"
  cmake --build build -j "$(nproc)" --target conformance_soak
  if [[ -n "${OOINT_SOAK_THREADS:-}" ]]; then
    echo "== conformance soak: $COUNT seeds from $START (parallel oracle pinned to ${OOINT_SOAK_THREADS} threads) =="
  else
    echo "== conformance soak: $COUNT seeds from $START =="
  fi
  # conformance_soak reads OOINT_SOAK_THREADS itself; exec inherits it.
  exec ./build/tests/harness/conformance_soak "$COUNT" "$START"
fi

BUILD_DIR=build
CONFIG_ARGS=()
RUN_BENCH=1
TEST_FILTER=""
if [[ "${1:-}" == "--asan" ]]; then
  BUILD_DIR=build-asan
  CONFIG_ARGS+=(-DOOINT_SANITIZE=address,undefined)
  RUN_BENCH=0
fi
if [[ "${1:-}" == "--tsan" ]]; then
  BUILD_DIR=build-tsan
  CONFIG_ARGS+=(-DOOINT_SANITIZE=thread)
  RUN_BENCH=0
  # The suites that exercise shared state across threads; the rest of
  # the tree is single-threaded and only slows the (expensive) TSan run.
  TEST_FILTER="ThreadPool|Parallel|Connection|Breaker|Fault|QueryCache|Demand|Federat|Conformance|Evaluat|Admission|Cancel|Overload|LiveUpdate|Incremental|Delta|Serving|Cursor|Pipeline|JoinKernel|Planner|Segment|Matcher"
  # Force the conformance sweep's parallel-vs-serial oracle onto a
  # fixed 4-worker pool so every seed runs the parallel runtime.
  export OOINT_SOAK_THREADS=4
fi

# Prefer Ninja when available; fall back to the default generator. An
# existing cache pins whatever generator configured it first.
if command -v ninja >/dev/null 2>&1 && [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  CONFIG_ARGS+=(-G Ninja)
fi

cmake -B "$BUILD_DIR" -S . "${CONFIG_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
if [[ -n "$TEST_FILTER" ]]; then
  ctest --test-dir "$BUILD_DIR" --output-on-failure -R "$TEST_FILTER"
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure
fi
if [[ "${1:-}" == "--tsan" ]]; then
  # One short pass over the thread sweeps: the overlapped fetches and
  # the concurrent serving path run under the race detector (timings
  # are meaningless and discarded).
  "$BUILD_DIR"/bench/bench_parallel --benchmark_min_time=0.01
  # Every demand miss enters the single-flight window; 32 storm workers
  # race it over zipfian goals.
  "$BUILD_DIR"/bench/bench_serving --benchmark_filter=BM_CoalesceSpeedup \
    --benchmark_min_time=0.01
fi
if [[ "$RUN_BENCH" == 1 ]]; then
  # Smoke mode: one short iteration per benchmark proves they still run
  # (including bench_query's demand-driven suite) without turning the
  # verification loop into a measurement session — scripts/bench.sh is
  # the tool for real (Release) numbers.
  for b in "$BUILD_DIR"/bench/bench_*; do "$b" --benchmark_min_time=0.01; done
  # Columnar-store memory regression guard: fails when bytes/fact
  # exceeds the checked-in budget by >15% (bench/bench_storage.cc).
  "$BUILD_DIR"/bench/bench_storage --budget_check
  # Serving-path regression guard: fails when the mixed-workload p99
  # exceeds its budget or bounded top-k stops beating whole-answer
  # materialization on held bytes (bench/bench_serving.cc).
  "$BUILD_DIR"/bench/bench_serving --p99_check
  # Join-kernel regression guard: fails when the derive-bound reach
  # closure derives other than its checked-in fact count under either
  # planner mode, or when its deterministic join counters exceed their
  # budgets (bench/bench_join.cc).
  "$BUILD_DIR"/bench/bench_join --regression_check
  # Integration-pruning regression guard: fails unless every E2 mix's
  # pairs checked, label skips, sibling removals and DFS steps equal
  # their checked-in values at n = 255 and 1023 (bench/bench_labels.cc).
  "$BUILD_DIR"/bench/bench_labels --regression_check
  # End-to-end correctness smoke: a short traced run of each e2ebench
  # workload (run.py builds its own Release package). run.py exits 0
  # even on a wrong answer, so the verdict is read from its result
  # line; the traced run's exact-count self-check is what catches a
  # demand miss that builds a base segment disagreeing with one that
  # reuses it.
  for w in connect demand serve_live; do
    result="$(python3 e2ebench/run.py --workload "$w" --seed 1 --seconds 2 \
      --trace 1 | tail -n 1)"
    if ! python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$result"; then
      echo "e2ebench smoke failed on workload $w: $result" >&2
      exit 1
    fi
  done
fi
