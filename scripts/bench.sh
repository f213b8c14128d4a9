#!/usr/bin/env bash
# Runs a benchmark suite in a Release build and writes the JSON
# snapshot the docs reference (BENCH_<suite>.json at the repo root),
# stamped with the git SHA and the ooint build type it was measured at.
# Every benchmark runs 5 times; the snapshot keeps each one's median and
# coefficient of variation (libbenchmark's `_median` and `_cv`
# aggregates).
#
# Usage: scripts/bench.sh [target] [benchmark_filter]
#   scripts/bench.sh                             # bench_eval, full suite
#   scripts/bench.sh bench_query                 # the demand-query suite
#   scripts/bench.sh bench_eval 'BM_BottomUp.*'  # subset
#
# The Release build lives in build-bench/ (override with BUILD_DIR) so
# benchmark numbers never come from the default debug tree.
set -euo pipefail
cd "$(dirname "$0")/.."

TARGET="${1:-bench_eval}"
FILTER="${2:-.}"
BUILD_DIR="${BUILD_DIR:-build-bench}"
BUILD_TYPE="${BUILD_TYPE:-Release}"
OUT="BENCH_${TARGET#bench_}.json"
GIT_SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD -- 2>/dev/null; then
  GIT_SHA="${GIT_SHA}-dirty"
  echo "=======================================================================" >&2
  echo "WARNING: the working tree has uncommitted changes." >&2
  echo "         $OUT will be stamped git_sha=$GIT_SHA: its numbers belong" >&2
  echo "         to no commit. Commit first for a snapshot worth keeping." >&2
  echo "=======================================================================" >&2
fi

CONFIG_ARGS=(-DCMAKE_BUILD_TYPE="$BUILD_TYPE")
if command -v ninja >/dev/null 2>&1 && [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  CONFIG_ARGS+=(-G Ninja)
fi
cmake -B "$BUILD_DIR" -S . "${CONFIG_ARGS[@]}"

# A snapshot is only trustworthy from an optimized library. A reused
# BUILD_DIR configured with a different build type would silently taint
# every number (CMake ignores a changed -DCMAKE_BUILD_TYPE on an
# existing cache), so a mismatched cache fails fast.
CACHED_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)"
if [[ -n "$CACHED_TYPE" && "$CACHED_TYPE" != "$BUILD_TYPE" ]]; then
  echo "error: $BUILD_DIR is configured as $CACHED_TYPE, not $BUILD_TYPE." >&2
  echo "       Delete $BUILD_DIR or point BUILD_DIR at a $BUILD_TYPE tree." >&2
  exit 1
fi
if [[ "$BUILD_TYPE" != "Release" ]]; then
  echo "=======================================================================" >&2
  echo "WARNING: benchmarking a $BUILD_TYPE library." >&2
  echo "         These numbers are NOT comparable to the committed Release" >&2
  echo "         snapshots; $OUT will be stamped ooint_build_type=$BUILD_TYPE." >&2
  echo "=======================================================================" >&2
fi

cmake --build "$BUILD_DIR" -j "$(nproc)" --target "$TARGET"

"$BUILD_DIR/bench/$TARGET" \
  --benchmark_filter="$FILTER" \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_context=git_sha="$GIT_SHA" \
  --benchmark_context=ooint_build_type="$BUILD_TYPE" \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json

# libbenchmark stamps `library_build_type` with how libbenchmark itself
# was built (the distro package: "debug"), which reads as a claim about
# this library; ooint_build_type is the stamp that matters. Of the
# aggregates, the median and the CV stay; the CV of an all-zero counter
# is NaN, written as null so the snapshot stays strict JSON.
python3 - "$OUT" <<'PY'
import json
import math
import sys

path = sys.argv[1]
with open(path) as f:
    data = json.load(f)
data["context"].pop("library_build_type", None)
data["benchmarks"] = [b for b in data["benchmarks"]
                      if b.get("aggregate_name") in ("median", "cv")]
for bench in data["benchmarks"]:
    for key, value in bench.items():
        if isinstance(value, float) and math.isnan(value):
            bench[key] = None
with open(path, "w") as f:
    json.dump(data, f, indent=2, allow_nan=False)
    f.write("\n")
PY
echo "Wrote $(pwd)/$OUT (git_sha=$GIT_SHA, ooint_build_type=$BUILD_TYPE, 5 repetitions)"
