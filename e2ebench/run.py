#!/usr/bin/env python3
"""Builds the ooint end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload connect --seed 1 --seconds 10 --trace 0

The library in ./src and the driver in e2ebench/ are compiled in Release
into .bench_build/e2ebench (configured once, rebuilt incrementally). The
driver's output is passed through: lines starting with '#' are notes (the
run stamp, the per-workload metric names of README.md, span checks) and
the last line is the JSON result. With --trace 1 the spans are written to
.bench_build/e2ebench/spans/<workload>-seed<seed>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
WORKLOADS = ("connect", "demand", "serve_live")
# Seeds 1-10 are for tuning and steadiness runs; a claimed gain is
# re-checked on this seed, which no tuning run uses.
VALIDATION_SEED = 1009
# A run must end within 180 s; the driver measures for --seconds.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


def cache_value(cache, key):
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources not found at %s" % (ROOT / "src"), code=2)
    BUILD.mkdir(parents=True, exist_ok=True)
    cache = BUILD / "CMakeCache.txt"
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                  "-j", str(os.cpu_count() or 1)])
    log = BUILD / "build.log"
    with open(log, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (full log: %s)" % log)
    build_type = cache_value(cache, "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        fail("refusing a %r build; delete %s to reconfigure" % (build_type, BUILD))
    if "-fsanitize" in cache_value(cache, "CMAKE_CXX_FLAGS"):
        fail("refusing a sanitizer build")
    return BUILD / "e2e_bench", build_type


def git(*args):
    try:
        result = subprocess.run(["git", "-C", str(ROOT)] + list(args),
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def run_stamp(build_type, args):
    sha, dirty = "unknown", "unknown"
    if git("rev-parse", "--show-toplevel") == str(ROOT):
        sha = git("rev-parse", "HEAD") or "unknown"
        status = git("status", "--porcelain", "--untracked-files=no")
        dirty = "unknown" if status is None else ("yes" if status else "no")
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "ooint_build_type": build_type,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "validation_seed": VALIDATION_SEED,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", code=2)

    binary, build_type = build()
    print("# run stamp " + json.dumps(run_stamp(build_type, args)), flush=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--spans", str(spans / ("%s-seed%d.jsonl" % (args.workload, args.seed)))]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        fail("e2e_bench exited with %d" % result.returncode)
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("e2e_bench did not end with a JSON result")
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys %s" % sorted(report))
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
