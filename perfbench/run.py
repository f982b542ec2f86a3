#!/usr/bin/env python3
"""Collision-advance benchmark entry point.

    python3 perfbench/run.py --workload species10 --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (the landau library from
src/ plus the collision_bench program) into .bench_build/perfbench on first
use, runs collision_bench and prints its result as the last line of stdout:

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics (Newton iterations/s, time to
solve one implicit step, set-up time); --trace 1 reports per-layer metrics
of the same steps, read from the library's own profiler.
Build output and diagnostics go to stderr. Exits non-zero without a result
when the sources are missing, the build fails or collision_bench fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "collision_bench"
# collision_bench measures for --seconds, then finishes the step and set-up in
# flight; this much more is allowed for the set-up, the checked reference
# step and that overrun before the run counts as hung.
RUN_GRACE_S = 145


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "collision_bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="species10, quench_ed or grids3")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    # The library reads LANDAU_* switches (tracing, device checker, fault
    # injection, step log); a measurement runs with all of them off.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LANDAU_")}
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    timeout = args.seconds + RUN_GRACE_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"collision_bench exceeded {timeout:g} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"collision_bench exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("collision_bench printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("collision_bench result has unexpected keys")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
