#!/usr/bin/env bash
# Smoke run of the collision-advance benchmark (perfbench/): one short run of
# each workload, failing unless the benchmark's own end-to-end checks pass.
# Those checks recompute the residual from outside the integrator, require
# exact densities, and require every repeated step to equal the reference
# step, so they catch a kernel change that breaks convergence, conservation
# or determinism. One traced run (species10, --trace 1) must also read every
# per-layer time from its profiler event, so a moved or renamed event fails
# here instead of reading as a zero.
#
# Usage: tools/perfbench_smoke.sh   (builds into .bench_build/perfbench)
set -euo pipefail

cd "$(dirname "$0")/.."
for W in species10 quench_ed grids3; do
  python3 perfbench/run.py --workload "${W}" --seed 1 --seconds 1 --trace 0 |
    python3 -c '
import json, sys
workload = sys.argv[1]
lines = sys.stdin.read().strip().splitlines()
if not lines:
    sys.exit("perfbench %s: no result" % workload)
result = json.loads(lines[-1])
if result["correct"] is not True or result["failed"] != 0:
    sys.exit("perfbench %s: checks failed: %s" % (workload, json.dumps(result)))
print("perfbench %s: correct, %d attempted, 0 failed" % (workload, result["attempted"]))
' "${W}"
done
python3 perfbench/run.py --workload species10 --seed 1 --seconds 1 --trace 1 |
  python3 -c '
import json, sys
lines = sys.stdin.read().strip().splitlines()
if not lines:
    sys.exit("perfbench species10 --trace 1: no result")
result = json.loads(lines[-1])
layers = ("landau_ms", "advection_ms", "factor_ms", "solve_ms", "pack_ms", "landau_mflop")
zero = [m for m in layers if not result["metrics"].get(m, {}).get("value", 0) > 0]
if result["correct"] is not True or zero:
    sys.exit("perfbench species10 --trace 1: not correct or not > 0: %s: %s"
             % (", ".join(zero), json.dumps(result)))
print("perfbench species10 --trace 1: correct, %s all > 0" % ", ".join(layers))
'
