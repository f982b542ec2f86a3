#!/usr/bin/env bash
# Smoke run of the collision-advance benchmark (perfbench/): one short run of
# each workload, failing unless the benchmark's own end-to-end checks pass.
# Those checks recompute the residual from outside the integrator, require
# exact densities, and require every repeated step to equal the reference
# step, so they catch a kernel change that breaks convergence, conservation
# or determinism.
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
