#!/usr/bin/env bash
# Full verification matrix: tier-1 tests, the three sanitizer builds over the
# concurrency-sensitive suites (ctest -L sanitize of the one test binary),
# the device memory-model checker validation suite (with the checker
# force-enabled through the environment), the telemetry stage (a short traced quench run whose Chrome-trace JSON and
# NDJSON step log are schema-validated, the bench_compare self-test, and one
# Table IV roofline run, which fails when a kernel event carries no work),
# the back-end differential stage (the same quench with the default kernel
# and with the serial cpu reference, step logs compared), the perfbench smoke
# stage (each benchmark workload once, its end-to-end checks must pass), and
# the static stage: landau-lint over the annotated kernel layer plus
# clang-tidy when available.
#
# Usage: tools/check.sh [build-dir]   (default: build-check)
#
# Each stage is independent; the script stops at the first failure. Expect
# the whole matrix to take a while — the sanitizer stages each rebuild the
# library and the test binary.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD=${1:-build-check}
JOBS=${JOBS:-2}

echo "== tier-1: full test suite (${BUILD}) =="
cmake -S . -B "${BUILD}" >/dev/null
cmake --build "${BUILD}" -j "${JOBS}"
ctest --test-dir "${BUILD}" --output-on-failure

echo "== analysis: device memory-model checker (LANDAU_CHECK_DEVICE=1) =="
LANDAU_CHECK_DEVICE=1 ctest --test-dir "${BUILD}" -L analysis --output-on-failure

echo "== telemetry: traced quench run + schema validation =="
if command -v python3 >/dev/null 2>&1; then
  TELEMETRY_DIR="${BUILD}/telemetry"
  rm -rf "${TELEMETRY_DIR}" && mkdir -p "${TELEMETRY_DIR}"
  "${BUILD}/examples/thermal_quench" -max_steps 5 -ion_mass 25 \
    -landau_cells_per_thermal 0.8 -landau_max_levels 5 \
    -landau_trace "${TELEMETRY_DIR}/trace.json" \
    -landau_step_log "${TELEMETRY_DIR}/steps.ndjson" >/dev/null
  python3 - "${TELEMETRY_DIR}/trace.json" "${TELEMETRY_DIR}/steps.ndjson" <<'EOF'
import json, sys
trace_path, steps_path = sys.argv[1], sys.argv[2]
with open(trace_path) as f:
    events = json.load(f)
assert isinstance(events, list) and events, "trace is not a non-empty JSON array"
for e in events:
    for key in ("name", "ph", "ts", "dur", "pid", "tid"):
        assert key in e, f"trace event missing '{key}': {e}"
    assert e["ph"] == "X", f"unexpected event phase {e['ph']!r}"
names = {e["name"] for e in events}
assert any(n.startswith("landau:") for n in names), f"no landau:* spans in {sorted(names)[:10]}"
# Profiler events are the spans: each Jacobian launch lies inside the
# Jacobian event, and that inside the Landau matrix event, on one thread,
# and both keep their arguments.
by_name = {}
for e in events:
    by_name.setdefault(e["name"], []).append(e)
def inside(inner, outer):
    return (inner["tid"] == outer["tid"] and outer["ts"] <= inner["ts"] and
            inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3)
def has_args(e, keys):
    return all(k in e.get("args", {}) for k in keys)
launches = by_name.get("landau:jacobian-cuda", [])
kernels = by_name.get("landau:jacobian-kernel", [])
matrices = by_name.get("landau:matrix", [])
assert launches, "no landau:jacobian-cuda spans"
for launch in launches:
    assert has_args(launch, ("grid", "block_x", "block_y")), f"launch args missing: {launch}"
    parents = [k for k in kernels if inside(launch, k)]
    assert parents, f"landau:jacobian-cuda outside every landau:jacobian-kernel: {launch}"
    assert any(inside(parents[0], m) for m in matrices), \
        f"landau:jacobian-kernel outside every landau:matrix: {parents[0]}"
for kernel in kernels:
    assert has_args(kernel, ("species", "cells", "ip_points")), f"kernel args missing: {kernel}"
with open(steps_path) as f:
    lines = [json.loads(line) for line in f if line.strip()]
assert len(lines) >= 6, f"expected >= 6 step records, got {len(lines)}"
for rec in lines:
    for key in ("kind", "step", "t", "dt", "newton_iterations", "factorizations",
                "newton_contraction", "rejections", "n_e", "j_z", "e_z", "t_e", "phase"):
        assert key in rec, f"step record missing '{key}': {rec}"
# The lagged Newton matrix: each step factors at its first iteration and
# reuses the LU while the residual contracts, so a run that factors at every
# iteration has lost the lag.
steps = [rec for rec in lines if rec["step"] > 0]
factors = sum(rec["factorizations"] for rec in steps)
iterations = sum(rec["newton_iterations"] for rec in steps)
assert factors < iterations, \
    f"{factors} factorizations for {iterations} Newton iterations: the LU is never reused"
print(f"telemetry ok: {len(events)} spans, {len(lines)} step records, "
      f"{factors} factorizations / {iterations} Newton iterations")
EOF
  python3 tools/bench_compare.py --self-test
  # Table IV reads each kernel's work from its profiler event and fails
  # when an entry reads no flops or no bytes; its BENCH JSON stays here.
  ROOFLINE="$(cd "${BUILD}" && pwd)/bench/bench_table4_roofline"
  (cd "${TELEMETRY_DIR}" && "${ROOFLINE}" -calibration_budget 0.05 >/dev/null)
else
  echo "python3 not installed: skipped"
fi

echo "== differential: default back-end against the serial cpu reference =="
if command -v python3 >/dev/null 2>&1; then
  python3 tools/backend_diff.py "${BUILD}"
else
  echo "python3 not installed: skipped"
fi

echo "== perfbench: collision-advance benchmark smoke (its own correctness checks) =="
if command -v python3 >/dev/null 2>&1; then
  tools/perfbench_smoke.sh
else
  echo "python3 not installed: skipped"
fi

for SAN in thread address undefined; do
  echo "== sanitize: ${SAN} =="
  cmake -S . -B "${BUILD}-${SAN}" -DLANDAU_SANITIZE="${SAN}" >/dev/null
  cmake --build "${BUILD}-${SAN}" -j "${JOBS}" --target landau_tests
  ctest --test-dir "${BUILD}-${SAN}" -L sanitize --output-on-failure
done

echo "== static: landau-lint + clang-tidy =="
LINT_KERNELS="skipped (python3 not installed)"
CLANG_TIDY="skipped (clang-tidy not installed)"
if command -v python3 >/dev/null 2>&1; then
  cmake --build "${BUILD}" --target lint-kernels
  LINT_KERNELS="clean"
fi
if command -v clang-tidy >/dev/null 2>&1; then
  cmake --build "${BUILD}" --target lint
  CLANG_TIDY="clean"
fi
echo "static: landau-lint ${LINT_KERNELS}, clang-tidy ${CLANG_TIDY}"

echo "== all checks passed =="
