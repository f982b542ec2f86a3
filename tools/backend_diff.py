#!/usr/bin/env python3
"""Back-end differential stage: the fast kernels against the serial reference.

Runs the 5-step thermal quench of tools/check.sh's telemetry stage three
times, with the default Landau back-end (cuda-sim), with `-landau_backend
kokkos` and with `-landau_backend cpu`, the serial reference kernel. The two
fast kernels read the operator's pair-tensor table; the reference recomputes
every tensor. Each fast run's NDJSON step log is compared with the
reference's record by record:

  * n_e, j_z, e_z, t_e and runaway_fraction within 1e-10 relative;
  * newton_iterations, factorizations, rejections and dt exactly.

newton_contraction is not compared: it is a ratio of two residual norms near
the tolerance, which the back-ends' different summation orders move far more
than the state (about 1e-4 relative).

Usage: tools/backend_diff.py [build-dir]   (default: build; needs
examples/thermal_quench built there)
"""

import json
import os
import subprocess
import sys
import tempfile

RUN_ARGS = ["-max_steps", "5", "-ion_mass", "25", "-landau_cells_per_thermal", "0.8",
            "-landau_max_levels", "5"]
RELATIVE = ("n_e", "j_z", "e_z", "t_e", "runaway_fraction")
EXACT = ("step", "newton_iterations", "factorizations", "rejections", "dt")
TOLERANCE = 1e-10


def step_log(binary, path, backend_args):
    subprocess.run([binary, *RUN_ARGS, *backend_args, "-landau_step_log", path],
                   check=True, stdout=subprocess.DEVNULL)
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def relative(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def compare(name, fast, cpu):
    """Failure lines of one fast back-end's log against the reference log."""
    if len(fast) != len(cpu) or len(fast) < 6:
        return [f"{len(fast)} {name} records against {len(cpu)} cpu records"]
    failures = []
    worst = dict.fromkeys(RELATIVE, 0.0)
    for a, b in zip(fast, cpu):
        for key in RELATIVE:
            d = relative(a[key], b[key])
            worst[key] = max(worst[key], d)
            if d > TOLERANCE:
                failures.append(f"{name} step {a['step']} {key}: {a[key]!r} vs {b[key]!r} "
                                f"({d:.2e})")
        for key in EXACT:
            if a[key] != b[key]:
                failures.append(f"{name} step {a['step']} {key}: {a[key]!r} vs {b[key]!r}")
    print(f"backend diff ({name} vs cpu), worst relative: " +
          ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))
    return failures


def main():
    build = sys.argv[1] if len(sys.argv) > 1 else "build"
    binary = os.path.join(build, "examples", "thermal_quench")
    with tempfile.TemporaryDirectory() as tmp:
        default = step_log(binary, os.path.join(tmp, "default.ndjson"), [])
        kokkos = step_log(binary, os.path.join(tmp, "kokkos.ndjson"),
                          ["-landau_backend", "kokkos"])
        cpu = step_log(binary, os.path.join(tmp, "cpu.ndjson"), ["-landau_backend", "cpu"])
    failures = compare("default", default, cpu) + compare("kokkos", kokkos, cpu)
    if failures:
        sys.exit("backend diff failed:\n  " + "\n  ".join(failures))
    print(f"backend diff ok: {len(cpu)} records per back-end, counts and dt equal")


if __name__ == "__main__":
    main()
