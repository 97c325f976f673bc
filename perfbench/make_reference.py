"""Capture the reference outputs of one workload's candidate points.

    python3 perfbench/make_reference.py --workload omega_rect

writes ``perfbench/reference/omega_rect.json``.  Run it once per workload at
the commit whose outputs are the reference; a later change that moves the
outputs must not regenerate these files to pass.

For points with the numeric propagator Unum it also evaluates Unum with twice
the step count.  The midpoint rule is second order, so Richardson
extrapolation of the two gives a reference ``unum_ref`` that is far more
accurate than either, and ``err = |infid_Unum - unum_ref|`` is the
integrator's own discretisation error at that point.  The stored tolerance is
``UNUM_MARGIN * err``: a step policy at least as accurate as this one passes,
one that is less accurate by more than the margin fails.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import bench
from msgate import cli, fidelity, trotter

UNUM_MARGIN = 1.5


def refine_unum(ctx: bench.Context, value: float, coarse: float) -> tuple[float, float]:
    spec = ctx.spec
    p = cli._point_params(spec, value)
    n = trotter.TrotterConfig(safety=spec.safety).num_steps(p, spec.pulse)
    fine_cfg = trotter.TrotterConfig(safety=spec.safety, steps_override=2 * n)
    U = trotter.propagate_numeric(p, spec.pulse, fine_cfg)
    fine = 1.0 - fidelity.average_fidelity(U, fidelity.ThermalWeights(p.nbar, p.n_dim))
    richardson = (4.0 * fine - coarse) / 3.0
    return richardson, abs(coarse - richardson)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    args = ap.parse_args()
    workload = bench.WORKLOADS[args.workload]
    ctx = bench.setup(workload)
    points = []
    for i, value in enumerate(ctx.candidates):
        t0 = time.perf_counter()
        row = bench.evaluate(ctx, i)
        entry = {"row": row, "cost_s": round(time.perf_counter() - t0, 3)}
        if "infid_Unum" in row:
            entry["unum_ref"], err = refine_unum(ctx, value, row["infid_Unum"])
            entry["unum_err"] = err
            entry["unum_tol"] = UNUM_MARGIN * err
        points.append(entry)
        print(f"{workload.name} {i + 1}/{len(ctx.candidates)} axis={value:g} "
              f"{entry['cost_s']:.2f}s", flush=True)
    os.makedirs(bench.REFERENCE_DIR, exist_ok=True)
    with open(bench.reference_path(workload), "w") as fh:
        json.dump({"workload": workload.name, "unum_margin": UNUM_MARGIN, "points": points},
                  fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
