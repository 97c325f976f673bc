"""The measured process: one workload, one seed, a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It prints one JSON
object as its last line.  ``--t0`` is the parent's ``time.monotonic()`` just
before it started this interpreter, so ``setup_s`` covers interpreter start,
importing msgate, parsing the config and building the spec.  Every cache in
msgate starts empty because the interpreter is new.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import bench
import msgate
from msgate import budget, cli, fidelity, hilbert, magnus, resint, trotter

import numpy as np
import scipy

from tracing import Tracer

MODULES = {"cli": cli, "budget": budget, "hilbert": hilbert, "magnus": magnus,
           "resint": resint, "trotter": trotter, "fidelity": fidelity}


def _trotter_steps(params, pulse=None, config=None) -> int:
    config = config if config is not None else trotter.TrotterConfig()
    pulse = pulse if pulse is not None else msgate.rectangular()
    return config.num_steps(params, pulse)


def provenance() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "msgate": msgate.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", default=None, help="record spans and write them to this path")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workload = bench.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        tracer = Tracer(f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
        tracer.install(MODULES, {"trotter.propagate_numeric": _trotter_steps})
    ctx = bench.setup(workload)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ref = bench.load_reference(workload)
    setup_misses = bench.check_candidates(ctx, ref)
    rounds = bench.draw_rounds(len(ctx.candidates), workload.strata, args.seed)
    rounds = rounds[:workload.rounds_for(args.seconds)]
    points = bench.run_rounds(ctx, ref, rounds, tracer)
    failed = sum(1 for p in points if p["misses"])
    busy_s = sum(p["seconds"] for p in points)
    ref_busy_s = sum(p["seconds"] * bench.PROBE_REF_S / p["probe_s"] for p in points)

    result = {
        "setup_s": setup_s,
        "points_per_s": (len(points) - failed) / busy_s,
        "norm_points_per_s": (len(points) - failed) / ref_busy_s,
        "busy_s": busy_s,
        "ref_busy_s": ref_busy_s,
        "rounds": len(rounds),
        "attempted": len(points),
        "failed": failed,
        "setup_misses": setup_misses,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "points": points,
        "provenance": provenance(),
    }
    if tracer:
        tracer.write_jsonl(args.trace)
        result["layers"] = tracer.summary()
        result["trotter_steps"] = tracer.counts.get("trotter.propagate_numeric", 0)
        result["dyson_cache"] = dict(zip(("misses", "hits"), tracer.children_named(
            "magnus.dyson_hat_terms", "hilbert.hamiltonian_terms")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
