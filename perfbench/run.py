"""msgate sweep benchmark.

    python3 perfbench/run.py --workload omega_rect --seed 1 --seconds 34 --trace 0

Run from the root of a checkout.  Each measured run is a fresh interpreter
(``worker.py``) that evaluates one point at a time, closed loop, one client,
``workers = 1``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced run.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("omega_rect", "eta_sin2_analytic", "crosscheck")

# Set-up is timed in the measured process and in this many more processes
# that stop before the first point; setup_s is the median.
SETUP_PROBES = 4
# Whole-run budget; a worker still running at the deadline is killed.
DEADLINE_S = 170.0
# One BLAS thread: the matrices are 32 x 32, so threads only add scheduling
# noise on a shared machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def spawn(args, deadline: float, *extra: str) -> dict:
    """Start a fresh interpreter on worker.py and return its JSON result."""
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, env=env,
                              cwd=ROOT, text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_facts() -> dict:
    src = os.path.join(ROOT, "src", "msgate")
    lines, digest = 0, hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(name.encode() + b"\0" + data)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}


def end_to_end(args, deadline: float) -> tuple[dict, list[dict]]:
    main_run = spawn(args, deadline)
    setups = [main_run["setup_s"]]
    setups += [spawn(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    metrics = {
        "norm_points_per_s": {"value": main_run["norm_points_per_s"], "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
    }
    main_run["setup_samples_s"] = setups
    return metrics, [main_run]


def check_predictions(workload: str, layers: dict) -> list[tuple[str, bool]]:
    """The per-layer predictions written in README.md, checked on this run."""
    self_s = {k: v["self_s"] for k, v in layers.items()}
    total = sum(self_s.values())
    top = max(self_s, key=self_s.get)
    calls = {k: v["calls"] for k, v in layers.items()}
    checks = [(f"resint.resonance_integral runs {'only here' if workload == 'crosscheck' else 'not here'}",
               (calls["resint.resonance_integral"] > 0) == (workload == "crosscheck"))]
    if workload == "omega_rect":
        checks.append(("trotter.propagate_numeric has the largest self time",
                       top == "trotter.propagate_numeric"))
        checks.append(("magnus.dyson_hat_terms self time < 2% of the run",
                       self_s["magnus.dyson_hat_terms"] < 0.02 * total))
    else:
        checks.append(("trotter.propagate_numeric is not called",
                       calls["trotter.propagate_numeric"] == 0))
    if workload == "eta_sin2_analytic":
        checks.append(("magnus.dyson_hat_terms has the largest self time",
                       top == "magnus.dyson_hat_terms"))
    return checks


def per_layer(args, deadline: float) -> tuple[dict, list[dict]]:
    plain = spawn(args, deadline)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    traced = spawn(args, deadline, "--trace", trace_path)
    layers = traced["layers"]
    metrics = {}
    for name, row in layers.items():
        if name.startswith("bench."):
            continue
        metrics[f"{name}.calls"] = {"value": row["calls"], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": row["self_s"], "unit": "s"}
    busy = layers["trotter.propagate_numeric"]["total_s"]
    metrics["trotter.steps"] = {"value": traced["trotter_steps"], "unit": "count"}
    metrics["trotter.steps_per_s"] = {
        "value": traced["trotter_steps"] / busy if busy else 0.0, "unit": "1/s"}
    metrics["magnus.dyson_cache.hits"] = {"value": traced["dyson_cache"]["hits"], "unit": "count"}
    metrics["magnus.dyson_cache.misses"] = {"value": traced["dyson_cache"]["misses"], "unit": "count"}
    metrics["trace.overhead_frac"] = {
        "value": plain["norm_points_per_s"] / traced["norm_points_per_s"] - 1.0, "unit": "1"}

    total_self = sum(r["self_s"] for r in layers.values())
    print(f"per-layer self time, {args.workload}, seed {args.seed}, "
          f"{traced['attempted']} points ({trace_path})")
    print(f"  {'span':34s} {'calls':>8s} {'total_s':>9s} {'self_s':>9s} {'self%':>6s}")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:34s} {row['calls']:8d} {row['total_s']:9.3f} {row['self_s']:9.3f} "
              f"{100 * row['self_s'] / total_self:6.1f}")
    print(f"  tracing overhead: {metrics['trace.overhead_frac']['value']:+.3f} "
          f"(untraced {plain['norm_points_per_s']:.4f} vs traced "
          f"{traced['norm_points_per_s']:.4f} normalised points/s)")
    traced["predictions"] = check_predictions(args.workload, layers)
    for text, ok in traced["predictions"]:
        print(f"  prediction {'holds' if ok else 'FAILS'}: {text}")
    return metrics, [plain, traced]


def main() -> int:
    ap = argparse.ArgumentParser(description="msgate sweep benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, runs = (per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and not any(r["setup_misses"] for r in runs)
    for r in runs:
        for msg in r["setup_misses"]:
            print(f"set-up miss: {msg}")
        for p in r["points"]:
            for msg in p["misses"]:
                print(f"point {p['index']} (axis {p['axis']:g}) failed: {msg}")
    provenance = dict(source_facts(), **runs[0]["provenance"])
    print(f"{args.workload} seed {args.seed}: {attempted} points, {failed} failed "
          f"(failed_frac {failed / attempted:.3f}); " +
          ", ".join(f"{k} {v['value']:.4g}" for k, v in metrics.items() if "." not in k))
    print("provenance: " + json.dumps(provenance))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "correct": correct, "attempted": attempted,
                   "failed": failed, "failed_frac": failed / attempted, "metrics": metrics,
                   "provenance": provenance, "runs": runs}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
