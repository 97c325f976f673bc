"""Write BENCH_<pr>.json at the repository root: the benchmark's end-to-end metrics over
repeated runs, and what the benchmark itself does not measure.

    python3 tools/record_bench.py --pr N

It changes no file under perfbench/.  Each workload run is ``perfbench/run.py --trace 0`` in a
subprocess; the script imports perfbench's ``run`` (source facts), ``worker`` (provenance and
the module map) and ``tracing`` (per-stage spans).  Every timed command runs with one BLAS
thread.  It records:
  * workloads: ``norm_points_per_s``, ``setup_s`` and ``peak_rss_mb`` of each workload, as
    median and quartiles over ``RUNS`` runs (seeds 4101, 4102, ...) of the benchmark's own run
    length (``run_seconds`` in BENCHMARK.json), the workload order rotated from run to run;
  * presets: for each ``configs/*.cfg``, the wall time of ``msgate sweep --workers 1``
    (median of 3) and the in-process compute of its sweep (best of 3, untraced), each in a
    fresh interpreter so that every cache starts empty, and from three more runs under
    perfbench's tracer the time inside ``trotter.propagate_numeric`` (Unum) and
    ``magnus.propagators_upto`` (Magnus), with the traced compute they are a share of, and
    the steps of the sweep's Unum calls: the summed step count N of their grids
    (``TrotterConfig.step_grid``) and the steps the kernel multiplies (``trotter._steps``,
    summed over its calls in both symmetry blocks), which the fold and the period power cut;
  * imports: ``import numpy``, then ``import msgate.cli``, timed inside fresh interpreters
    (median of 7), and whether bytecode caches are written and present;
  * tier1: the wall time of the Tier-1 suite, its summary line and its ``--durations=10``;
  * ``src_lines``, a byte check of ``--workers 1`` against ``2`` on every preset, and the provenance,
    with ``git status --porcelain`` beside ``git_commit``: a non-empty list means the measured
    tree differs from that commit.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC, PERFBENCH = ROOT / "src", ROOT / "perfbench"
sys.path[:0] = [str(SRC), str(PERFBENCH)]

import run  # noqa: E402  (perfbench/run.py)

os.environ.update(run.THREAD_ENV)  # before numpy loads, here and in every subprocess
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
PRESETS = sorted(p.stem for p in (ROOT / "configs").glob("*.cfg"))
RUNS = 5
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
METRICS = ("norm_points_per_s", "setup_s", "peak_rss_mb")
NOT_MEASURED = [
    "The K-sweep presets (fig3b, fig4b) have no benchmark workload: they are timed here end to end "
    "and as in-process compute only, without the speed-probe normalisation of norm_points_per_s.",
    "Preset and import times are wall-clock on a shared host; only norm_points_per_s is normalised "
    "by perfbench's speed probe.",
    "No per-layer spans of the workloads (perfbench/run.py --trace 1) and no --workers 2 timing.",
    "unum_s and magnus_s are timed under perfbench's tracer, whose wrappers add to them; compare "
    "them with traced_compute_s, not with the untraced compute_s.",
]


def _python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV, text=True,
                          stdout=subprocess.PIPE, check=True, **kwargs)


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def workloads() -> dict:
    samples = {w: [] for w in run.WORKLOADS}
    for i in range(RUNS):
        k = i % len(run.WORKLOADS)
        for w in run.WORKLOADS[k:] + run.WORKLOADS[:k]:
            out = _python("perfbench/run.py", "--workload", w, "--seed", str(4101 + i),
                          "--seconds", str(SECONDS), "--trace", "0")
            samples[w].append(json.loads(out.stdout.strip().splitlines()[-1]))
    return {w: {"seeds": [4101 + i for i in range(RUNS)],
                "failed": sum(r["failed"] for r in rs),
                **{m: _spread([r["metrics"][m]["value"] for r in rs]) for m in METRICS}}
            for w, rs in samples.items()}


def compute(preset: str, traced: bool) -> dict:
    """One sweep of ``preset`` in this (fresh) interpreter; ``traced`` installs perfbench's spans
    and counts the steps of the Unum grids and of the kernel."""
    import tracing
    import worker
    from msgate import cli, trotter
    tracer = tracing.Tracer(f"record-{preset}")
    steps = {"unum_grid_steps": 0, "unum_kernel_steps": 0}
    if traced:
        tracer.install(worker.MODULES)
        grid, kernel = trotter.TrotterConfig.step_grid, trotter._steps

        def counted_grid(config, params, pulse):
            out = grid(config, params, pulse)
            steps["unum_grid_steps"] += int(out[0])
            return out

        def counted_kernel(frame, amps):
            steps["unum_kernel_steps"] += len(amps)
            return kernel(frame, amps)
        trotter.TrotterConfig.step_grid, trotter._steps = counted_grid, counted_kernel
    spec = cli.sweep_from_config(cli.parse_config(str(ROOT / "configs" / f"{preset}.cfg")))
    spec.workers = 1
    start = time.perf_counter()
    cli.run_sweep(spec)
    total = time.perf_counter() - start
    if not traced:
        return {"compute_s": total}
    layers = tracer.summary()
    return {"traced_compute_s": total, "unum_s": layers["trotter.propagate_numeric"]["total_s"],
            "magnus_s": layers["magnus.propagators_upto"]["total_s"], **steps}


def presets() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for preset in PRESETS:
            walls = []
            for _ in range(3):
                start = time.perf_counter()
                _python("-m", "msgate.cli", "sweep", f"configs/{preset}.cfg", "--workers", "1",
                        "--out", os.path.join(tmp, f"{preset}.csv"))
                walls.append(time.perf_counter() - start)
            plain = [json.loads(_python(__file__, "--compute", preset).stdout) for _ in range(3)]
            traced = [json.loads(_python(__file__, "--compute", preset, "--traced").stdout)
                      for _ in range(3)]
            out[preset] = {"sweep_wall_s": statistics.median(walls), "sweep_wall_samples_s": walls,
                           **min(plain, key=lambda r: r["compute_s"]),
                           **min(traced, key=lambda r: r["traced_compute_s"])}
    return out


def imports() -> dict:
    code = ("import sys, time\nt = time.perf_counter()\nimport numpy\nu = time.perf_counter()\n"
            "import msgate.cli\nprint(u - t, time.perf_counter() - u, sys.dont_write_bytecode)")
    samples = [_python("-c", code).stdout.split() for _ in range(7)]
    return {"numpy_s": statistics.median(float(s[0]) for s in samples),
            "msgate_cli_after_numpy_s": statistics.median(float(s[1]) for s in samples),
            "writes_bytecode": samples[0][2] == "False",
            "msgate_pyc_present": any((SRC / "msgate" / "__pycache__").glob("cli.*.pyc"))}


def tier1() -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors", "--durations=10"],
                          cwd=ROOT, env=ENV, text=True, stdout=subprocess.PIPE)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": next((line for line in reversed(lines) if " in " in line and "passed" in line), None),
            "durations": [line for line in lines if re.match(r"\d+\.\d+s (call|setup|teardown) ", line)]}


def workers_byte_check() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for preset in PRESETS:
            paths = [os.path.join(tmp, f"{preset}-w{n}.csv") for n in (1, 2)]
            for n, path in zip((1, 2), paths):
                _python("-m", "msgate.cli", "sweep", f"configs/{preset}.cfg", "--workers", str(n), "--out", path)
            one, two = (pathlib.Path(p).read_bytes() for p in paths)
            out[preset] = {"identical": one == two, "bytes": len(one)}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, help="the number in BENCH_<pr>.json")
    ap.add_argument("--compute", metavar="PRESET", help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.compute:
        print(json.dumps(compute(args.compute, args.traced)))
        return 0
    if args.pr is None:
        ap.error("--pr is required")
    import worker
    facts = run.source_facts()
    status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, check=True).stdout.splitlines()
    record = {
        "pr": args.pr,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": " ".join(["python3", "tools/record_bench.py", *sys.argv[1:]]),
        "src_lines": facts["src_lines"],
        "workloads": workloads(),
        "presets": presets(),
        "imports": imports(),
        "tier1": tier1(),
        "workers_byte_check": workers_byte_check(),
        "provenance": {"git_commit": facts["git_commit"], "git_status": status, **facts,
                       **worker.provenance()},
        "not_measured": NOT_MEASURED,
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
