"""Smoke self-test of the benchmark (about half a minute).

    python3 perfbench/selftest.py

For every workload it evaluates the cheapest candidate point through the
benchmark's own loop and checks that the point passes against its reference
row and is counted as failed against a perturbed copy of that row.  It also
checks the seeded draw, and that run.py fails without printing a result in a
directory that holds only the benchmark.
"""

from __future__ import annotations

import copy
import os
import shutil
import subprocess
import sys

import bench

OUT_DIR = os.path.join(bench.HERE, "out")


def perturbations(ref_point: dict) -> list[tuple[str, dict]]:
    """Copies of a reference point that the point's output must fail."""
    out = []
    for col, val in ref_point["row"].items():
        if col in ("axis", "status") or col.endswith("_route_diff") or val != val:
            continue
        bad = copy.deepcopy(ref_point)
        if col == "infid_Unum":
            # move the refined reference by three tolerances
            bad["unum_ref"] = ref_point["unum_ref"] + 3 * ref_point["unum_tol"]
        else:
            bad["row"][col] = val * (1 + 1e-6)
        out.append((col, bad))
    bad = copy.deepcopy(ref_point)
    bad["status"] = "skip:perturbed"
    bad["row"]["status"] = "skip:perturbed"
    out.append(("status", bad))
    return out


def check_workload(workload: bench.Workload) -> None:
    ctx = bench.setup(workload)
    ref = bench.load_reference(workload)
    assert not bench.check_candidates(ctx, ref), bench.check_candidates(ctx, ref)
    idx = min(range(len(ref["points"])), key=lambda i: ref["points"][i]["cost_s"])
    points = bench.run_rounds(ctx, ref, [[idx]])
    assert points[0]["misses"] == [], points[0]["misses"]
    out = bench.evaluate(ctx, idx)
    bad_rows = perturbations(ref["points"][idx])
    for col, bad in bad_rows:
        assert bench.judge(out, bad), f"{workload.name}: perturbed {col} passed"
    # an output row perturbed again, counted through the measuring loop
    col, bad = next((c, b) for c, b in bad_rows if c.startswith("infid_") or c.endswith("_norm"))
    bad_ref = dict(ref, points=[bad if i == idx else p for i, p in enumerate(ref["points"])])
    points = bench.run_rounds(ctx, bad_ref, [[idx]])
    assert points[0]["misses"], f"{workload.name}: perturbed {col} not counted as failed"
    print(f"{workload.name}: candidate {idx} passes; {len(bad_rows)} perturbed rows "
          f"each fail; perturbed {col} counted as failed")


def check_draw() -> None:
    for workload in bench.WORKLOADS.values():
        n = len(bench.load_reference(workload)["points"])
        rounds = bench.draw_rounds(n, workload.strata, seed=7)
        assert rounds == bench.draw_rounds(n, workload.strata, seed=7)
        assert rounds != bench.draw_rounds(n, workload.strata, seed=8)
        flat = [i for r in rounds for i in r]
        assert len(flat) == len(set(flat)), "a candidate repeats within a run"
        assert all(len(r) == workload.strata and r == sorted(r) for r in rounds)
    print("seeded draw: deterministic, stratified, no repeats")


def check_bare_directory() -> None:
    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eta_sin2_analytic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "run.py succeeded without the program"
    assert '"correct"' not in proc.stdout, "run.py printed a result without the program"
    print(f"without src/: run.py exits {proc.returncode} and prints no result")


def main() -> None:
    check_draw()
    for workload in bench.WORKLOADS.values():
        check_workload(workload)
    check_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
