"""Workloads, seeded point selection and the correctness gate.

Imported by ``worker.py`` (the measured process), ``make_reference.py`` and
``selftest.py``.  Importing this module imports msgate from the checkout's
``src/`` directory and nothing else, so a checkout without the program fails
here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import random
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")

sys.path.insert(0, SRC)
import msgate  # noqa: E402

if not os.path.abspath(msgate.__file__).startswith(os.path.join(SRC, "")):
    raise ImportError(f"msgate imported from {msgate.__file__}, not from {SRC}")

import numpy as np  # noqa: E402

from msgate import budget, cli, magnus  # noqa: E402


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "sweep": cli.run_sweep per point; "crosscheck": two Dyson routes
    strata: int        # a round takes one unused candidate from each stratum
    round_s: float     # wall time of one round at the commit that added the benchmark

    @property
    def config_path(self) -> str:
        return os.path.join(HERE, "configs", f"{self.name}.cfg")

    def rounds_for(self, seconds: float) -> int:
        """Rounds in a run of ``seconds``.  Fixed by ``round_s``, not by the
        speed of the code under test, so every commit does the same work and
        fills its caches the same way."""
        return max(1, round(seconds / self.round_s))


# Each workload loads a different layer (see README.md):
#   omega_rect         fig2 omega sweep: Unum dominates, the Dyson cache is hit on every point
#   eta_sin2_analytic  fig4c eta sweep without Unum: order-5 sin2 Magnus assembly per point
#   crosscheck         tuple vs transfer Dyson routes: the only load on the exact resint engine
WORKLOADS = {w.name: w for w in (
    Workload("omega_rect", "sweep", 4, 11.0),
    Workload("eta_sin2_analytic", "sweep", 4, 6.5),
    Workload("crosscheck", "crosscheck", 15, 37.5),
)}

# Candidate K values of the crosscheck workload (L = K - 3, rect pulse); all
# pass validate_with_pulse.
CROSSCHECK_K = tuple(range(16, 52))
CROSSCHECK_ORDERS = (3, 4)

# Tolerances.  U2..U5, amplitudes and tail mass are deterministic functions of
# the inputs, so only rounding may move them.  The Unum tolerance is stored
# per point in reference/<workload>.json (see make_reference.py).
REL_TOL = 1e-9
INFID_ABS_TOL = 1e-12
ROUTE_TOL = 1e-12  # max|P_tuples - P_transfer| / max|P_transfer|
MAGNUS_COLUMNS = ("infid_U2", "infid_U3", "infid_U4", "infid_U5")


# ---------------------------------------------------------------------------
# Set-up: parse the config and build what every point needs.
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Context:
    workload: Workload
    candidates: list[float]
    spec: cli.SweepSpec | None = None
    params: msgate.GateParams | None = None
    pulse: msgate.PulseShape | None = None


def setup(workload: Workload) -> Context:
    cfg = cli.parse_config(workload.config_path)
    if workload.kind == "sweep":
        spec = cli.sweep_from_config(cfg)
        return Context(workload, [float(v) for v in spec.grid], spec=spec)
    return Context(workload, [float(k) for k in CROSSCHECK_K],
                   params=cli.params_from_config(cfg), pulse=cli.pulse_from_config(cfg))


def draw_rounds(n_candidates: int, strata: int, seed: int) -> list[list[int]]:
    """Candidate indices grouped into rounds, from the seed alone.

    The candidates are in axis order.  They are cut into ``strata``
    contiguous bands; round r takes the r-th element of each band's seeded
    shuffle, so every round costs about the same and no candidate repeats
    within a run.  Each round is sorted.
    """
    bands = [list(b) for b in np.array_split(np.arange(n_candidates), strata)]
    rng = random.Random(seed)
    for band in bands:
        rng.shuffle(band)
    depth = min(len(b) for b in bands)
    return [sorted(int(b[r]) for b in bands) for r in range(depth)]


# ---------------------------------------------------------------------------
# One point.
# ---------------------------------------------------------------------------

def evaluate(ctx: Context, index: int) -> dict:
    """Output of one candidate point, as plain floats and strings."""
    value = ctx.candidates[index]
    if ctx.workload.kind == "sweep":
        row = cli.run_sweep(dataclasses.replace(ctx.spec, grid=[value]))[0]
        return {k: (v if isinstance(v, str) else float(v)) for k, v in row.items()}
    K = int(value)
    p = ctx.params.replace(K=K, L=K - 3)
    p = p.replace(omega_T=budget.omega_2(p))
    out: dict = {"axis": value, "omega_T": p.omega_T}
    for k in CROSSCHECK_ORDERS:
        via_tuples = magnus.dyson_term(k, p, ctx.pulse, method="tuples")
        via_transfer = magnus.dyson_term(k, p, ctx.pulse, method="transfer")
        scale = float(np.abs(via_transfer).max())
        out[f"P{k}_norm"] = float(np.linalg.norm(via_transfer))
        out[f"P{k}_route_diff"] = float(np.abs(via_tuples - via_transfer).max()) / scale
    return out


def _close(x: float, ref: float, rel: float, abs_: float = 0.0) -> bool:
    if math.isnan(ref):
        return math.isnan(x)
    return abs(x - ref) <= rel * abs(ref) + abs_


def judge(out: dict, ref: dict) -> list[str]:
    """Reasons the output misses its reference; empty when it passes."""
    misses = []
    if out.get("status", "ok") != ref.get("status", "ok"):
        return [f"status {out.get('status')!r} != {ref.get('status')!r}"]
    for col, want in ref["row"].items():
        if col in ("axis", "status"):
            continue
        got = out.get(col)
        if got is None:
            misses.append(f"{col} missing")
        elif col in MAGNUS_COLUMNS:
            if not _close(got, want, REL_TOL, INFID_ABS_TOL):
                misses.append(f"{col} {got!r} != {want!r}")
        elif col == "infid_Unum":
            if not abs(got - ref["unum_ref"]) <= ref["unum_tol"]:
                misses.append(f"infid_Unum {got!r} off the refined reference "
                              f"{ref['unum_ref']!r} by more than {ref['unum_tol']:.3g}")
        elif col.endswith("_route_diff"):
            if not got <= ROUTE_TOL:
                misses.append(f"{col} {got:.3g} > {ROUTE_TOL:g}")
        elif not _close(got, want, REL_TOL):
            misses.append(f"{col} {got!r} != {want!r}")
    return misses


def reference_path(workload: Workload) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload.name}.json")


def load_reference(workload: Workload) -> dict:
    with open(reference_path(workload)) as fh:
        return json.load(fh)


def check_candidates(ctx: Context, ref: dict) -> list[str]:
    """The set-up must reproduce the stored candidate list (for omega_rect it
    is the auto grid, which set-up computes from budget.amplitude_set)."""
    want = [r["row"]["axis"] for r in ref["points"]]
    if len(want) != len(ctx.candidates):
        return [f"{len(ctx.candidates)} candidates, reference has {len(want)}"]
    bad = [i for i, (a, b) in enumerate(zip(ctx.candidates, want)) if not _close(a, b, 1e-12)]
    return [f"candidate {i}: {ctx.candidates[i]!r} != {want[i]!r}" for i in bad]


# ---------------------------------------------------------------------------
# Machine speed.
# ---------------------------------------------------------------------------

# A fixed kernel that uses no msgate code: an interpreter-bound integer loop
# and a BLAS-bound chain of 32 x 32 complex products (the size of msgate's
# matrices).  It allocates no objects the garbage collector tracks, so its
# time does not depend on how much the program holds in memory.
PROBE_LOOP = 150_000
PROBE_PRODUCTS = 3_000
_PROBE_MATRIX = np.linalg.qr(np.random.default_rng(0).standard_normal((32, 32))
                             + 1j * np.random.default_rng(1).standard_normal((32, 32)))[0]
# A point's wall time is scaled by PROBE_REF_S / (probe time around it): its
# time on a machine where the probe takes PROBE_REF_S, about the typical
# probe time on the 2-core VM the benchmark was written on.
PROBE_REF_S = 0.05


def speed_probe() -> float:
    """Wall time of the fixed kernel: how fast the machine runs right now."""
    start = time.perf_counter()
    x = 1
    for _ in range(PROBE_LOOP):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    u = np.eye(32, dtype=complex)
    for _ in range(PROBE_PRODUCTS):
        u = _PROBE_MATRIX @ u  # unitary, so u neither grows nor decays
    return time.perf_counter() - start


def run_rounds(ctx: Context, ref: dict, rounds: list[list[int]],
               tracer=None) -> list[dict]:
    """Closed loop: evaluate and judge one point at a time, round after round.

    The speed probe runs before every point and after the last one, outside
    the point's timing; a point's ``probe_s`` is the mean of the two probes
    around it."""
    points = []
    probe = speed_probe()
    for idx in (i for rnd in rounds for i in rnd):
        start = time.perf_counter()
        try:
            with tracer.point_span(idx) if tracer else contextlib.nullcontext():
                out = evaluate(ctx, idx)
            misses = judge(out, ref["points"][idx])
        except Exception:  # a raising point is a failed point; keep measuring
            misses = ["raised: " + traceback.format_exc(limit=3)]
        seconds = time.perf_counter() - start
        probe, before = speed_probe(), probe
        points.append({"index": idx, "axis": ctx.candidates[idx], "seconds": seconds,
                       "probe_s": (before + probe) / 2, "misses": misses})
    return points
