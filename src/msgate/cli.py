"""Command-line front end: point evaluation, budget, validity checks, sweeps.

Subcommands:
    sweep <config>      parameter sweep, one CSV row per grid point
    budget <config>     analytic error budget (text or CSV)
    check <config>      resonance-exclusion validity report
    propagate <config>  dump propagator matrices as CSV of complex entries

Config files are plain ``key = value`` lines (``#`` comments); a key outside
CONFIG_KEYS is a config error.  The gate fields use the exact names eta, K,
L, omega_T, nbar, n_dim, m_max, k_max, trap_freq.  Exit codes: 0 success,
2 validation failure, 1 config error.

Unit conventions at this boundary: trap_freq is the physical nu/(2*pi) in
Hz; omega_phys is the drive amplitude Omega in rad/s, converted through the
gate time T = K / trap_freq.  Everything downstream is dimensionless.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import budget, fidelity, magnus, trotter
from .params import RULES, GateParams, validate, validate_with_pulse
from .pulses import PulseShape, rectangular, sin_squared, validate_shape

PROPAGATOR_NAMES = ("U2", "U3", "U4", "U5", "Unum")
CSV_COLUMNS = ("axis", "omega_T", "infid_U2", "infid_U3", "infid_U4",
               "infid_U5", "infid_Unum", "omega_LD", "omega_2", "omega_4",
               "tail_mass", "status")
# every key a subcommand reads: gate fields, pulse, sweep, then propagate
CONFIG_KEYS = frozenset((
    "eta", "K", "L", "omega_T", "nbar", "n_dim", "m_max", "k_max", "trap_freq",
    "pulse", "pulse_coeffs",
    "axis", "grid", "omega_span", "propagators", "metric", "omega_mode", "omega_phys", "safety",
    "propagator"))


class ConfigError(Exception):
    pass


@dataclass
class SweepSpec:
    axis: str                      # omega | K | eta | nbar
    grid: list[float]
    fixed: GateParams
    pulse: PulseShape
    propagators: tuple[str, ...] = ("U2", "U3", "U4", "Unum")
    metric: str = "average"        # average | bell | both
    omega_mode: str = "omega2"     # omega2 | omega4 | fixed_T | fixed_phys
    omega_phys: float | None = None
    delta_KL: int = 3
    safety: float = 10.0
    workers: int = 1


# ---------------------------------------------------------------------------
# Config parsing.
# ---------------------------------------------------------------------------

def parse_config(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, val = line.split("=", 1)
                raw[key.strip()] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    unknown = sorted(raw.keys() - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}")
    return raw


def params_from_config(cfg: dict[str, str]) -> GateParams:
    def geti(key, default=None):
        if key in cfg:
            return int(cfg[key])
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def getf(key, default=None):
        if key in cfg:
            return float(cfg[key])
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default

    try:
        return GateParams(
            eta=getf("eta"),
            K=geti("K"),
            L=geti("L"),
            omega_T=getf("omega_T", 0.0),
            nbar=getf("nbar", 0.0),
            n_dim=geti("n_dim", 8),
            m_max=geti("m_max", 3),
            k_max=geti("k_max", 4),
            trap_freq=float(cfg["trap_freq"]) if "trap_freq" in cfg else None,
        )
    except ValueError as exc:
        raise ConfigError(f"bad parameter value: {exc}") from exc


def pulse_from_config(cfg: dict[str, str]) -> PulseShape:
    name = cfg.get("pulse", "rect")
    if name == "rect":
        return rectangular()
    if name == "sin2":
        return sin_squared()
    if name == "custom":
        if "pulse_coeffs" not in cfg:
            raise ConfigError("pulse = custom requires pulse_coeffs = M:re:im;...")
        triples = []
        for item in cfg["pulse_coeffs"].split(";"):
            parts = item.split(":")
            if len(parts) != 3:
                raise ConfigError(f"bad pulse_coeffs entry {item!r}")
            try:
                triples.append((int(parts[0]), float(parts[1]), float(parts[2])))
            except ValueError:
                raise ConfigError(f"bad pulse_coeffs entry {item!r}") from None
        shape = PulseShape.from_triples(triples)
        if not shape.support:
            raise ConfigError("pulse_coeffs has no nonzero coefficient")
        rep = validate_shape(shape)
        if not rep.ok:
            raise ConfigError(f"pulse_coeffs must satisfy c_-M = conj(c_M): {rep.summary()}")
        return shape
    raise ConfigError(f"unknown pulse {name!r}")


def _parse_grid(text: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid range must be start:stop:num, got {text!r}")
        try:
            return list(np.linspace(float(parts[0]), float(parts[1]), int(parts[2])))
        except ValueError:
            raise ConfigError(f"grid range must be start:stop:num, got {text!r}") from None
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"grid values must be numbers, got {text!r}") from None


def _number(cfg: dict[str, str], key: str, default: float | None = None) -> float | None:
    """float(cfg[key]), or ``default`` when the key is absent."""
    if key not in cfg:
        return default
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from None


def _safety(cfg: dict[str, str]) -> float:
    """The step-density factor of TrotterConfig; zero or less would take no steps."""
    safety = _number(cfg, "safety", 10.0)
    if not 0 < safety < math.inf:
        raise ConfigError(f"safety must be a positive finite number, got {cfg['safety']!r}")
    return safety


def sweep_from_config(cfg: dict[str, str]) -> SweepSpec:
    params = params_from_config(cfg)
    pulse = pulse_from_config(cfg)
    axis = cfg.get("axis")
    if axis not in ("omega", "K", "eta", "nbar"):
        raise ConfigError(f"axis must be omega|K|eta|nbar, got {axis!r}")

    grid_text = cfg.get("grid", "")
    if grid_text == "auto" or grid_text.startswith("auto:"):
        if axis != "omega":
            raise ConfigError("grid = auto:<n> is only defined for the omega axis")
        try:
            npts = int(grid_text.split(":", 1)[1]) if ":" in grid_text else 61
        except ValueError:
            npts = 0
        if npts < 1:
            raise ConfigError(f"grid = auto:<n> needs a positive integer n, got {grid_text!r}")
        amps = budget.amplitude_set(params)
        lo_f, hi_f = 0.7, 1.3
        if "omega_span" in cfg:
            try:
                lo_f, hi_f = (float(v) for v in cfg["omega_span"].split(","))
            except ValueError:
                raise ConfigError(f"omega_span must be two numbers lo,hi, got "
                                  f"{cfg['omega_span']!r}") from None
        lo = lo_f * (amps.omega_4 if amps.omega_4_valid else amps.omega_2)
        hi = hi_f * amps.omega_2
        grid = list(np.linspace(lo, hi, npts))
    elif grid_text:
        grid = _parse_grid(grid_text)
    else:
        raise ConfigError("missing grid")
    if len(grid) == 0 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("grid must be nonempty and strictly increasing")

    props = tuple(p.strip() for p in cfg.get("propagators", "U2,U3,U4,Unum").split(","))
    for p in props:
        if p not in PROPAGATOR_NAMES:
            raise ConfigError(f"unknown propagator {p!r}")
    metric = cfg.get("metric", "average")
    if metric not in ("average", "bell", "both"):
        raise ConfigError(f"unknown metric {metric!r}")
    omega_mode = cfg.get("omega_mode", "omega2" if axis != "omega" else "fixed_T")
    if omega_mode not in ("omega2", "omega4", "fixed_T", "fixed_phys"):
        raise ConfigError(f"unknown omega_mode {omega_mode!r}")
    omega_phys = _number(cfg, "omega_phys")
    if omega_mode == "fixed_phys" and omega_phys is None:
        raise ConfigError("omega_mode = fixed_phys requires omega_phys (rad/s)")

    if axis == "K":
        if not all(math.isfinite(v) and abs(v - round(v)) <= 1e-9 for v in grid):
            raise ConfigError("K grid values must be finite integers")
        grid = [float(round(v)) for v in grid]

    return SweepSpec(
        axis=axis, grid=grid, fixed=params, pulse=pulse, propagators=props,
        metric=metric, omega_mode=omega_mode, omega_phys=omega_phys,
        delta_KL=params.K - params.L, safety=_safety(cfg),
    )


# ---------------------------------------------------------------------------
# Sweep evaluation.
# ---------------------------------------------------------------------------

def _point_params(spec: SweepSpec, value: float) -> GateParams:
    p = spec.fixed
    if spec.axis == "K":
        K = int(round(value))
        p = p.replace(K=K, L=K - spec.delta_KL)
    elif spec.axis == "eta":
        p = p.replace(eta=float(value))
    elif spec.axis == "nbar":
        p = p.replace(nbar=float(value))
    # drive strength
    if spec.axis == "omega":
        p = p.replace(omega_T=float(value))
    elif spec.omega_mode == "omega2":
        p = p.replace(omega_T=budget.omega_2(p))
    elif spec.omega_mode == "omega4":
        p = p.replace(omega_T=budget.omega_4(p))
    elif spec.omega_mode == "fixed_phys":
        # converted once at the base parameters: a fixed physical amplitude
        # means a fixed dimensionless omega_T anchored at the base gate time
        p = p.replace(omega_T=spec.fixed.omega_T_from_physical(spec.omega_phys))
    return p


def _fill_infidelity(row: dict, name: str, U: np.ndarray,
                     weights: fidelity.ThermalWeights, metric: str) -> None:
    if metric in ("average", "both"):
        row[f"infid_{name}"] = 1.0 - fidelity.average_fidelity(U, weights)
    if metric == "bell":
        row[f"infid_{name}"] = 1.0 - fidelity.bell_fidelity(U, weights)
    elif metric == "both":
        row[f"bell_{name}"] = 1.0 - fidelity.bell_fidelity(U, weights)


def _propagators(spec: SweepSpec, p: GateParams) -> dict[str, np.ndarray]:
    """The requested U2..U5 / Unum matrices of one point."""
    mats = {}
    orders = [int(name[1]) for name in spec.propagators if name != "Unum"]
    if orders:
        props = magnus.propagators_upto(p, spec.pulse, max_order=max(orders))
        mats.update((f"U{n}", props[n]) for n in orders)
    if "Unum" in spec.propagators:
        mats["Unum"] = trotter.propagate_numeric(p, spec.pulse,
                                                 trotter.TrotterConfig(safety=spec.safety))
    return mats


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate every grid point; rows come back in grid order regardless of
    worker scheduling, and invalid points carry a skip marker.

    The propagators do not depend on nbar, so they are computed once per
    distinct valid p.replace(nbar=0) and reweighted per point."""
    points = [_point_params(spec, v) for v in spec.grid]
    reports = [validate_with_pulse(p, spec.pulse) for p in points]
    keys = [p.replace(nbar=0.0) if rep.ok else None for p, rep in zip(points, reports)]
    todo = list(dict.fromkeys(k for k in keys if k is not None))
    if spec.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=spec.workers) as pool:
            mats = dict(zip(todo, pool.map(_propagators, [spec] * len(todo), todo)))
    else:
        mats = {k: _propagators(spec, k) for k in todo}
    rows = []
    for value, p, rep, key in zip(spec.grid, points, reports, keys):
        if key is None:
            rows.append({"axis": value, "status": "skip:" + ";".join(rep.rules())})
            continue
        weights = fidelity.ThermalWeights(p.nbar, p.n_dim)
        row: dict = {"axis": value, "omega_T": p.omega_T, "status": "ok",
                     "tail_mass": weights.tail_mass}
        if spec.axis != "omega":
            amps = budget.amplitude_set(p)
            row["omega_LD"] = amps.omega_ld
            row["omega_2"] = amps.omega_2
            row["omega_4"] = amps.omega_4 if amps.omega_4_valid else float("nan")
        for name, U in mats[key].items():
            _fill_infidelity(row, name, U, weights, spec.metric)
        rows.append(row)
    return rows


def rows_to_csv(rows: list[dict], metric: str = "average") -> str:
    """Deterministic CSV (12 significant digits, fixed column order)."""
    columns = list(CSV_COLUMNS)
    if metric == "both":
        extra = [f"bell_{n}" for n in ("U2", "U3", "U4", "U5", "Unum")]
        columns = columns[:-1] + extra + [columns[-1]]
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            val = row.get(col)
            if val is None:
                cells.append("")
            elif isinstance(val, str):
                cells.append(val)
            else:
                cells.append(f"{val:.12g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _write(text: str, out: str | None) -> None:
    """Write a subcommand's output to the --out path, or to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _apply_overrides(params: GateParams, args) -> GateParams:
    if args.ndim is not None:
        params = params.replace(n_dim=args.ndim)
    if args.mmax is not None:
        params = params.replace(m_max=args.mmax)
    if args.order is not None:
        params = params.replace(k_max=args.order)
    return params


def _cmd_sweep(args) -> int:
    spec = sweep_from_config(parse_config(args.config))
    spec.fixed = _apply_overrides(spec.fixed, args)
    spec.workers = args.workers
    _write(rows_to_csv(run_sweep(spec), spec.metric), args.out)
    return 0


def _cmd_budget(args) -> int:
    cfg = parse_config(args.config)
    params = _apply_overrides(params_from_config(cfg), args)
    rep = validate(params)
    if not rep.ok:
        print(f"invalid parameters: {rep.summary()}", file=sys.stderr)
        return 2
    amps = budget.amplitude_set(params)
    rows = budget.table_rows(params, amps)
    combined = budget.combined_dy(params, params.omega_T) if params.omega_T else None
    if args.csv:
        text = budget.rows_to_csv(rows)
    else:
        text = budget.render_table(rows, amps, combined) + "\n"
    _write(text, args.out)
    return 0


def _cmd_check(args) -> int:
    cfg = parse_config(args.config)
    params = _apply_overrides(params_from_config(cfg), args)
    pulse = pulse_from_config(cfg)
    rep = validate_with_pulse(params, pulse)
    failed = set(rep.rules())
    lines = []
    for rule in RULES:
        status = "FAIL" if rule in failed else "pass"
        details = "; ".join(v.detail for v in rep if v.rule == rule)
        lines.append(f"{status}  {rule}" + (f"  ({details})" if details else ""))
    _write("\n".join(lines) + "\n", args.out)
    return 0 if rep.ok else 2


def _cmd_propagate(args) -> int:
    cfg = parse_config(args.config)
    params = _apply_overrides(params_from_config(cfg), args)
    pulse = pulse_from_config(cfg)
    rep = validate_with_pulse(params, pulse)
    if not rep.ok:
        print(f"invalid parameters: {rep.summary()}", file=sys.stderr)
        return 2
    if "omega_phys" in cfg and params.omega_T == 0:
        params = params.replace(omega_T=params.omega_T_from_physical(_number(cfg, "omega_phys")))
    which = cfg.get("propagator", "Unum")
    if which == "Unum":
        U = trotter.propagate_numeric(params, pulse, trotter.TrotterConfig(safety=_safety(cfg)))
    elif which in ("U2", "U3", "U4", "U5"):
        n = int(which[1])
        U = magnus.propagators_upto(params, pulse, max_order=n)[n]
    else:
        raise ConfigError(f"unknown propagator {which!r}")
    lines = [f"# propagator {which}, dim {U.shape[0]}"]
    for r in range(U.shape[0]):
        # + 0.0 normalizes signed zeros for deterministic output
        lines.append(",".join(f"{U[r, c].real + 0.0:.12g}{U[r, c].imag + 0.0:+.12g}j"
                              for c in range(U.shape[1])))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msgate",
        description="Strong-drive entangling-gate simulation and calibration",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("sweep", _cmd_sweep), ("budget", _cmd_budget),
                     ("check", _cmd_check), ("propagate", _cmd_propagate)):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--out", default=None)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--ndim", type=int, default=None)
        p.add_argument("--mmax", type=int, default=None)
        p.add_argument("--order", type=int, default=None)
        if name == "budget":
            p.add_argument("--csv", action="store_true")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
