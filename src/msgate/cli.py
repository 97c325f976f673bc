"""Command-line front end: point evaluation, budget, validity checks, sweeps.

Subcommands:
    sweep <config>      parameter sweep, one CSV row per grid point
    budget <config>     analytic error budget (text or CSV)
    check <config>      resonance-exclusion validity report
    propagate <config>  dump propagator matrices as CSV of complex entries

Config files are plain ``key = value`` lines (``#`` comments); a key outside
CONFIG_KEYS, or a value its parser there rejects, is a config error.  The
gate fields use the exact names eta, K, L, omega_T, nbar, n_dim, m_max,
k_max.  Exit codes: 0 success, 1 config error, 2 validation failure or a
computation that failed (a ValueError, ArithmeticError or MemoryError, such
as a drive strong enough to overflow or a truncation too large to allocate),
reported as one ``error:`` line.

This module owns the physical units and the validated order.  trap_freq is
nu/(2*pi) in Hz and omega_phys the drive amplitude Omega in rad/s, converted
once to omega_T through the gate time T = K / trap_freq; each subcommand
validates at the highest U_n it computes (check and budget: that either
propagator key names).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import errno
import functools
import math
import os
import sys
from decimal import Context, Decimal, Inexact, localcontext

import numpy as np

from . import budget, fidelity, hilbert, magnus, trotter
from .params import RULES, GateParams, Violation, validate
from .pulses import PulseShape, rectangular, sin_squared

PROPAGATOR_NAMES = ("U2", "U3", "U4", "U5", "Unum")
CSV_COLUMNS = ("axis", "omega_T", *(f"infid_{n}" for n in PROPAGATOR_NAMES),
               "omega_LD", "omega_2", "omega_4", "tail_mass", "status")


class ConfigError(Exception):
    pass


@dataclasses.dataclass
class SweepSpec:
    axis: str                      # omega | K | eta | nbar
    grid: list[float]
    fixed: GateParams
    pulse: PulseShape
    propagators: tuple[str, ...] = ("U2", "U3", "U4", "Unum")
    metric: str = "average"        # average | bell | both
    omega_mode: str = "omega2"     # omega2 | omega4 | fixed_T | fixed_phys (unused on omega axis)
    safety: float = trotter.TrotterConfig.safety
    workers: int = 1


# ---------------------------------------------------------------------------
# Config parsing: one parser per key, which raises ValueError on bad input.
# ---------------------------------------------------------------------------

def _choice(*allowed: str):
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"not one of {'|'.join(allowed)}")
        return text
    return parse


# K and L enter every beat note and step count as floats, which hold each integer up to 2**53
_EXACT_INT = 2 ** 53


def _exact_int(text: str) -> int:
    value = int(text)
    if abs(value) > _EXACT_INT:
        raise ValueError("exceeds 2**53 in magnitude, beyond which a float does not hold every integer")
    return value


def _k_grid(text: str) -> list[int]:
    """A K-axis grid, whose form ``_grid`` has checked, as the integers written: start:stop:num
    is spaced in exact decimal arithmetic, and each value must pass ``_exact_int``'s bound."""
    with localcontext(Context(traps=[])) as ctx:
        values = [Decimal(v) for v in text.split(":" if ":" in text else ",")]
        if ":" in text:
            a, b, n = values
            values = [a + (b - a) * i / (n - 1) for i in range(int(n))] if n > 1 else [a]
        if not ctx.flags[Inexact] and all(v == v.to_integral_value() and -_EXACT_INT <= v <= _EXACT_INT
                                          for v in values):
            return [int(v) for v in values]
    raise ConfigError("K grid values must be finite integers of at most 2**53 in magnitude")


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError("not a positive finite number")
    return value


def _grid(text: str) -> list[float] | int:
    """start:stop:num with finite ends or a comma list, nonempty and strictly
    increasing; for grid = auto / auto:<n>, the point count n, which
    sweep_from_config spans from the calibrated amplitudes."""
    if text == "auto" or text.startswith("auto:"):
        npts = int(text[5:]) if text != "auto" else 61
        if npts < 1:
            raise ValueError("auto:<n> needs a positive integer n")
        return npts
    if ":" in text:
        start, stop, num = text.split(":")
        start, stop = float(start), float(stop)
        if not all(math.isfinite(v) for v in (start, stop)):
            raise ValueError("grid start and stop must be finite")
        grid = list(np.linspace(start, stop, int(num)))
    else:
        grid = [float(v) for v in text.split(",")]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be nonempty and strictly increasing")
    return grid


def _span(text: str) -> tuple[float, float]:
    lo, hi = (float(v) for v in text.split(","))
    if not all(math.isfinite(v) for v in (lo, hi)):
        raise ValueError("span factors must be finite")
    return lo, hi


def _pulse_coeffs(text: str) -> PulseShape:
    """M:re:im;... with integer M given once; ``PulseShape`` checks that the drive is real."""
    triples = [(int(M), float(re), float(im)) for M, re, im in (item.split(":") for item in text.split(";"))]
    for i, (M, _, _) in enumerate(triples):
        if any(M == N for N, _, _ in triples[:i]):
            raise ValueError(f"harmonic M={M} given twice")
    return PulseShape.from_dict("custom", {M: complex(re, im) for M, re, im in triples})


# every key a subcommand reads: gate fields, pulse, sweep, then propagate
CONFIG_KEYS = {
    "eta": float, "K": _exact_int, "L": _exact_int, "omega_T": float, "nbar": float,
    "n_dim": int, "m_max": int, "k_max": int, "trap_freq": _positive,
    "pulse": _choice("rect", "sin2", "custom"), "pulse_coeffs": _pulse_coeffs,
    "axis": _choice("omega", "K", "eta", "nbar"), "grid": _grid, "omega_span": _span,
    "propagators": lambda text: tuple(CONFIG_KEYS["propagator"](name.strip())
                                      for name in text.split(",")),
    "metric": _choice("average", "bell", "both"),
    "omega_mode": _choice("omega2", "omega4", "fixed_T", "fixed_phys"),
    "omega_phys": float, "safety": _positive,
    "propagator": _choice(*PROPAGATOR_NAMES),
}


def _build(cls, cfg: dict, **given):
    """cls from ``given`` and the keys of cfg that name its other fields; the
    absent ones take their dataclass defaults."""
    fields = [f for f in dataclasses.fields(cls) if f.name not in given]
    missing = [f.name for f in fields if f.name not in cfg and f.default is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"missing required key(s) {', '.join(missing)}")
    return cls(**given, **{f.name: cfg[f.name] for f in fields if f.name in cfg})


def parse_config(path: str) -> dict:
    """The ``key = value`` pairs of a config file, each value parsed once by its
    CONFIG_KEYS parser (a ValueError there is a config error naming key and value), and
    an axis = K grid read once more, from its raw text, by ``_k_grid``."""
    raw: dict[str, str] = {}
    first_on: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, val = (part.strip() for part in line.partition("="))
                if not (key and eq):
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                if key in raw:
                    raise ConfigError(f"{path}:{lineno}: {key} given twice (first on line {first_on[key]})")
                raw[key], first_on[key] = val, lineno
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    unknown = sorted(raw.keys() - CONFIG_KEYS.keys())
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}")
    cfg = {}
    for key, text in raw.items():
        try:
            cfg[key] = CONFIG_KEYS[key](text)
        except ValueError as exc:
            raise ConfigError(f"{key} = {text!r}: {exc}") from None
    # cross-key rules, here so that every subcommand rejects the same configs
    if "omega_phys" in cfg and "trap_freq" not in cfg:
        raise ConfigError("omega_phys (rad/s) needs trap_freq (Hz) for the gate time")
    if "omega_phys" in cfg and "omega_T" in cfg:
        raise ConfigError("give the drive as omega_T or as omega_phys, not both")
    if cfg.get("omega_mode") == "fixed_phys" and "omega_phys" not in cfg:
        raise ConfigError("omega_mode = fixed_phys requires omega_phys (rad/s)")
    if cfg.get("omega_mode") == "fixed_T" and not cfg.keys() & {"omega_T", "omega_phys"}:
        raise ConfigError("omega_mode = fixed_T requires omega_T (or omega_phys)")
    if cfg.get("pulse") == "custom" and "pulse_coeffs" not in cfg:
        raise ConfigError("pulse = custom requires pulse_coeffs = M:re:im;...")
    if "pulse_coeffs" in cfg and cfg.get("pulse") != "custom":
        raise ConfigError("pulse_coeffs is only read with pulse = custom")
    if "omega_span" in cfg and not isinstance(cfg.get("grid"), int):
        raise ConfigError("omega_span is only read with grid = auto[:n]")
    if isinstance(cfg.get("grid"), int) and cfg.get("axis", "omega") != "omega":
        raise ConfigError("grid = auto:<n> is only defined for the omega axis")
    if cfg.get("axis") == "K" and "grid" in cfg:
        cfg["grid"] = _k_grid(raw["grid"])
    return cfg


def _orders(names: tuple[str, ...]) -> list[int]:
    """The orders n of the U_n among the propagator ``names`` (Unum has none)."""
    return [int(name[1:]) for name in names if name != "Unum"]


def params_from_config(cfg: dict, names: tuple[str, ...] = ()) -> GateParams:
    """The gate fields, with omega_T = omega_phys * T at the base gate time T = K / trap_freq
    and k_max raised to the highest U_n in ``names``, the propagators the caller computes."""
    params = _build(GateParams, cfg)
    if "omega_phys" in cfg:
        params = params.replace(omega_T=cfg["omega_phys"] * (params.K / cfg["trap_freq"]))
    return params.replace(k_max=max([params.k_max, *_orders(names)]))


def _both_names(cfg: dict) -> tuple[str, ...]:
    """The names under both propagator keys: check and budget validate at the highest of them."""
    return (*cfg.get("propagators", ()), cfg.get("propagator", "Unum"))


def pulse_from_config(cfg: dict) -> PulseShape:
    name = cfg.get("pulse", "rect")
    if name == "custom":
        return cfg["pulse_coeffs"]
    return rectangular() if name == "rect" else sin_squared()


def _flat_pulse_only(pulse: PulseShape, setting: str) -> None:
    """The closed-form amplitudes and budget rows hold for the flat pulse alone (c_0 = 1 only)."""
    if pulse.support != (0,) or pulse.c(0) != 1:
        raise ConfigError(f"{setting} uses the flat-pulse closed forms, which do not hold for "
                          f"pulse = {pulse.name}; give the drive as omega_T (omega_mode = fixed_T, "
                          "fixed_phys or an omega grid)")


def _joined(violations: tuple[Violation, ...]) -> str:
    """The violations of an invalid point on one line, as the error messages give them."""
    return "; ".join(f"{v.rule}: {v.detail}" for v in violations)


def sweep_from_config(cfg: dict) -> SweepSpec:
    params = params_from_config(cfg, cfg.get("propagators", SweepSpec.propagators))
    spec = _build(SweepSpec, cfg, fixed=params, pulse=pulse_from_config(cfg))
    if spec.axis != "omega" and spec.omega_mode in ("omega2", "omega4"):
        _flat_pulse_only(spec.pulse, f"omega_mode = {spec.omega_mode}")
    if isinstance(spec.grid, int):  # grid = auto:<n>, on the omega axis
        _flat_pulse_only(spec.pulse, "grid = auto")
        if violations := validate(params, spec.pulse):
            raise ConfigError(f"grid = auto needs valid base parameters: {_joined(violations)}")
        amps = budget.amplitude_set(params)
        lo_f, hi_f = cfg.get("omega_span", (0.7, 1.3))
        lo = lo_f * (amps.omega_2 if math.isnan(amps.omega_4) else amps.omega_4)
        hi = hi_f * amps.omega_2
        if not all(math.isfinite(v) for v in (lo, hi)):
            raise ConfigError(f"grid = auto span ends must be finite: [{lo}, {hi}]")
        if not lo < hi:
            raise ConfigError(f"grid = auto spans no range: [{lo}, {hi}]")
        spec.grid = list(np.linspace(lo, hi, spec.grid))
    return spec


# ---------------------------------------------------------------------------
# Sweep evaluation.
# ---------------------------------------------------------------------------

def _point_params(spec: SweepSpec, value: float) -> GateParams:
    p = spec.fixed
    if spec.axis == "K":
        p = p.replace(K=int(value), L=int(value) - (p.K - p.L))
    elif spec.axis == "eta":
        p = p.replace(eta=float(value))
    elif spec.axis == "nbar":
        p = p.replace(nbar=float(value))
    # drive strength
    if spec.axis == "omega":
        p = p.replace(omega_T=float(value))
    elif spec.omega_mode in ("omega2", "omega4") and not validate(p, spec.pulse):
        # the closed forms need a valid point; an amplitude with no real value
        # is NaN, which fails the omega_T sign rule
        amps = budget.amplitude_set(p)
        p = p.replace(omega_T=amps.omega_2 if spec.omega_mode == "omega2" else amps.omega_4)
    return p


def _fill_infidelity(row: dict, name: str, U: tuple,
                     weights: fidelity.ThermalWeights, metric: str) -> None:
    if metric in ("average", "both"):
        row[f"infid_{name}"] = 1.0 - fidelity.average_fidelity(U, weights)
    if metric == "bell":
        row[f"infid_{name}"] = 1.0 - fidelity.bell_fidelity(U, weights)
    elif metric == "both":
        row[f"bell_{name}"] = 1.0 - fidelity.bell_fidelity(U, weights)


def _propagators(names: tuple[str, ...], p: GateParams, pulse: PulseShape,
                 safety: float) -> dict[str, tuple]:
    """The named U2..U5 / Unum propagators at p, in block form; an overflow or an
    invalid floating-point operation raises FloatingPointError instead of a warning."""
    mats = {}
    orders = _orders(names)
    with np.errstate(over="raise", invalid="raise"):
        if orders:
            props = magnus.propagators_upto(p, pulse, max_order=max(orders))
            mats.update((f"U{n}", props[n]) for n in orders)
        if "Unum" in names:
            mats["Unum"] = trotter.propagate_numeric(p, pulse, trotter.TrotterConfig(safety=safety))
    return mats


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate every grid point; rows come back in grid order regardless of
    worker scheduling, and invalid points carry a skip marker.

    The propagators do not depend on nbar, so they are computed once per
    distinct valid p.replace(nbar=0) and reweighted per point."""
    points = [_point_params(spec, v) for v in spec.grid]
    verdicts = [validate(p, spec.pulse) for p in points]
    todo = list(dict.fromkeys(p.replace(nbar=0.0) for p, violations in zip(points, verdicts) if not violations))
    evaluate = functools.partial(_propagators, spec.propagators, pulse=spec.pulse,
                                 safety=spec.safety)
    workers = min(spec.workers, len(todo))  # a pool starts all its processes up front
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            mats = dict(zip(todo, pool.map(evaluate, todo)))
    else:
        mats = dict(zip(todo, map(evaluate, todo)))
    rows = []
    for value, p, violations in zip(spec.grid, points, verdicts):
        if violations:
            rows.append({"axis": value, "status": "skip:" + ";".join(v.rule for v in violations)})
            continue
        weights = fidelity.ThermalWeights(p.nbar, p.n_dim)
        row: dict = {"axis": value, "omega_T": p.omega_T, "status": "ok",
                     "tail_mass": weights.tail_mass}
        if spec.axis != "omega":
            amps = budget.amplitude_set(p)
            row.update(omega_LD=amps.omega_ld, omega_2=amps.omega_2, omega_4=amps.omega_4)
        for name, U in mats[p.replace(nbar=0.0)].items():
            _fill_infidelity(row, name, U, weights, spec.metric)
        rows.append(row)
    return rows


def _cell(value) -> str:
    """One CSV cell, the one format of every table msgate writes: None is empty, a string
    stays as it is, an integer is written exactly, a complex number as re+imj (+ 0.0
    normalizes signed zeros) and any other number to 12 significant digits."""
    if value is None or isinstance(value, str):
        return value or ""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, complex):
        return f"{value.real + 0.0:.12g}{value.imag + 0.0:+.12g}j"
    return f"{value:.12g}"


def _csv(lines) -> str:
    """The lines of values as CSV, each value written by ``_cell``."""
    return "".join(",".join(map(_cell, line)) + "\n" for line in lines)


def rows_to_csv(rows: list[dict], metric: str = "average") -> str:
    """Deterministic CSV (``_cell``'s format, fixed column order)."""
    columns = list(CSV_COLUMNS)
    if metric == "both":
        columns = columns[:-1] + [f"bell_{n}" for n in PROPAGATOR_NAMES] + [columns[-1]]
    return _csv([columns, *([row.get(col) for col in columns] for row in rows)])


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _check_out(out: str | None) -> None:
    """Fail before any computation if the --out path is a directory, its directory is
    missing, or it is not writable: the file if it exists, else its directory.  ``_write``
    reports what this cannot see.  Creates nothing."""
    if out:
        folder = os.path.dirname(out) or "."
        code = (errno.EISDIR if os.path.isdir(out) else errno.ENOENT if not os.path.isdir(folder)
                else errno.EACCES if not os.access(out if os.path.exists(out) else folder, os.W_OK) else 0)
        if code:
            raise ConfigError(f"cannot write {out}: {os.strerror(code)}")


def _write(text: str, out: str | None) -> None:
    """Write a subcommand's output to the --out path, or to stdout."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load(args) -> dict:
    """The subcommand's config, with each flag whose dest is a config key
    (--ndim, --mmax, --order) written over that key."""
    cfg = parse_config(args.config)
    cfg.update((key, v) for key, v in vars(args).items() if key in CONFIG_KEYS and v is not None)
    return cfg


def _cmd_sweep(args) -> int:
    spec = sweep_from_config(_load(args))
    spec.workers = args.workers
    _write(rows_to_csv(run_sweep(spec), spec.metric), args.out)
    return 0


def _cmd_budget(args) -> int:
    cfg = _load(args)
    pulse = pulse_from_config(cfg)
    _flat_pulse_only(pulse, "msgate budget")
    params = params_from_config(cfg, _both_names(cfg))
    if violations := validate(params, pulse):
        print(f"invalid parameters: {_joined(violations)}", file=sys.stderr)
        return 2
    rows = budget.table_rows(params)
    # a BudgetRow's fields are in the order of the CSV header
    _write(_csv([("label", "operator", "generic", "at_LD", "at_O4"), *map(dataclasses.astuple, rows)])
           if args.csv else budget.render_table(params, rows) + "\n", args.out)
    return 0


def _cmd_check(args) -> int:
    cfg = _load(args)
    violations = validate(params_from_config(cfg, _both_names(cfg)), pulse_from_config(cfg))
    # every violation has a detail, so a rule fails exactly when it has some
    details = ["; ".join(v.detail for v in violations if v.rule == rule) for rule in RULES]
    _write("".join(f"FAIL  {r}  ({d})\n" if d else f"pass  {r}\n" for r, d in zip(RULES, details)), args.out)
    return 2 if violations else 0


def _cmd_propagate(args) -> int:
    cfg = _load(args)
    if not cfg.keys() & {"omega_T", "omega_phys"}:
        raise ConfigError("propagate needs the drive: give omega_T or omega_phys")
    which = cfg.get("propagator", "Unum")
    params, pulse = params_from_config(cfg, (which,)), pulse_from_config(cfg)
    if violations := validate(params, pulse):
        print(f"invalid parameters: {_joined(violations)}", file=sys.stderr)
        return 2
    U = hilbert.embed(_propagators((which,), params, pulse,
                                   cfg.get("safety", trotter.TrotterConfig.safety))[which],
                      params.n_dim, 1.0)
    _write(_csv([[f"# propagator {which}, dim {U.shape[0]}"], *U.tolist()]), args.out)
    return 0


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive worker count")
    return value


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
        for flag, key in (("--ndim", "n_dim"), ("--mmax", "m_max"), ("--order", "k_max")):
            p.add_argument(flag, dest=key, type=int)
        if name == "sweep":
            p.add_argument("--workers", type=_worker_count, default=1)
        if name == "budget":
            p.add_argument("--csv", action="store_true")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
