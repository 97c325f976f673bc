"""The golden rows of the acceptance sweeps: which propagators each preset runs
(``SWEEPS``), the sweep itself and the one comparison of its CSV with
``tests/golden/<preset>.csv``, the ``rows_to_csv`` output of the same sweep captured
before the sweep path was refactored.  The comparison takes the ``axis`` and ``status``
cells exactly and every other cell within max(1e-9 |want|, 1e-12), with NaN equal to
NaN.  ``test_acceptance.test_golden_rows`` calls it, and so does the scipy-free CI job,
so this module imports numpy and msgate alone.  It checks the presets it is given, or
every preset of ``SWEEPS``:

    PYTHONPATH=tests python -m golden_rows [fig2 fig3a ...]
"""

import math
import pathlib
import sys

from msgate.cli import parse_config, rows_to_csv, run_sweep, sweep_from_config

ROOT = pathlib.Path(__file__).resolve().parents[1]
# preset -> propagators its criteria need (None: the preset's own list)
SWEEPS = {"fig2": None, "fig3c": ("U2", "Unum"), "fig3a": ("Unum",),
          "fig3b": ("Unum",), "fig4b": ("Unum",), "fig4a": ("Unum",), "fig4c": None}


def run_preset(name: str) -> list:
    """The rows of preset ``name`` run with its ``SWEEPS`` propagators."""
    spec = sweep_from_config(parse_config(str(ROOT / "configs" / f"{name}.cfg")))
    if SWEEPS[name] is not None:
        spec.propagators = SWEEPS[name]
    return run_sweep(spec)


def _cell_matches(col: str, got: str, want: str) -> bool:
    if col in ("axis", "status") or not got or not want:
        return got == want
    g, w = float(got), float(want)
    # an infinite cell matches only itself, as under pytest.approx
    return (g == w or (math.isnan(g) and math.isnan(w))
            or (math.isfinite(w) and abs(g - w) <= max(1e-9 * abs(w), 1e-12)))


def mismatches(name: str, rows: list) -> list[str]:
    """Where the CSV of ``rows`` departs from ``tests/golden/<name>.csv``: one entry per
    cell off, or one for a header or row count that differs; empty when they match."""
    got = [line.split(",") for line in rows_to_csv(rows).splitlines()]
    want = [line.split(",") for line in (ROOT / "tests" / "golden" / f"{name}.csv").read_text().splitlines()]
    if got[0] != want[0] or len(got) != len(want):
        return [f"{name}: header or row count differs ({len(got) - 1} rows, golden {len(want) - 1})"]
    return [f"{name}: {col} at {w_row[0]} is {g}, golden {w}"
            for g_row, w_row in zip(got[1:], want[1:])
            for col, g, w in zip(want[0], g_row, w_row) if not _cell_matches(col, g, w)]


if __name__ == "__main__":
    failed = False
    for name in sys.argv[1:] or SWEEPS:
        off = mismatches(name, run_preset(name))
        print("\n".join(off) or f"{name}: every row matches tests/golden/{name}.csv")
        failed = failed or bool(off)
    sys.exit(1 if failed else 0)
