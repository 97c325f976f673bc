import ast
import concurrent.futures
import importlib.util
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import msgate
from msgate import budget, cli
from msgate.cli import (
    ConfigError,
    params_from_config,
    parse_config,
    pulse_from_config,
    rows_to_csv,
    run_sweep,
    sweep_from_config,
)
from msgate.params import GateParams

MINI_SWEEP = """
# tiny omega sweep
eta = 0.18
K = 28
L = 25
nbar = 0.02
trap_freq = 1.0e6
pulse = rect
axis = omega
grid = 28.0:32.0:5
propagators = U2,U4
metric = average
"""

CHECK_OK = """
eta = 0.18
K = 28
L = 25
"""

CHECK_BAD = """
eta = 0.18
K = 28
L = 14
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _setting(base, lines):
    """``base`` then ``lines``, without the base's lines for the keys that ``lines``
    set: a key given twice is itself a config error."""
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    return "".join(line + "\n" for line in base.splitlines() if line.split("=")[0].strip() not in keys) + lines


def test_parse_config_roundtrip(tmp_path):
    cfg = parse_config(_write(tmp_path, "a.cfg", CHECK_OK))
    p = params_from_config(cfg)
    assert (p.eta, p.K, p.L) == (0.18, 28, 25)
    assert p.n_dim == 8 and p.m_max == 3


def test_parse_config_rejects_garbage(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "bad.cfg", "this is not a key value line\n"))
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.cfg"))
    with pytest.raises(ConfigError):
        params_from_config(parse_config(_write(tmp_path, "b.cfg", "eta = 0.18\nK = 28\n")))


def test_pulse_from_config(tmp_path):
    def pulse(lines):
        return pulse_from_config(parse_config(_write(tmp_path, "p.cfg", lines)))

    assert pulse("pulse = rect\n").name == "rect"
    assert pulse("pulse = sin2\n").name == "sin2"
    assert pulse("pulse = custom\npulse_coeffs = 0:0.5:0;1:-0.25:0;-1:-0.25:0\n").support == (-1, 0, 1)
    with pytest.raises(ConfigError):
        pulse("pulse = triangle\n")


PARSED_ONCE = """
eta = 0.18
K = 28
L = 25
nbar = 0.02
n_dim = 6
m_max = 2
k_max = 4
trap_freq = 1.0e6
omega_phys = 1.1e6
pulse = custom
pulse_coeffs = 0:1:0
axis = omega
grid = auto:2
omega_span = 0.9,1.1
propagators = U2,U3
metric = both
omega_mode = fixed_phys
safety = 2
propagator = U2
"""
# the K axis: the grid text is parsed by _grid and then read once more, as exact integers,
# by _k_grid
PARSED_ONCE_K = """
eta = 0.18
K = 28
L = 25
nbar = 0.02
n_dim = 6
m_max = 2
k_max = 4
trap_freq = 1.0e6
omega_phys = 1.1e6
pulse = rect
axis = K
grid = 28:30:2
propagators = U2
metric = average
omega_mode = fixed_phys
propagator = U2
"""


@pytest.mark.parametrize("config", [PARSED_ONCE, PARSED_ONCE_K], ids=["omega-axis", "K-axis"])
@pytest.mark.parametrize("command", ["sweep", "budget", "check", "propagate"])
def test_each_config_value_is_parsed_once(tmp_path, capsys, monkeypatch, command, config):
    # a parser that another parser calls (propagators -> propagator) reads no value of the
    # file, and a flag (--ndim) is an int from argparse that no parser sees
    calls, depth = [], [0]
    k_reads = []
    monkeypatch.setattr(cli, "_k_grid", lambda text, read=cli._k_grid: k_reads.append(text) or read(text))

    def counted(key, parse):
        def wrapper(text):
            if not depth[0]:
                calls.append((key, text))
            depth[0] += 1
            try:
                return parse(text)
            finally:
                depth[0] -= 1
        return wrapper

    for key, parse in list(cli.CONFIG_KEYS.items()):
        monkeypatch.setitem(cli.CONFIG_KEYS, key, counted(key, parse))
    assert cli.main([command, _write(tmp_path, "c.cfg", config), "--ndim", "6"]) == 0
    assert capsys.readouterr().out
    in_file = [tuple(part.strip() for part in line.split("=")) for line in config.strip().splitlines()]
    assert len(in_file) >= 10 and sorted(calls) == sorted(in_file)
    assert k_reads == (["28:30:2"] if config is PARSED_ONCE_K else [])


def test_sweep_spec_from_config(tmp_path):
    spec = sweep_from_config(parse_config(_write(tmp_path, "s.cfg", MINI_SWEEP)))
    assert spec.axis == "omega"
    assert len(spec.grid) == 5
    assert spec.propagators == ("U2", "U4")


def test_sweep_rows_and_csv_determinism(tmp_path):
    spec = sweep_from_config(parse_config(_write(tmp_path, "s.cfg", MINI_SWEEP)))
    spec.propagators = ("U2",)
    rows1 = run_sweep(spec)
    rows2 = run_sweep(spec)
    csv1, csv2 = rows_to_csv(rows1), rows_to_csv(rows2)
    assert csv1 == csv2
    header = csv1.splitlines()[0].split(",")
    assert header[:2] == ["axis", "omega_T"]
    assert "infid_U2" in header and "tail_mass" in header
    assert len(csv1.splitlines()) == 6
    first = dict(zip(header, csv1.splitlines()[1].split(",")))
    assert first["status"] == "ok"
    assert first["infid_U4"] == ""  # propagator not requested: empty cell


def test_sweep_skip_marker(tmp_path):
    text = """
eta = 0.18
K = 28
L = 25
trap_freq = 1.0e6
pulse = rect
axis = K
grid = 10,12,14
omega_mode = omega2
propagators = U2
"""
    spec = sweep_from_config(parse_config(_write(tmp_path, "k.cfg", text)))
    rows = run_sweep(spec)
    status = {int(r["axis"]): r["status"] for r in rows}
    assert status[10] == "ok"
    assert status[12].startswith("skip:")  # 3*12 = 4*9 resonance
    assert status[14] == "ok"
    csv = rows_to_csv(rows)
    assert "skip:" in csv


@pytest.mark.parametrize("value, cell", [
    (None, ""),
    ("", ""),
    ("skip:K>L>=1", "skip:K>L>=1"),
    (2 ** 53, "9007199254740992"),            # an integer exactly, beyond 12 digits
    (-(10 ** 12) - 1, "-1000000000001"),
    (0.1 + 0.2, "0.3"),                        # any other number to 12 significant digits
    (1 / 3, "0.333333333333"),
    (np.float64(2.0 ** 53), "9.00719925474e+15"),
    (-0.0, "-0"),                              # a real zero keeps its sign
    (math.nan, "nan"),
    (complex(-0.0, -0.0), "0+0j"),             # a complex one does not: + 0.0 drops it
    (complex(1.5, -0.0), "1.5+0j"),
    (complex(-0.0, -2.0), "0-2j"),
    (np.complex128(1 / 3 - 1e-20j), "0.333333333333-1e-20j"),
])
def test_cell_is_the_one_csv_format(value, cell):
    assert cli._cell(value) == cell


def test_csv_joins_cells_into_lines():
    assert cli._csv([]) == ""
    # a line of one string is written as it is: propagate's header comment is one
    assert cli._csv([("# U2, dim 32",), [None, 2 ** 60, 0.5, 1j]]) == f"# U2, dim 32\n,{2 ** 60},0.5,0+1j\n"


@pytest.mark.parametrize("grid", [(10 ** 12, 10 ** 12 + 1), (2 ** 53 - 1, 2 ** 53)])
def test_k_axis_cells_are_the_integers_swept(tmp_path, capsys, grid):
    # 12 significant digits would print both values of each grid as the same cell
    path = _write(tmp_path, "k.cfg", CHECK_OK + f"axis = K\ngrid = {grid[0]},{grid[1]}\npropagators = U2\n")
    assert cli.main(["sweep", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [str(K) for K in grid]


def test_k_axis_sweep_drives_at_omega_4_at_large_K(tmp_path, capsys):
    # Omega_4 at K = 10^12 (L = K - 3, eta = 0.18) is 30.7319..., close to Omega_2
    path = _write(tmp_path, "k.cfg", CHECK_OK + "axis = K\ngrid = 1000000000000\nomega_mode = omega4\n"
                                               "propagators = U2\n")
    assert cli.main(["sweep", path]) == 0
    header, row = (line.split(",") for line in capsys.readouterr().out.splitlines())
    cells = dict(zip(header, row))
    assert float(cells["omega_T"]) == pytest.approx(30.7319463, rel=1e-8)
    assert float(cells["omega_T"]) == float(cells["omega_4"]) and cells["status"] == "ok"


def test_parallel_and_serial_agree(tmp_path):
    # both metrics of a Magnus and the numeric propagator cross the process pool
    spec = sweep_from_config(parse_config(_write(tmp_path, "s.cfg", MINI_SWEEP)))
    spec.propagators, spec.metric = ("U2", "Unum"), "both"
    serial = rows_to_csv(run_sweep(spec), spec.metric)
    spec.workers = 2
    parallel = rows_to_csv(run_sweep(spec), spec.metric)
    assert serial == parallel
    assert all(row.split(",")[-1] == "ok" for row in serial.splitlines()[1:])
    assert "bell_Unum" in serial.splitlines()[0]


def test_pool_starts_no_more_processes_than_points(tmp_path, monkeypatch):
    # a pool starts all its processes up front, so it gets one per distinct point at most
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    spec = sweep_from_config(parse_config(_write(tmp_path, "s.cfg", MINI_SWEEP.replace("28.0:32.0:5", "28,30"))))
    serial = rows_to_csv(run_sweep(spec))
    spec.workers = 64
    assert rows_to_csv(run_sweep(spec)) == serial and started == [2]
    # an nbar sweep reuses one set of propagators: no pool at all
    spec = sweep_from_config(parse_config(_write(tmp_path, "n.cfg", NBAR_SWEEP + "grid = 0.1,0.2,0.3\n")))
    spec.workers = 64
    assert [r["status"] for r in run_sweep(spec)] == ["ok"] * 3 and started == [2]


U5_POINTS = """
eta = 0.18
K = 25
L = 20
pulse = rect
axis = omega
grid = 20,30
"""


def test_points_are_validated_at_the_highest_order_computed(tmp_path, capsys):
    # 4 K = 5 L: a jK = lL coincidence beyond the default k_max = 4 but within U5's order
    for lines in ("propagators = U4,U5\n", "propagators = U5\nk_max = 2\n"):
        path = _write(tmp_path, "u5.cfg", U5_POINTS + lines)
        assert cli.main(["sweep", path]) == 0
        assert [line.split(",")[-1] for line in capsys.readouterr().out.splitlines()[1:]] == ["skip:jK=lL"] * 2
        assert cli.main(["check", path]) == 2
        assert "FAIL  jK=lL  (j=4, l=5)" in capsys.readouterr().out
    assert cli.main(["propagate", _write(tmp_path, "p.cfg", U5_POINTS + "omega_T = 20\npropagator = U5\n")]) == 2
    assert "jK=lL" in capsys.readouterr().err
    # up to U4 the points are valid at the given k_max
    path = _write(tmp_path, "u4.cfg", U5_POINTS + "propagators = U4\n")
    assert cli.main(["sweep", path]) == 0
    assert [line.split(",")[-1] for line in capsys.readouterr().out.splitlines()[1:]] == ["ok"] * 2
    assert cli.main(["check", path]) == 0


def test_default_propagators_are_validated_at_their_order(tmp_path, capsys):
    # no propagators key: the sweep computes U2, U3, U4 and Unum, and 3 K = 4 L at K = 28, L = 21
    path = _write(tmp_path, "d.cfg", "eta = 0.18\nK = 28\nL = 21\nk_max = 2\npulse = rect\n"
                                     "axis = omega\ngrid = 20\n")
    assert cli.main(["sweep", path]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[-1] == "skip:jK=lL"
    # check validates at the config's k_max, as before
    assert cli.main(["check", path]) == 0


def test_each_key_sets_the_order_of_its_own_subcommand(tmp_path, capsys):
    # sweep reads propagators and propagate reads propagator: U5 under the other key
    # does not make 4 K = 5 L a resonance of what is computed
    one_point = U5_POINTS.replace("grid = 20,30", "grid = 20")
    rows = []
    for lines in ("propagators = U2\n", "propagators = U2\npropagator = U5\n"):
        assert cli.main(["sweep", _write(tmp_path, "s.cfg", one_point + lines)]) == 0
        rows.append(capsys.readouterr().out.splitlines()[1])
    assert rows[0] == rows[1] and rows[0].endswith(",ok")
    path = _write(tmp_path, "p.cfg", U5_POINTS + "omega_T = 20\npropagator = U2\npropagators = U5\n")
    assert cli.main(["propagate", path]) == 0
    assert capsys.readouterr().out.startswith("# propagator U2, dim 32")
    # check and budget validate at the highest U_n under either key
    assert cli.main(["check", path]) == 2 and cli.main(["budget", path]) == 2


def test_nbar_sweep_reuses_propagators(tmp_path):
    text = """
eta = 0.18
K = 28
L = 25
trap_freq = 1.0e6
pulse = rect
axis = nbar
grid = 0.0:0.1:3
omega_mode = omega2
propagators = U2
"""
    spec = sweep_from_config(parse_config(_write(tmp_path, "n.cfg", text)))
    rows = run_sweep(spec)
    assert len(rows) == 3
    infs = [r["infid_U2"] for r in rows]
    assert infs[0] < infs[1] < infs[2]


NBAR_SWEEP = """
eta = 0.18
K = 28
L = 25
trap_freq = 1.0e6
pulse = rect
axis = nbar
omega_mode = omega2
propagators = U2,Unum
"""


def test_nbar_sweep_validates_every_point(tmp_path):
    def csv_lines(grid):
        path = _write(tmp_path, "n.cfg", NBAR_SWEEP + f"grid = {grid}\n")
        return rows_to_csv(run_sweep(sweep_from_config(parse_config(path)))).splitlines()

    lines = csv_lines("-0.5,0.1,0.2")
    assert lines[1].endswith(",skip:nbar sign")
    assert lines[2:] == csv_lines("0.1,0.2")[1:]
    assert all(line.endswith(",ok") for line in lines[2:])


def test_nan_gate_fields_give_skip_rows(tmp_path):
    rows = run_sweep(sweep_from_config(parse_config(
        _write(tmp_path, "n.cfg", NBAR_SWEEP + "grid = 0.1,nan\n"))))
    assert [r["status"] for r in rows] == ["ok", "skip:nbar sign"]
    rows = run_sweep(sweep_from_config(parse_config(_write(
        tmp_path, "w.cfg", NBAR_SWEEP.replace("omega2", "fixed_T").replace("nbar\n", "K\n")
        + "omega_T = nan\ngrid = 28\n"))))
    assert [r["status"] for r in rows] == ["skip:omega_T sign"]


def test_infinite_gate_fields_give_skip_rows(tmp_path, capsys):
    rows = run_sweep(sweep_from_config(parse_config(
        _write(tmp_path, "n.cfg", NBAR_SWEEP + "grid = 0.1,inf\n"))))
    assert [r["status"] for r in rows] == ["ok", "skip:nbar sign"]
    path = _write(tmp_path, "w.cfg", MINI_SWEEP.replace("28.0:32.0:5", "28,inf"))
    assert cli.main(["sweep", path]) == 0
    assert capsys.readouterr().out.splitlines()[2] == "inf" + "," * 11 + "skip:omega_T sign"
    rows = run_sweep(sweep_from_config(parse_config(_write(
        tmp_path, "e.cfg", NBAR_SWEEP.replace("nbar\n", "eta\n") + "grid = 0.1,inf\n"))))
    assert [r["status"] for r in rows] == ["ok", "skip:eta range"]
    path = _write(tmp_path, "c.cfg", CHECK_OK + "omega_T = inf\nnbar = inf\n")
    assert cli.main(["check", path]) == 2
    out = capsys.readouterr().out
    assert "FAIL  omega_T sign" in out and "FAIL  nbar sign" in out


def test_main_check_exits_at_once_on_a_huge_k_max(tmp_path, capsys):
    # the jK = lL rule is not checked at a k_max outside [2, 5], so no k_max^2 loop runs
    path = _write(tmp_path, "k.cfg", CHECK_OK + "k_max = 1000000\n")
    start = time.perf_counter()
    assert cli.main(["check", path]) == 2
    assert time.perf_counter() - start < 1.0
    assert "FAIL  k_max range" in capsys.readouterr().out


def test_main_check_lists_every_rule(tmp_path, capsys):
    path = _write(tmp_path, "c.cfg", CHECK_OK + "nbar = -1\nm_max = 0\n")
    assert cli.main(["check", path]) == 2
    out = capsys.readouterr().out
    assert "FAIL  nbar sign" in out and "FAIL  m_max range" in out


def test_benchmark_configs_parse():
    cfg_dir = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "configs"
    names = sorted(cfg_dir.glob("*.cfg"))
    assert names
    for path in names:
        assert parse_config(str(path))


def _perfbench_module(name):
    """perfbench/<name>.py imported as it is (it is not a package)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_entry_points_work():
    # every function the benchmark traces exists, and every workload sets up its stored candidates
    for module, name in _perfbench_module("tracing").LAYERS:
        assert callable(getattr(importlib.import_module(f"msgate.{module}"), name)), (module, name)
    bench = _perfbench_module("bench")
    for workload in bench.WORKLOADS.values():
        assert bench.check_candidates(bench.setup(workload), bench.load_reference(workload)) == []


def test_main_check_exit_codes(tmp_path, capsys):
    ok = _write(tmp_path, "ok.cfg", CHECK_OK)
    bad = _write(tmp_path, "bad.cfg", CHECK_BAD)
    assert cli.main(["check", ok]) == 0
    out = capsys.readouterr().out
    assert "pass  K=2L" in out
    assert cli.main(["check", bad]) == 2
    out = capsys.readouterr().out
    assert "FAIL  K=2L" in out


def test_main_config_error_exit_code(tmp_path):
    assert cli.main(["check", str(tmp_path / "nope.cfg")]) == 1


def test_main_budget(tmp_path, capsys):
    cfgtext = CHECK_OK + "omega_T = 29.93\n"
    path = _write(tmp_path, "b.cfg", cfgtext)
    assert cli.main(["budget", path]) == 0
    out = capsys.readouterr().out
    assert "Gate" in out and "omega_4" in out
    assert cli.main(["budget", path, "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("label,operator,generic")


def test_omega_phys_converts_at_the_base_gate_time(tmp_path):
    # 0.173e6 rad/s at a 280 us gate (K = 28, trap_freq = 0.1 MHz) gives omega*T = 48.44
    cfg = parse_config(_write(tmp_path, "a.cfg", CHECK_OK + "trap_freq = 0.1e6\nomega_phys = 0.173e6\n"))
    omega_T = params_from_config(cfg).omega_T
    assert omega_T == 0.173e6 * (28 / 0.1e6)
    assert omega_T == pytest.approx(48.44)
    # without omega_phys, trap_freq leaves the gate untouched
    cfg = parse_config(_write(tmp_path, "b.cfg", CHECK_OK + "trap_freq = 0.1e6\n"))
    assert params_from_config(cfg) == GateParams(eta=0.18, K=28, L=25)


def test_main_budget_at_physical_drive(tmp_path, capsys):
    # omega_phys is converted once, at the gate time K / trap_freq
    omega_T = 1.1e6 * (28 / 1.0e6)
    outs = []
    for drive in ("omega_phys = 1.1e6\n", f"omega_T = {omega_T!r}\n"):
        assert cli.main(["budget", _write(tmp_path, "b.cfg", CHECK_OK + "trap_freq = 1.0e6\n" + drive)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "combined d_y" in outs[0]
    assert float(outs[0].splitlines()[2].split()[2]) != 0.0  # the generic Gate cell


def test_main_budget_invalid_params(tmp_path):
    assert cli.main(["budget", _write(tmp_path, "bad.cfg", CHECK_BAD)]) == 2


def test_main_propagate_identity(tmp_path, capsys):
    text = CHECK_OK + "omega_T = 0\npropagator = U4\n"
    path = _write(tmp_path, "p.cfg", text)
    assert cli.main(["propagate", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# propagator U4, dim 32")
    first_row = out[1].split(",")
    assert first_row[0] == "1+0j"
    assert len(first_row) == 32


@pytest.mark.parametrize("mode", ["", "omega_mode = omega2\n", "omega_mode = omega4\n"])
def test_main_propagate_without_a_drive_is_config_error(tmp_path, capsys, mode):
    # GateParams' default omega_T = 0 would print the identity; only an explicit 0 does
    path = _write(tmp_path, "p.cfg", CHECK_OK + mode + "propagator = U4\n")
    assert cli.main(["propagate", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and len(captured.err.splitlines()) == 1


def test_main_sweep_writes_file(tmp_path):
    cfg = _write(tmp_path, "s.cfg", MINI_SWEEP)
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("axis,omega_T")
    assert len(text.splitlines()) == 6


def test_overrides(tmp_path):
    cfg = _write(tmp_path, "s.cfg", MINI_SWEEP)
    out = tmp_path / "o.csv"
    assert cli.main(["sweep", cfg, "--out", str(out), "--ndim", "6", "--mmax", "2"]) == 0
    assert len(out.read_text().splitlines()) == 6


def test_figure_presets_parse():
    cfg_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
    names = sorted(p.name for p in cfg_dir.glob("fig*.cfg"))
    assert names == ["fig2.cfg", "fig3a.cfg", "fig3b.cfg", "fig3c.cfg",
                     "fig4a.cfg", "fig4b.cfg", "fig4c.cfg"]
    for name in names:
        spec = sweep_from_config(parse_config(str(cfg_dir / name)))
        assert spec.grid


@pytest.mark.parametrize("preset", ["fig2", "fig4a"])
def test_sweep_imports_no_scipy_module(preset):
    # msgate's runtime is numpy alone: scipy costs start-up time, and every unitary is
    # exponentiated by eigh; a flat-pulse and a sin^2 sweep, each in a fresh interpreter
    code = ("import sys\nfrom msgate import cli\n"
            "spec = cli.sweep_from_config(cli.parse_config(sys.argv[1]))\n"
            "spec.grid = spec.grid[:2]\n"
            "assert [row['status'] for row in cli.run_sweep(spec)] == ['ok'] * 2\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    root = pathlib.Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code, str(root / "configs" / f"{preset}.cfg")],
                         env={**os.environ, "PYTHONPATH": str(root / "src")},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_package_imports_only_numpy():
    # every import statement, at module level or inside a function, so that an import
    # made only on a rarely taken path counts too; relative imports stay in the package
    # tests/golden_rows.py as well: the scipy-free CI job runs its comparison
    src = pathlib.Path(msgate.__file__).resolve().parent
    third_party = set()
    for path in sorted([*src.rglob("*.py"), pathlib.Path(__file__).resolve().parent / "golden_rows.py"]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            third_party.update((path.name, name) for name in names
                               if name.split(".")[0] not in sys.stdlib_module_names | {"msgate"})
    assert ("magnus.py", "numpy") in third_party  # the walk sees the imports
    assert {(module, name) for module, name in third_party if name != "numpy"} == set()


def test_runtime_depends_on_numpy_alone():
    # scipy is a test dependency only: tests/oracles.py and the dense references use it
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    runtime, test = ([re.match(r"[\w.-]+", r).group() for r in requirements]
                     for requirements in (project["dependencies"], project["optional-dependencies"]["test"]))
    assert runtime == ["numpy"] and "scipy" in test


def test_no_module_builds_a_gate_params():
    # a GateParams comes from a config, by ``cli._build(GateParams, cfg)``, or from ``.replace``
    # on one the caller holds: a kernel takes the fields it reads, never a stand-in GateParams
    src = pathlib.Path(msgate.__file__).resolve().parent
    built, passed_to = [], set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            if "GateParams" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                built.append(f"{path.name}:{node.lineno}")
            if any(getattr(arg, "id", None) == "GateParams" for arg in node.args):
                passed_to.add(getattr(node.func, "id", None))
    assert built == []
    assert passed_to == {"_build"}  # the walk sees the one construction


def test_no_unused_imports():
    # every name a module binds by an import is read somewhere in it, in src/msgate and
    # tests/; __init__.py re-exports and ``from __future__`` bind names on purpose
    root = pathlib.Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted([*(root / "src" / "msgate").rglob("*.py"), *(root / "tests").rglob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(root)}:{line}: {name}" for name, line in bound.items()
                   if name not in read]
    assert unused == []


# top-level names that no product code reads, each kept for its reason
UNREFERENCED = {
    "CONSISTENT_ROWS": "documents which printed budget rows equal direct substitution",
    "level_coeff": "the pulse-aware drive amplitudes (D9 step 2) are to call it",
    "OscSum.terms": "the exact-rational view that the resint tests compare with the Fraction oracle",
}


# the lru_cache functions of src/msgate, each with the traffic it serves per benchmark point
CACHES = {
    "fidelity._targets": "the projected target and Bell columns: 4 hits per sweep point",
    "hilbert.block_basis": "the block columns: 8 hits per crosscheck point",
    "hilbert.sideband_operators": "the bands A_m: 1 hit per omega_rect point, from TrotterConfig.step_grid",
    "magnus._sideband_moves": "2 hits per crosscheck point, at 0.3-0.4 ms per cold rect plan",
    "resint.parts_table": "the compositions of an order: ~2,500 hits per crosscheck point",
    "magnus._transfer_dyson": "the P-hat_k of an eta: a hit on every omega point",
    "trotter._frame": "the drive-free frame of the step exponentials: a hit on every omega point",
    "magnus._plan": "the transfer plan: a hit on every eta point",
}


def test_every_cache_is_listed():
    # a new cache states the traffic it serves before it lands
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "msgate"
    cached = {f"{path.stem}.{node.name}" for path in src.rglob("*.py")
              for node in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(node, ast.FunctionDef)
              if any(re.fullmatch(r"(functools\.)?(lru_cache|cache)(\(.*\))?", ast.unparse(d))
                     for d in node.decorator_list)}
    assert sorted(cached) == sorted(CACHES)


def _names_read(tree) -> set[str]:
    """The names and attributes a statement reads, and the names it imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _attributes_read(tree) -> set[str]:
    """The attributes a statement reads (x.name)."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_top_level_name_has_a_product_reference():
    # each function, class and constant at the top of a module of src/msgate is read by
    # another statement of src/msgate (an __init__ export counts) or of perfbench/; each
    # method of its classes but the dunders by an attribute load there (x.name, also in
    # another method of its class) or by a bare name in a class-level statement of its
    # class (__complex__ = as_complex): a local or parameter of that name is no reader.
    # Tests and docstrings do not count
    root = pathlib.Path(__file__).resolve().parents[1]
    src = root / "src" / "msgate"
    statements = []  # (path, top-level statement, the names it reads)
    for path in sorted([*src.rglob("*.py"), *(root / "perfbench").rglob("*.py")]):
        statements += [(path, stmt, _names_read(stmt)) for stmt in ast.parse(path.read_text(), str(path)).body]
    unreferenced = set()
    for path, stmt, _ in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            continue
        if path.is_relative_to(src):
            unreferenced.update(name for name in names
                                if not any(name in read for _, other, read in statements if other is not stmt))
        if path.is_relative_to(src) and isinstance(stmt, ast.ClassDef):
            outside = set().union(*(_attributes_read(other) for _, other, _ in statements if other is not stmt))
            class_level = set().union(*(_names_read(item) for item in stmt.body
                                        if not isinstance(item, ast.FunctionDef)))
            for method in stmt.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                    reads = outside | class_level | set().union(
                        *(_attributes_read(item) for item in stmt.body if item is not method))
                    if method.name not in reads:
                        unreferenced.add(f"{stmt.name}.{method.name}")
    assert "run_sweep" not in unreferenced and len(statements) > 100  # the walk sees the references
    assert sorted(unreferenced) == sorted(UNREFERENCED)


# defaulted parameters that no call in src/ or perfbench/ passes, each kept for its reason
UNPASSED_DEFAULTS = {
    "table_rows.n": "the printed budget is the Fock-level-0 table; tests read the rows at other levels",
    "propagate_numeric_exact_displacement.config": "tests set the steps of the sideband-truncation cross-check",
    "main.argv": "the console script passes none, so argparse reads sys.argv; tests pass the arguments",
}


def test_every_default_is_passed_by_a_product_call():
    # each defaulted parameter of a top-level function or method of src/msgate is passed, by
    # keyword or by position, at some call in src/msgate or perfbench/ (f(...) or x.f(...);
    # a class name calls its __init__; a *args or **kwargs argument passes every parameter):
    # a default that every call takes is a constant, and one that only tests pass is a knob
    # for tests.  Tests do not count
    root = pathlib.Path(__file__).resolve().parents[1]
    src = root / "src" / "msgate"
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted([*src.rglob("*.py"), *(root / "perfbench").rglob("*.py")])}
    calls = {}  # called name -> [(number of positional arguments, keywords)]
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                calls.setdefault(name, []).append((math.inf if starred else len(node.args),
                                                   {kw.arg for kw in node.keywords}))
    unpassed, defaults = set(), 0
    for path, tree in trees.items():
        if not path.is_relative_to(src):
            continue
        functions = []  # (label, called name, definition, leading parameters the call does not pass)
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                functions.append((stmt.name, stmt.name, stmt, 0))
            elif isinstance(stmt, ast.ClassDef):
                functions += [(f"{stmt.name}.{fn.name}", stmt.name if fn.name == "__init__" else fn.name, fn,
                               0 if any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list) else 1)
                              for fn in stmt.body if isinstance(fn, ast.FunctionDef)]
        for label, name, fn, skip in functions:
            positional = [*fn.args.posonlyargs, *fn.args.args]
            first = len(positional) - len(fn.args.defaults)
            defaulted = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
            defaulted += [(arg.arg, math.inf) for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
            defaults += len(defaulted)
            unpassed.update(f"{label}.{param}" for param, index in defaulted
                            if not any(param in kws or None in kws or n > index for n, kws in calls.get(name, [])))
    assert defaults > len(UNPASSED_DEFAULTS) and "run_sweep" in calls  # the walk sees the definitions
    assert sorted(unpassed) == sorted(UNPASSED_DEFAULTS)


@pytest.mark.parametrize("lines", [
    "pulse = custom\npulse_coeffs = 1:0.5:0\ngrid = 1,2\n",  # no conjugate partner
    "pulse = custom\npulse_coeffs = x:1:0\ngrid = 1,2\n",    # non-integer M
    "pulse = rect\ngrid = a,b\n",                            # non-numeric grid
    "pulse = rect\ngrid = auto:x\n",                         # non-integer point count
    "pulse = rect\ngrid = auto:-3\n",                        # negative point count
    "pulse = rect\ngrid = auto\nomega_span = 0.7\n",         # one span value
    "pulse = rect\ngrid = auto\nomega_span = a,b\n",         # non-numeric span
    "pulse = rect\ngrid = 1,2\nomega_phys = fast\n",         # non-numeric amplitude
    "pulse = rect\ngrid = 1,2\nsafety = ten\n",              # non-numeric step density
    "pulse = rect\ngrid = 1,2\nsafety = 0\n",                # zero steps: U would be 1
    "pulse = rect\ngrid = 1,2\nsafety = -3\n",
    "pulse = custom\npulse_coeffs = 0:0:0\ngrid = 1,2\n",    # pulse with empty support
    "pulse = rect\ngrid = 1,2\nomgea_mode = fixed_T\n",     # misspelled key
    "pulse = rect\ngrid = 1,2\nworkres = 2\n",              # key no subcommand reads
    "pulse = rect\ngrid = 1,2\n= 5\n",                      # a value without a key
    "pulse = rect\ngrid = auto5\n",                         # neither auto nor auto:<n>
    "pulse = rect\naxis = K\ngrid = 28,nan\n",               # non-finite K
    "pulse = rect\naxis = K\ngrid = 28,inf\n",
    "pulse = rect\naxis = K\ngrid = 10:20:4\n",             # K values read exactly: 13.33 is not one
    "pulse = rect\naxis = K\ngrid = 28,31.0000000001\n",     # no tolerance
    "pulse = rect\naxis = K\ngrid = -1,1e-999999999\n",      # no exponent expanded into digits
    "pulse = rect\ngrid = 1,2\ntrap_freq = inf\n",           # no gate time in seconds
    "pulse = rect\naxis = K\ngrid = 28\nomega_mode = fixed_phys\nomega_phys = 1e5\ntrap_freq = 0\n",
    "pulse = rect\ngrid = auto\neta = 0\n",                 # auto grid from invalid parameters
    "pulse = rect\ngrid = auto\neta = 0.99\n",              # auto grid with no real omega_2
    "pulse = rect\ngrid = auto\neta = 0.9697677238402231\n",  # ... and at the pole of omega_2
    "pulse = custom\npulse_coeffs = 0:nan:0\ngrid = 1,2\n",  # non-finite coefficients
    "pulse = custom\npulse_coeffs = 0:inf:0\ngrid = 1,2\n",
    "pulse = rect\ngrid = 1,2\nK = 28\nK = 40\n",             # a key given twice
    "pulse = custom\npulse_coeffs = 0:1:0;0:0.5:0\ngrid = 1,2\n",  # a harmonic given twice
    "pulse = rect\ngrid = auto\nomega_span = 0.7,inf\n",   # non-finite span factors
    "pulse = rect\ngrid = auto\nomega_span = -inf,1.3\n",
    "pulse = rect\ngrid = auto\nomega_span = 1,1e308\n",    # finite factors, an overflowing end
    "pulse = rect\ngrid = auto:5\nomega_span = 1.3,0.7\n",  # finite ends, the low one above the high one
    "pulse = rect\ngrid = 2,1\n",                           # decreasing grid
    "pulse = rect\ngrid = 1,1\n",                           # repeated grid value
    "pulse = custom\npulse_coeffs = 1:0.25:0.1;-1:0.25:0.1\ngrid = 1,2\n",  # partner not the conjugate
    # a partner one ulp off the conjugate: c_-1 = -0.25000000000000006 j
    "pulse = custom\npulse_coeffs = 0:0.5:0;1:0:0.25;-1:0:-0.25000000000000006\ngrid = 1,2\n",
])
def test_malformed_input_is_config_error(tmp_path, capsys, lines):
    path = _write(tmp_path, "bad.cfg", _setting(CHECK_OK + "trap_freq = 1.0e6\naxis = omega\n"
                                                "propagators = U2\n", lines))
    with pytest.raises(ConfigError):
        sweep_from_config(parse_config(path))
    assert cli.main(["sweep", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("line", ["= 5", " = ", "K 28"], ids=["no-key", "no-key-or-value", "no-equals"])
def test_line_that_is_no_key_value_pair_names_its_line(tmp_path, capsys, line):
    # a line with an empty key is named like one without "=", not as an unknown key ""
    path = _write(tmp_path, "bad.cfg", f"eta = 0.18\n{line}\nL = 25\n")
    assert cli.main(["check", path]) == 1
    assert capsys.readouterr().err == f"config error: {path}:2: expected key = value\n"


@pytest.mark.parametrize("propagators", ["Unum", "U2,U3,U4"])
@pytest.mark.parametrize("lines,key", [
    # used to exit 2 with an OverflowError (Unum) or the transfer pass's int64-key error
    pytest.param(f"K = {10 ** 400}\n", "K = ", id="K=10**400"),
    pytest.param(f"K = {2 ** 53 + 1}\n", "K = ", id="K=2**53+1"),  # the first integer a float does not hold
    pytest.param(f"L = {-2 ** 53 - 1}\n", "L = ", id="L=-2**53-1"),
    pytest.param("axis = K\ngrid = 28,1e300\n", "K grid values", id="K-grid=1e300"),
    pytest.param(f"axis = K\ngrid = 28,{2 ** 53 + 2}\n", "K grid values", id="K-grid=2**53+2"),
    # rounds onto 2**53 as a float, and used to run there
    pytest.param(f"axis = K\ngrid = 28,{2 ** 53 + 1}\n", "K grid values", id="K-grid=2**53+1"),
])
def test_integer_beyond_float_range_is_config_error(tmp_path, capsys, lines, key, propagators):
    # K and L enter the beat notes and the step count as floats, exact up to 2**53
    path = _write(tmp_path, "big.cfg", _setting(MINI_SWEEP, lines + f"propagators = {propagators}\n"))
    assert cli.main(["sweep", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {key}") and len(captured.err.splitlines()) == 1


def test_integers_up_to_two_to_the_53_are_parsed():
    assert [cli.CONFIG_KEYS["K"](str(v)) for v in (2 ** 53, -2 ** 53, 28)] == [2 ** 53, -2 ** 53, 28]


@pytest.mark.parametrize("grid, values", [
    ("10:106:13", list(range(10, 107, 8))),      # the fig3b and fig4b grid
    ("28.0,3e1, 31", [28, 30, 31]),
    ("28:40.5:1", [28]),                         # a one-point grid is its start
    (f"28,{2 ** 53}", [28, 2 ** 53]),
    (f"{2 ** 53 - 2}:{2 ** 53}:3", [2 ** 53 - 2, 2 ** 53 - 1, 2 ** 53]),
])
def test_k_grid_values_are_the_integers_written(tmp_path, grid, values):
    cfg = parse_config(_write(tmp_path, "k.cfg", f"axis = K\ngrid = {grid}\n"))
    assert cfg["grid"] == values and all(type(v) is int for v in cfg["grid"])


@pytest.mark.parametrize("grid", ["-inf:30:3", "20:nan:3"])
def test_non_finite_grid_end_is_config_error(tmp_path, capsys, grid):
    # linspace would turn the end into NaN points, which pass the increasing check
    path = _write(tmp_path, "bad.cfg", MINI_SWEEP.replace("28.0:32.0:5", grid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sweep", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command", ["sweep", "check", "budget", "propagate"])
@pytest.mark.parametrize("lines", [
    "safety = ten\n",
    "metric = foo\n",
    "propagator = U6\n",
    "grid = a,b\n",
    "trap_freq = 0\n",
    "omega_phys = 1e5\n",                  # no trap_freq to convert it
    "omega_phys = 1e5\ntrap_freq = 0\n",
    "pulse = custom\n",                    # no pulse_coeffs
    "grid = auto\n",                       # auto grid off the omega axis (axis = K)
    "omega_mode = fixed_phys\n",           # no omega_phys
    "omega_mode = fixed_T\n",              # no omega_T or omega_phys
    "omega_T = 20\nomega_phys = 1e5\ntrap_freq = 1e6\n",  # the drive given twice
    "pulse = custom\npulse_coeffs = 0:nan:0\n",  # non-finite coefficients
    "pulse = custom\npulse_coeffs = 0:inf:0\n",
    "K = 28\nK = 40\n",                    # a key given twice
    "pulse = custom\npulse_coeffs = 0:1:0;0:0.5:0\n",  # a harmonic given twice
    "omega_span = 0.7,inf\n",             # a non-finite span factor
    "pulse_coeffs = 0:0.5:0;1:-0.25:0;-1:-0.25:0\n",  # coefficients without pulse = custom
    "omega_span = 0.9,1.1\n",             # a span without grid = auto
    # K grid values beyond 2**53 (axis = K), also where a float rounds them onto it; with
    # the drive, which propagate needs before it reaches them
    "omega_T = 20\ngrid = 28,1e300\n",
    f"omega_T = 20\ngrid = 28,{2 ** 53 + 1}\n",
])
def test_every_subcommand_rejects_malformed_values(tmp_path, capsys, command, lines):
    path = _write(tmp_path, "bad.cfg", _setting(CHECK_OK + "axis = K\ngrid = 28\npropagators = U2\n", lines))
    assert cli.main([command, path]) == 1
    # the base config has no drive: the value itself, not the missing drive, must stop propagate
    err = capsys.readouterr().err
    assert "config error" in err and "propagate needs the drive" not in err


OUT_OK = CHECK_OK + "axis = omega\ngrid = 28\npropagators = U2\npropagator = U2\n"


@pytest.mark.parametrize("command", ["sweep", "check", "budget", "propagate"])
@pytest.mark.parametrize("target", ["directory", "missing-directory", "read-only-directory", "read-only-file"])
def test_unwritable_out_is_config_error(tmp_path, capsys, monkeypatch, command, target):
    # reported before any propagator is computed
    def compute(*args, **kwargs):
        raise AssertionError("computed before --out was checked")

    monkeypatch.setattr(cli, "run_sweep", compute)
    monkeypatch.setattr(cli, "_propagators", compute)
    path = _write(tmp_path, "ok.cfg", OUT_OK)
    out = {"directory": tmp_path, "missing-directory": tmp_path / "missing" / "x.txt",
           "read-only-directory": tmp_path / "x.txt", "read-only-file": tmp_path / "kept.txt"}[target]
    if target == "read-only-file":  # an existing file in a writable folder
        out.write_text("kept")
    denied = {"read-only-directory": tmp_path, "read-only-file": out}.get(target)
    if denied:  # root ignores permission bits, so os.access says it
        monkeypatch.setattr(cli.os, "access", lambda path, mode: pathlib.Path(path) != denied)
    assert cli.main([command, path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "missing").exists() and not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize("command", ["sweep", "check", "budget", "propagate"])
def test_writable_out_in_read_only_folder_is_written(tmp_path, monkeypatch, command):
    # /dev/null for a non-root user: the folder is not writable, the existing file is
    out = tmp_path / "x.txt"
    out.write_text("")
    monkeypatch.setattr(cli.os, "access", lambda path, mode: pathlib.Path(path) == out)
    config = OUT_OK + ("omega_T = 20\n" if command == "propagate" else "")  # propagate needs the drive
    assert cli.main([command, _write(tmp_path, "ok.cfg", config), "--out", str(out)]) == 0
    assert out.read_text()


def test_out_name_too_long_is_config_error(tmp_path, capsys):
    # its folder exists and is writable, so only the write itself can fail
    out = tmp_path / ("x" * 300)
    assert cli.main(["check", _write(tmp_path, "c.cfg", CHECK_OK), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}: ") and len(err.splitlines()) == 1


def test_out_of_memory_is_a_clean_error(tmp_path, capsys, monkeypatch):
    def run_sweep(spec):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    assert cli.main(["sweep", _write(tmp_path, "s.cfg", MINI_SWEEP)]) == 2
    assert capsys.readouterr().err == "error: MemoryError: Unable to allocate 74.5 GiB\n"


def test_config_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(CHECK_OK.encode() + b"# gr\xfc\xdfe\n")
    assert cli.main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {path}: ") and len(err.splitlines()) == 1


HUGE_PULSE = "pulse = custom\npulse_coeffs = 0:1e307:0\ngrid = 100,200\n"


@pytest.mark.parametrize("command, lines", [
    (["sweep"], HUGE_PULSE + "propagators = Unum\n"),           # omega_T g(tau) overflows
    (["sweep", "--workers", "2"], HUGE_PULSE + "propagators = Unum\n"),
    (["sweep"], HUGE_PULSE + "propagators = U2\n"),             # ... and so does P_2
    (["sweep"], "pulse = rect\ngrid = 1e300,1e306\npropagators = U2\n"),  # omega_T^2
    (["budget"], "omega_T = 1e300\n"),                         # the budget rows
    # finite throughout, but no step count resolves a drive of 1e307
    (["sweep"], "pulse = custom\npulse_coeffs = 0:1e307:0\ngrid = 1,2\npropagators = Unum\n"),
    # beat notes past int64, and past the int64 keys nu * 8 + p of the transfer pass
    *((["sweep"], f"pulse = custom\npulse_coeffs = 0:1:0;{M}:0.1:0;-{M}:0.1:0\n"
                  "propagators = U2\ngrid = 20,30\n") for M in ("100000000000000000000", "4000000000000000000")),
])
def test_overflowing_drive_is_a_clean_error(tmp_path, capfd, command, lines):
    # every config parses and validates; the failure comes from computing, on one line
    path = _write(tmp_path, "big.cfg", CHECK_OK + "trap_freq = 1.0e6\naxis = omega\n" + lines)
    assert cli.main(["check", path]) == 0
    capfd.readouterr()
    assert cli.main([command[0], path, *command[1:]]) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch, workers):
    sweeps = []
    monkeypatch.setattr(cli, "run_sweep", sweeps.append)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", _write(tmp_path, "s.cfg", MINI_SWEEP), "--workers", workers])
    assert exc.value.code == 2 and sweeps == []
    err = capsys.readouterr().err
    assert f"--workers: {workers} is not a positive worker count" in err and "Traceback" not in err


SHAPED = {"sin2": "pulse = sin2\n",
          "custom": "pulse = custom\npulse_coeffs = 0:0.5:0;1:-0.25:0.1;-1:-0.25:-0.1\n"}
FLAT_SETTINGS = {  # each reads a flat-pulse closed form
    "omega_mode = omega2": "axis = eta\ngrid = 0.1,0.2\nomega_mode = omega2\n",
    "omega_mode = omega4": "axis = K\ngrid = 28,40\nomega_mode = omega4\n",
    "omega_mode = omega2 (default)": "axis = nbar\ngrid = 0,0.1\n",
    "grid = auto": "axis = omega\ngrid = auto:3\n",
}


@pytest.mark.parametrize("pulse", sorted(SHAPED))
@pytest.mark.parametrize("setting", sorted(FLAT_SETTINGS))
def test_flat_pulse_amplitudes_reject_shaped_pulses(tmp_path, capsys, pulse, setting):
    path = _write(tmp_path, "s.cfg", CHECK_OK + "propagators = U2\n" + SHAPED[pulse] + FLAT_SETTINGS[setting])
    assert cli.main(["sweep", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert f"pulse = {pulse}" in err and setting.split(" (")[0] in err
    # the subcommands that do not read the setting still take the config
    assert cli.main(["check", path]) == 0
    # the same setting with the flat pulse is fine
    rect = _write(tmp_path, "r.cfg", CHECK_OK + "propagators = U2\npulse = rect\n" + FLAT_SETTINGS[setting])
    assert sweep_from_config(parse_config(rect)).pulse.name == "rect"


@pytest.mark.parametrize("pulse", sorted(SHAPED))
def test_budget_rejects_shaped_pulses(tmp_path, capsys, pulse):
    assert cli.main(["budget", _write(tmp_path, "b.cfg", CHECK_OK + SHAPED[pulse])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: msgate budget") and f"pulse = {pulse}" in err


def test_flat_pulse_with_zero_harmonics_is_the_flat_pulse(tmp_path, capsys):
    # support (0,) and c_0 = 1: the closed forms hold, and the output is that of pulse = rect
    sweep = "axis = eta\ngrid = 0.1,0.2\nomega_mode = omega2\npropagators = U2,U4,Unum\n"
    outs = []
    for pulse in ("pulse = custom\npulse_coeffs = 0:1:0;1:0:0;-1:0:0\n", "pulse = rect\n"):
        assert cli.main(["sweep", _write(tmp_path, "s.cfg", CHECK_OK + pulse + sweep)]) == 0
        assert cli.main(["budget", _write(tmp_path, "b.cfg", CHECK_OK + pulse + "omega_T = 30.5\n")]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].count(",ok\n") == 2


def test_omega_span_sets_the_auto_grid_ends(tmp_path):
    path = _write(tmp_path, "s.cfg", CHECK_OK + "pulse = rect\naxis = omega\ngrid = auto:3\nomega_span = 0.8,1.2\n")
    spec = sweep_from_config(parse_config(path))
    amps = budget.amplitude_set(spec.fixed)
    assert len(spec.grid) == 3
    assert spec.grid[0] == 0.8 * amps.omega_4 and spec.grid[-1] == 1.2 * amps.omega_2


def test_bell_metric_fills_the_infid_cells(tmp_path):
    def rows(metric):
        path = _write(tmp_path, "s.cfg", MINI_SWEEP.replace("metric = average", f"metric = {metric}"))
        return run_sweep(sweep_from_config(parse_config(path)))

    for bell, both in zip(rows("bell"), rows("both"), strict=True):
        assert {k: v for k, v in bell.items() if k.startswith("infid_")} == {
            k.replace("bell_", "infid_"): v for k, v in both.items() if k.startswith("bell_")}


@pytest.mark.parametrize("lines, statuses", [
    ("axis = eta\ngrid = 0,0.1\n", ["skip:eta range", "ok"]),
    ("axis = eta\ngrid = 0.1,1.5\n", ["ok", "skip:eta range"]),
    ("axis = eta\nomega_mode = omega4\ngrid = 0.05,0.2\n", ["skip:omega_T sign", "ok"]),
    ("axis = eta\nomega_mode = omega2\ngrid = 0.2,0.99\n", ["ok", "skip:omega_T sign"]),
    # the pole of omega_2 at K = 28, L = 25: eta^2 = (4K^2 - L^2)/(5K^2 - 2L^2)
    ("axis = eta\nomega_mode = omega2\ngrid = 0.2,0.9697677238402231\n", ["ok", "skip:omega_T sign"]),
])
def test_points_without_real_amplitude_give_skip_rows(tmp_path, lines, statuses):
    path = _write(tmp_path, "s.cfg", CHECK_OK + "pulse = rect\npropagators = U2\n" + lines)
    assert [r["status"] for r in run_sweep(sweep_from_config(parse_config(path)))] == statuses


def test_K_equal_2L_squared_is_a_valid_point(tmp_path, capsys):
    # K = 18, L = 3: the printed Z4_m1_Jxy Omega_4 cell divides by K^2 - 4L^4 = 0, and
    # Omega_4 is not real there; a K-axis sweep at K - L = 15 reaches it
    path = _write(tmp_path, "k.cfg", "eta = 0.18\nK = 28\nL = 13\npulse = rect\naxis = K\n"
                                     "grid = 18\nomega_mode = omega2\npropagators = U2\n")
    out = tmp_path / "k.csv"
    assert cli.main(["sweep", path, "--out", str(out)]) == 0
    row = dict(zip(*[line.split(",") for line in out.read_text().splitlines()]))
    assert row["status"] == "ok" and row["omega_4"] == "nan"
    assert cli.main(["budget", _write(tmp_path, "b.cfg", "eta = 0.18\nK = 18\nL = 3\n")]) == 0
    assert "omega_4*T  = nan" in capsys.readouterr().out


def test_main_budget_without_real_omega_2(tmp_path, capsys):
    # num/den < 0, and den = 0 at the pole eta^2 = (4K^2 - L^2)/(5K^2 - 2L^2)
    for eta in ("0.99", "0.9697677238402231"):
        assert cli.main(["budget", _write(tmp_path, "b.cfg", CHECK_OK.replace("eta = 0.18", f"eta = {eta}"))]) == 0
        assert "omega_2*T  = nan" in capsys.readouterr().out


GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("K, L, eta, omega_T", [(28, 25, 0.18, 30.5), (100, 97, 0.1, 54.5),
                                                (28, 25, 0.05, 20)])  # the last has no real Omega_4
def test_budget_csv_matches_golden(tmp_path, capsys, K, L, eta, omega_T):
    """The table byte for byte; and, read as numbers, label and operator exact and numbers
    within 1e-9 relative + 1e-12, NaN only where the golden table, captured before the
    table became one definition, has NaN."""
    path = _write(tmp_path, "b.cfg", f"K = {K}\nL = {L}\neta = {eta}\nomega_T = {omega_T}\n")
    assert cli.main(["budget", path, "--csv"]) == 0
    out, golden = capsys.readouterr().out, (GOLDEN_DIR / f"budget_{K}_{L}_{eta}_{omega_T}.csv").read_text()
    assert out == golden
    got = [line.split(",") for line in out.splitlines()]
    want = [line.split(",") for line in golden.splitlines()]
    assert got[0] == want[0] and len(got) == len(want)
    for g_row, w_row in zip(got[1:], want[1:]):
        assert g_row[:2] == w_row[:2]
        for col, g, w in zip(want[0][2:], g_row[2:], w_row[2:]):
            assert float(g) == pytest.approx(float(w), rel=1e-9, abs=1e-12, nan_ok=True), (w_row[0], col)


def test_readme_names_resolve():
    # every backticked module.name (or msgate.module.name) in the README is an attribute of that module
    import re

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = "params|pulses|hilbert|resint|magnus|trotter|fidelity|budget|cli"
    refs = {m.groups() for span in re.findall(r"`([^`]*)`", readme)
            if (m := re.match(rf"(?:msgate\.)?({modules})\.(\w+)", span))}
    assert len(refs) >= 10  # the scan sees the references
    assert sorted(f"{module}.{name}" for module, name in refs
                  if not hasattr(importlib.import_module(f"msgate.{module}"), name)) == []


def test_readme_documents_every_config_key():
    import re

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", section))))
    assert sorted(set(cli.CONFIG_KEYS) - documented) == []


def test_unum_csv_identical_across_runs_and_workers(tmp_path):
    spec = sweep_from_config(parse_config(_write(
        tmp_path, "s.cfg", MINI_SWEEP.replace("28.0:32.0:5", "28.0:32.0:3"))))
    spec.propagators = ("Unum",)
    serial = rows_to_csv(run_sweep(spec))
    assert rows_to_csv(run_sweep(spec)) == serial
    spec.workers = 2
    assert rows_to_csv(run_sweep(spec)) == serial
    rows = [dict(zip(serial.splitlines()[0].split(","), line.split(",")))
            for line in serial.splitlines()[1:]]
    assert len(rows) == 3
    assert all(r["status"] == "ok" and float(r["infid_Unum"]) > 0 for r in rows)


# A valid config for every subcommand: two omega points, n_dim <= 8, one worker
FUZZ_BASE = {
    "eta": "0.18", "K": "28", "L": "25", "nbar": "0.02", "n_dim": "6", "m_max": "2",
    "k_max": "4", "trap_freq": "1.0e6", "omega_T": "30", "pulse": "rect", "axis": "omega",
    "grid": "28,32", "propagators": "U2,U4,Unum", "metric": "average", "propagator": "Unum",
}
# per key, values a user might write, valid or not; None drops the key
FUZZ_VALUES = {
    "eta": ["0.05", "0.35", "0", "-0.1", "1", "nan", "inf", "1e-300", "x", None],
    "K": ["25", "50", "2", "0", "-28", "28.5", "1e3", None],
    "L": ["7", "14", "24", "28", "0", "-1", None],
    "omega_T": ["0", "50", "1e3", "-1", "nan", "inf", "1e300", None],
    "nbar": ["0", "1", "-0.1", "nan", "inf"],
    "n_dim": ["1", "3", "8", "0", "-2", "x"],
    "m_max": ["0", "1", "3", "7", "-1"],
    "k_max": ["2", "3", "5", "6", "0", "1000000000"],
    "trap_freq": ["2e6", "0", "-1", "nan", None],
    "pulse": ["sin2", "custom", "square"],
    "pulse_coeffs": ["0:1:0", "0:0.5:0;1:-0.25:0;-1:-0.25:0", "1:0.5:0", "0:0:0", "0:1e307:0",
                     "0:1:0;0:1:0", "x"],
    "axis": ["K", "eta", "nbar", "time"],
    "grid": ["25,50", "0.05,0.3", "32,28", "auto:2", "auto:0", "1,nan", "-inf:30:2", "28:32:2", ""],
    "omega_span": ["0.7,1.3", "1,nan", "2"],
    "propagators": ["U2", "U3,U5", "Unum", "U7", ""],
    "metric": ["bell", "both", "worst"],
    "omega_mode": ["omega4", "fixed_T", "fixed_phys", "auto"],
    "omega_phys": ["1e5", "-1", "nan"],
    "safety": ["0.5", "20", "0", "ten"],
    "propagator": ["U2", "U5", "U9"],
}


@pytest.mark.filterwarnings("error")
def test_perturbed_configs_keep_the_input_contract(tmp_path, capsys):
    # a seeded property test: the valid base with one to three keys perturbed, through every
    # subcommand, exits 0, 1 or 2 with at most one stderr line, and an ok row is finite
    rng = random.Random(20261019)
    path = tmp_path / "fuzz.cfg"
    for case in range(100):
        cfg = dict(FUZZ_BASE)
        for key in rng.sample(sorted(FUZZ_VALUES), rng.randint(1, 3)):
            value = rng.choice(FUZZ_VALUES[key])
            if value is None:
                cfg.pop(key, None)
            else:
                cfg[key] = value
        text = "".join(f"{key} = {value}\n" for key, value in cfg.items())
        path.write_text(text)
        for command in ("sweep", "check", "budget", "propagate"):
            code = cli.main([command, str(path)])
            out, err = capsys.readouterr()
            where = f"case {case}, msgate {command} on\n{text}stderr: {err}"
            assert code in (0, 1, 2) and len(err.splitlines()) <= 1, where
            if command == "sweep" and code == 0:
                header, *rows = (line.split(",") for line in out.splitlines())
                for row in rows:
                    if row[-1] == "ok":
                        assert all(math.isfinite(float(cell)) for cell in row[:-1] if cell), where
