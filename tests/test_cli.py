import numpy as np
import pytest

from msgate import cli
from msgate.cli import (
    ConfigError,
    params_from_config,
    parse_config,
    pulse_from_config,
    rows_to_csv,
    run_sweep,
    sweep_from_config,
)

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
    assert pulse_from_config({"pulse": "rect"}).name == "rect"
    assert pulse_from_config({"pulse": "sin2"}).name == "sin2"
    custom = pulse_from_config({"pulse": "custom",
                                "pulse_coeffs": "0:0.5:0;1:-0.25:0;-1:-0.25:0"})
    assert custom.max_harmonic == 1
    with pytest.raises(ConfigError):
        pulse_from_config({"pulse": "triangle"})


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


def test_parallel_and_serial_agree(tmp_path):
    spec = sweep_from_config(parse_config(_write(tmp_path, "s.cfg", MINI_SWEEP)))
    spec.propagators = ("U2",)
    serial = rows_to_csv(run_sweep(spec))
    spec.workers = 2
    parallel = rows_to_csv(run_sweep(spec))
    assert serial == parallel


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
    import pathlib

    cfg_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
    names = sorted(p.name for p in cfg_dir.glob("fig*.cfg"))
    assert names == ["fig2.cfg", "fig3a.cfg", "fig3b.cfg", "fig3c.cfg",
                     "fig4a.cfg", "fig4b.cfg", "fig4c.cfg"]
    for name in names:
        spec = sweep_from_config(parse_config(str(cfg_dir / name)))
        assert spec.grid


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
])
def test_malformed_input_is_config_error(tmp_path, capsys, lines):
    path = _write(tmp_path, "bad.cfg", CHECK_OK + "trap_freq = 1.0e6\naxis = omega\n"
                  "propagators = U2\n" + lines)
    with pytest.raises(ConfigError):
        sweep_from_config(parse_config(path))
    assert cli.main(["sweep", path]) == 1
    assert "config error" in capsys.readouterr().err


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
