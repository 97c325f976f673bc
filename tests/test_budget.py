import math

import numpy as np
import pytest

from msgate import budget, cli, hilbert, magnus
from msgate.budget import (
    CONSISTENT_ROWS,
    amplitude_set,
    combined_dy,
    omega_2,
    omega_4,
    omega_ld,
    table_rows,
)
from msgate.params import GateParams, validate
from msgate.pulses import PulseShape, rectangular, sin_squared
from oracles import budget_at_o4_decimal, calibrate_omega, sin2_forms

JY2 = hilbert.JY2 - np.eye(4) / 2  # sigma_y (x) sigma_y / 2
LABELS = ("Gate", "Z2_m1", "Z2_m2", "Z3_m1", "Z3_m2", "Z4_m1_Jxy", "Z4_m1_Jz2", "Z4_m1_Jy2")


def rows_at(p, W, n=0):
    """The budget rows by label, with the generic column at drive strength W."""
    return {r.label: r for r in table_rows(p.replace(omega_T=W), n)}


def test_omega_ld_value(base_params):
    want = math.pi * math.sqrt(159) / (0.18 * math.sqrt(56))
    assert omega_ld(base_params) == pytest.approx(want)
    assert omega_ld(base_params) == pytest.approx(29.409112, rel=1e-6)


def test_omega_ld_eta_scaling(base_params):
    assert omega_ld(base_params.replace(eta=0.36)) == pytest.approx(
        omega_ld(base_params) / 2)


def test_omega_ld_rotation(base_params, rect):
    # the assembled Jy^2 angle at omega_LD is -pi/2 up to eta^2 corrections
    p = base_params.replace(omega_T=omega_ld(base_params))
    Z2 = magnus.magnus_terms(p, rect, up_to=2)[2]
    dy = magnus.level_coeff(Z2, p.n_dim, 0, 0, JY2).real
    assert dy == pytest.approx(-math.pi / 2, rel=0.05)


def test_omega_2_reduces_to_omega_ld_at_small_eta():
    p = GateParams(eta=1e-7, K=28, L=25)
    assert omega_2(p) == pytest.approx(omega_ld(p), rel=1e-10)


def test_omega_2_above_omega_ld(base_params):
    assert omega_2(base_params) > omega_ld(base_params)


def test_omega_4_root_property(base_params):
    w4 = omega_4(base_params)
    assert abs(combined_dy(base_params, w4) + math.pi / 2) < 1e-10
    assert combined_dy(base_params, w4) == pytest.approx(-math.pi / 2, abs=1e-10)


@pytest.mark.parametrize("K, L, eta", [(28, 25, 0.18), (100, 97, 0.1), (50, 46, 0.3)])
def test_combined_dy_is_the_docstring_quadratic(K, L, eta):
    # the sum of the three Jy^2 rows at n = 0 is the printed d_y, which is -pi/2 at omega_4
    p = GateParams(eta=eta, K=K, L=L)
    KK, LL = K * K, L * L
    for W in (omega_ld(p), omega_4(p), 3.7):
        want = (-W ** 2 * K * eta ** 2 * (1 - eta ** 2) / (math.pi * (KK - LL))
                + W ** 4 * K * eta ** 2 / (4 * math.pi ** 3 * LL * (KK - LL)))
        assert combined_dy(p, W) == pytest.approx(want, rel=1e-14)
    assert combined_dy(p, omega_4(p)) == pytest.approx(-math.pi / 2, rel=1e-12)


def test_omega_4_invalid_when_discriminant_negative():
    p = GateParams(eta=0.02, K=28, L=25)  # s^2 < K^2 - L^2
    assert math.isnan(omega_4(p))
    amps = amplitude_set(p)
    assert math.isnan(amps.omega_4)
    assert math.isnan(combined_dy(p, amps.omega_4) + math.pi / 2)
    assert amps.omega_ld < amps.omega_2  # the other amplitudes stay real
    for row in table_rows(p.replace(omega_T=3.7), 1):  # and so do all but the Omega_4 column
        assert math.isnan(row.at_o4) and math.isfinite(row.generic) and math.isfinite(row.at_ld), row.label


@pytest.mark.parametrize("eta", [0.05, 0.18, 0.3])
@pytest.mark.parametrize("K", [28, 40, 10 ** 4, 10 ** 6, 10 ** 9, 10 ** 12, 2 ** 53])
def test_omega_4_column_keeps_its_digits_at_large_K(K, eta):
    # s^2 lies far above K^2 - L^2 at large K: s - sqrt(s^2 - (K^2 - L^2)) and the two
    # Z4 cells that subtract near-equal terms would lose their digits (Omega_4 read 0 at
    # K = 10^12, eta = 0.18)
    p = GateParams(eta=eta, K=K, L=K - 3)
    for n in (0, 2):
        want_w4, want = budget_at_o4_decimal(K, K - 3, eta, n)
        rows = table_rows(p, n)
        if math.isnan(want_w4):
            assert K == 28 and eta == 0.05  # the one point of the grid without a real Omega_4
            assert math.isnan(omega_4(p)) and all(math.isnan(r.at_o4) for r in rows)
            continue
        assert omega_4(p) == pytest.approx(want_w4, rel=1e-14, abs=0)
        for r in rows:
            assert r.at_o4 == pytest.approx(want[r.label], rel=1e-14, abs=0), (r.label, n)


def test_budget_at_K_equal_2L_squared():
    # K^2 - 4L^4 = 0 in the printed Z4_m1_Jxy Omega_4 cell; validate accepts the point
    # (jK = lL needs l = 6 > k_max) and Omega_4 is not real there
    p = GateParams(eta=0.18, K=18, L=3, omega_T=20.0)
    assert validate(p, rectangular()) == ()
    amps = amplitude_set(p)
    assert math.isnan(amps.omega_4) and math.isnan(combined_dy(p, amps.omega_4) + math.pi / 2)
    assert math.isfinite(amps.omega_2)
    for row in table_rows(p):
        assert math.isnan(row.at_o4) and math.isfinite(row.generic) and math.isfinite(row.at_ld), row.label


def test_amplitude_set(base_params):
    amps = amplitude_set(base_params)
    assert amps.omega_4 == omega_4(base_params)
    assert amps.omega_ld < amps.omega_2 < amps.omega_4
    assert abs(combined_dy(base_params, amps.omega_4) + math.pi / 2) < 1e-10
    assert budget.s_parameter(base_params) == pytest.approx(math.sqrt(56) * 25 * 0.18 * (1 - 0.18 ** 2))


def test_amplitude_set_builds_no_budget_table(base_params, monkeypatch):
    # the three closed forms alone: the pi/2 residual is computed where msgate budget prints it
    want = amplitude_set(base_params)

    def table_rows(*args, **kwargs):
        raise AssertionError("amplitude_set built the budget table")

    monkeypatch.setattr(budget, "table_rows", table_rows)
    assert amplitude_set(base_params) == want


def test_gate_row_at_ld_is_pi_half(base_params):
    assert rows_at(base_params, 0.0)["Gate"].at_ld == -math.pi / 2


def test_z2_m1_row_at_ld(base_params):
    # pi * eta^2 / 2 at n = 0
    assert rows_at(base_params, 0.0, 0)["Z2_m1"].at_ld == pytest.approx(0.050893800988155)


def test_column_consistency():
    """Substituting the calibrated amplitudes into the generic column must
    reproduce the printed closed-form columns, for the rows where the
    printed table is internally consistent."""
    p = GateParams(eta=0.18, K=28, L=25)
    w_ld, w_4 = omega_ld(p), omega_4(p)
    for label in CONSISTENT_ROWS:
        for n in (0, 1):
            at_ld, at_4 = rows_at(p, w_ld, n)[label], rows_at(p, w_4, n)[label]
            assert at_ld.generic == pytest.approx(at_ld.at_ld, rel=1e-9), (label, "LD", n)
            assert at_4.generic == pytest.approx(at_4.at_o4, rel=1e-9), (label, "O4", n)


def test_known_inconsistent_row_is_transcribed_not_fixed():
    # the Z3 second-sideband closed-form columns disagree with direct
    # substitution (sign at omega_4, magnitude at omega_LD); both are
    # deliberately kept as printed
    p = GateParams(eta=0.18, K=28, L=25)
    row = rows_at(p, omega_4(p))["Z3_m2"]
    sub, printed = row.generic, row.at_o4
    assert printed == pytest.approx(-sub, rel=1e-9)


@pytest.mark.parametrize("K, L, eta", [(28, 25, 0.18), (100, 97, 0.1), (50, 46, 0.3)])
def test_z4_jxy_row_is_exact_at_ld_and_transcribed_at_o4(K, L, eta):
    # the Omega_LD column equals substitution; the Omega_4 column does once its
    # transcribed last denominator factor K^2 - 4L^4 is put back to K^2 - 4L^2
    p = GateParams(eta=eta, K=K, L=L)
    for n in (0, 1):
        at_ld, at_4 = rows_at(p, omega_ld(p), n)["Z4_m1_Jxy"], rows_at(p, omega_4(p), n)["Z4_m1_Jxy"]
        assert at_ld.generic == pytest.approx(at_ld.at_ld, rel=1e-9)
        printed = at_4.at_o4 * (K * K - 4 * L ** 4) / (K * K - 4 * L * L)
        assert at_4.generic == pytest.approx(printed, rel=1e-9)
    assert "Z4_m1_Jxy" not in CONSISTENT_ROWS


def test_table_rows_structure(base_params, tmp_path, capsys):
    p = base_params.replace(omega_T=omega_2(base_params))
    rows = table_rows(p)
    assert tuple(r.label for r in rows) == LABELS
    assert rows[0].operator_tag == "Jy^2"
    # msgate budget --csv writes the rows, one line each, in the header's column order
    cfg = tmp_path / "budget.cfg"
    cfg.write_text("".join(f"{key} = {value!r}\n" for key, value in vars(p).items()))
    assert cli.main(["budget", "--csv", str(cfg)]) == 0
    csv = capsys.readouterr().out
    assert csv.splitlines()[0] == "label,operator,generic,at_LD,at_O4"
    assert len(csv.splitlines()) == 9
    for line, r in zip(csv.splitlines()[1:], rows):
        label, op, *numbers = line.split(",")
        assert (label, op) == (r.label, r.operator_tag)
        assert np.allclose([float(x) for x in numbers], [r.generic, r.at_ld, r.at_o4], rtol=1e-11, atol=0)


def test_zero_drive_zeroes_generic_rows(base_params):
    for label in LABELS:
        assert rows_at(base_params, 0.0)[label].generic == 0.0


def test_sin2_polynomial_values():
    p = GateParams(eta=0.18, K=28, L=25)
    f = sin2_forms(p)
    assert f.p_y == 52695  # 3*159^2 - 4*(5*784 + 3*625 - 8)
    assert f.q_y == 8 * 159 * 5 * 2805
    assert f.q_y > 0  # all three factors positive here
    assert f.p_3 == (784 + 3 * 625 - 4) * f.p_y
    assert f.omega_ld > omega_ld(p)


def test_sin2_z2_matches_assembly_at_wide_gap():
    """The printed sin^2 polynomials track the assembled second order to 10%
    once the harmonic offsets are small against the beat-note gap (K - L
    large); at K - L = 3 the offset bookkeeping costs ~20%."""
    p = GateParams(eta=0.05, K=100, L=90, omega_T=1.0)
    zy = sin2_forms(p).z2_y
    Z2 = magnus.magnus_terms(p, sin_squared(), up_to=2)[2]
    got = magnus.level_coeff(Z2, p.n_dim, 0, 0, JY2).real
    # printed composite carries the opposite overall sign convention
    assert abs(got) / abs(zy) == pytest.approx(1.0, abs=0.1)
    assert got < 0 < zy


# sin^2(2 pi tau): two lobes in the gate, harmonics 0 and +/-2
TWO_LOBE = PulseShape.from_dict("two-lobe", {0: 0.5, 2: -0.25, -2: -0.25})


def test_printed_sin2_z2_form_is_the_two_lobe_pulse():
    """The printed sin^2 Z2 form, without its (1 - eta^2) factor, is the leading Jy^2
    coefficient of Z_2 at level 0 for the two-lobe pulse (with the opposite overall sign,
    as above), not for msgate's sin^2(pi tau)."""
    def ratio(pulse, K, L):
        p = GateParams(eta=1e-3, K=K, L=L, omega_T=1.0)
        got = magnus.level_coeff(magnus.magnus_terms(p, pulse, up_to=2)[2], p.n_dim, 0, 0, JY2).real
        return got / (sin2_forms(p).z2_y / (1 - p.eta ** 2))

    for K, L in ((28, 25), (100, 97), (41, 7), (50, 13)):
        assert ratio(TWO_LOBE, K, L) == pytest.approx(-1.0, rel=1e-5)
    # msgate's sin^2 has the harmonics +/-1: more than 10% off at K - L = 3
    assert ratio(sin_squared(), 28, 25) == pytest.approx(-0.830, abs=1e-3)
    assert abs(ratio(sin_squared(), 100, 97) + 1) > 0.1


def test_printed_sin2_z3_form_is_a_quarter_of_the_two_lobe_pulse():
    """The printed sin^2 Z3 form is 1/4 of the two-lobe pulse's Jy coefficient of Z_3 on
    <1|.|0> with the carrier and first sideband (m_max = 1): the ratio reads 4 (measured
    3.99993-3.99994 at eta = 3e-3, where eta^2 corrections remain)."""
    Jy = hilbert.JY
    for K, L in ((28, 25), (100, 97), (41, 7), (50, 13)):
        p = GateParams(eta=3e-3, K=K, L=L, omega_T=1.0, n_dim=6, m_max=1)
        got = magnus.level_coeff(magnus.magnus_terms(p, TWO_LOBE, up_to=3)[3], p.n_dim, 1, 0, Jy)
        assert got / sin2_forms(p).z3 == pytest.approx(4.0, rel=1e-4), (K, L)


def test_msgate_sin2_z2_closed_form():
    """The leading Jy^2 coefficient of Z_2 at level 0 for msgate's sin^2(pi tau) is the
    printed form with offset 1 in place of 2:
    -K (3(K^2 - L^2)^2 - 5K^2 - 3L^2 + 2) / (8 pi (K^2 - L^2)(K^2 - (L+1)^2)(K^2 - (L-1)^2)) eta^2.
    Order 2 is also the lowest plan whose top order is pruned."""
    for K, L in ((28, 25), (100, 97), (41, 7), (50, 13), (33, 20), (60, 51)):
        p = GateParams(eta=1e-3, K=K, L=L, omega_T=1.0)
        got = magnus.level_coeff(magnus.magnus_terms(p, sin_squared(), up_to=2)[2], p.n_dim, 0, 0, JY2).real
        d = K ** 2 - L ** 2
        form = (-K * (3 * d ** 2 - 5 * K ** 2 - 3 * L ** 2 + 2)
                / (8 * math.pi * d * (K ** 2 - (L + 1) ** 2) * (K ** 2 - (L - 1) ** 2)) * p.eta ** 2)
        assert got == pytest.approx(form, rel=1e-5), (K, L)


def test_sin2_z3_matches_assembly_at_wide_gap():
    p = GateParams(eta=0.05, K=100, L=90, omega_T=10.0)
    Z3 = magnus.magnus_terms(p, sin_squared(), up_to=3)[3]
    got = magnus.level_coeff(Z3, p.n_dim, 1, 0, hilbert.JY).real
    printed = sin2_forms(p).z3
    assert abs(got) / abs(printed) == pytest.approx(1.0, abs=0.1)


def test_calibrate_omega_finds_fourth_order_optimum(base_params, rect):
    w = calibrate_omega(base_params, rect, bracket=(25.0, 36.0), tol=5e-3)
    assert w == pytest.approx(omega_4(base_params), abs=0.3)
