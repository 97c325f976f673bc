import math

import numpy as np
import pytest

from msgate import budget, hilbert, magnus
from msgate.budget import (
    CONSISTENT_ROWS,
    amplitude_set,
    combined_dy,
    omega_2,
    omega_4,
    omega_ld,
    rows_to_csv,
    table_rows,
)
from msgate.params import GateParams, validate
from msgate.pulses import PulseShape, sin_squared
from oracles import calibrate_omega, sin2_forms

JY2 = hilbert.collective_spins().Jy2 - np.eye(4) / 2  # sigma_y (x) sigma_y / 2
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


def test_omega_4_fixed_s_scaling(base_params):
    # at fixed s the closed form scales exactly as eta^(-1/2)
    s = budget.s_parameter(base_params)
    a = omega_4(base_params.replace(eta=0.1), s=s)
    b = omega_4(base_params.replace(eta=0.4), s=s)
    assert b / a == pytest.approx(0.5, rel=1e-12)


def test_omega_4_invalid_when_discriminant_negative():
    p = GateParams(eta=0.02, K=28, L=25)  # s^2 < K^2 - L^2
    assert math.isnan(omega_4(p))
    amps = amplitude_set(p)
    assert math.isnan(amps.omega_4)
    assert math.isnan(combined_dy(p, amps.omega_4) + math.pi / 2)
    assert amps.omega_ld < amps.omega_2  # the other amplitudes stay real
    for row in table_rows(p.replace(omega_T=3.7), 1):  # and so do all but the Omega_4 column
        assert math.isnan(row.at_o4) and math.isfinite(row.generic) and math.isfinite(row.at_ld), row.label


def test_budget_at_K_equal_2L_squared():
    # K^2 - 4L^4 = 0 in the printed Z4_m1_Jxy Omega_4 cell; validate accepts the point
    # (jK = lL needs l = 6 > k_max) and Omega_4 is not real there
    p = GateParams(eta=0.18, K=18, L=3, omega_T=20.0)
    assert validate(p).ok
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


def test_table_rows_structure(base_params):
    rows = table_rows(base_params.replace(omega_T=omega_2(base_params)))
    assert tuple(r.label for r in rows) == LABELS
    assert rows[0].operator_tag == "Jy^2"
    csv = rows_to_csv(rows)
    assert csv.splitlines()[0] == "label,operator,generic,at_LD,at_O4"
    assert len(csv.splitlines()) == 9


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


def test_sin2_z3_matches_assembly_at_wide_gap():
    p = GateParams(eta=0.05, K=100, L=90, omega_T=10.0)
    Z3 = magnus.magnus_terms(p, sin_squared(), up_to=3)[3]
    got = magnus.level_coeff(Z3, p.n_dim, 1, 0, hilbert.collective_spins().Jy).real
    printed = sin2_forms(p).z3
    assert abs(got) / abs(printed) == pytest.approx(1.0, abs=0.1)


def test_calibrate_omega_finds_fourth_order_optimum(base_params, rect):
    w = calibrate_omega(base_params, rect, bracket=(25.0, 36.0), tol=5e-3)
    assert w == pytest.approx(omega_4(base_params), abs=0.3)
