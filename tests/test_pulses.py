import numpy as np
import pytest
from hypothesis import given, strategies as st

from msgate.pulses import (
    PulseShape,
    envelope_at,
    rectangular,
    sin_squared,
)


def test_rectangular_envelope():
    rect = rectangular()
    for tau in (0.0, 0.3, 0.77, 1.0):
        assert envelope_at(rect, tau) == pytest.approx(1.0)
    assert rect.support == (0,)


def test_sin2_envelope_values():
    s2 = sin_squared()
    assert envelope_at(s2, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert envelope_at(s2, 0.5) == pytest.approx(1.0)
    assert envelope_at(s2, 0.25) == pytest.approx(0.5)
    assert s2.support == (-1, 0, 1)


def test_sin2_matches_closed_form():
    s2 = sin_squared()
    taus = np.linspace(0, 1, 17)
    for tau in taus:
        assert envelope_at(s2, tau) == pytest.approx(np.sin(np.pi * tau) ** 2, abs=1e-14)


def test_sin2_mean_is_half():
    # c_0 check: the envelope integrates to 1/2 over one window
    s2 = sin_squared()
    taus = np.linspace(0, 1, 20001)
    mean = np.trapezoid([envelope_at(s2, t) for t in taus], taus)
    assert mean == pytest.approx(0.5, abs=1e-8)
    assert s2.c(0) == pytest.approx(0.5)


def _coefficients(shape):
    return {M: shape.c(M) for M in shape.support}


@pytest.mark.parametrize("coeffs", [
    {0: 1.0},                                # rect
    {0: 0.5, 1: -0.25, -1: -0.25},           # sin^2
    {0: 0.5, 1: 0.25j, -1: -0.25j},          # skew: complex taps
    {0: 0.5, 2: -0.25, -2: -0.25},           # two lobes
    {0: 0.5, 5: 0.25, -5: 0.25},             # period 5
    {0: 0.5, 5: 0.25j, -5: -0.25j},          # skew, period 5
])
def test_real_drives_keep_their_coefficients(coeffs):
    for shape in (PulseShape.from_dict("real", coeffs), PulseShape("real", tuple(coeffs.items()))):
        assert _coefficients(shape) == coeffs and shape.support == tuple(sorted(coeffs))
    assert _coefficients(rectangular()) == {0: 1}
    assert _coefficients(sin_squared()) == {0: 0.5, 1: -0.25, -1: -0.25}


NON_FINITE = [complex(np.nan, 0), complex(np.inf, 0), complex(0.5, np.nan)]


@pytest.mark.parametrize("coeffs, match", [
    ({0: 0.5, 1: -0.25}, "fails at M = 1"),                                  # missing partner
    ({1: 0.25j, -1: 0.25j}, "fails at M = 1"),                               # asymmetric partner
    # one ulp off the mirror: a weight derived as the mirror's conjugate would not be exact
    ({0: 0.5, 1: 0.25j, -1: -1j * np.nextafter(0.25, 1.0)}, "fails at M = 1"),
    ({1: 0.5}, "fails at M = 1"),        # a lone c_1 is exp(i 2 pi tau), i at tau = 1/4
    ({1: 1}, "fails at M = 1"),
    ({0: 0.5 + 0.1j}, "fails at M = 0"),                                     # complex c_0
    ({0: 0}, "no nonzero coefficient"),
    *(({0: c}, "must be finite") for c in NON_FINITE),
    *(({1: c, -1: c}, "must be finite") for c in NON_FINITE),
], ids=["missing-partner", "asymmetric", "one-ulp-mirror", "lone-c1", "lone-unit-c1", "complex-c0", "empty",
        "nan", "inf", "nan-imag", "nan-pair", "inf-pair", "nan-imag-pair"])
def test_construction_rejects_a_drive_that_is_not_real(coeffs, match):
    with pytest.raises(ValueError, match=match):
        PulseShape.from_dict("bad", coeffs)
    with pytest.raises(ValueError, match=match):
        PulseShape("bad", tuple(coeffs.items()))


finite = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)


@given(st.dictionaries(st.integers(1, 4), st.one_of(st.just(0j), finite), max_size=4),
       st.one_of(st.just(0.0), st.floats(-2, 2)),
       st.dictionaries(st.integers(-4, 4), st.one_of(st.just(0j), finite), max_size=2),
       st.floats(0, 1))
def test_a_finite_map_is_accepted_iff_conjugate_symmetric(half, c0, edits, tau):
    # a conjugate-symmetric map, then a few entries overwritten, which mostly breaks it
    coeffs = {0: complex(c0)}
    for M, c in half.items():
        coeffs[M], coeffs[-M] = c, c.conjugate()
    coeffs.update(edits)
    nonzero = {M: c for M, c in coeffs.items() if c != 0}
    if not nonzero or any(nonzero.get(-M, 0) != c.conjugate() for M, c in nonzero.items()):
        with pytest.raises(ValueError):
            PulseShape.from_dict("random", coeffs)
        return
    shape = PulseShape.from_dict("random", coeffs)
    assert _coefficients(shape) == nonzero  # zero entries are dropped
    f = sum(c * np.exp(2j * np.pi * M * tau) for M, c in nonzero.items())
    assert abs(f.imag) <= 1e-14 * max(1.0, abs(f))
    assert envelope_at(shape, tau) == pytest.approx(f.real, rel=1e-14, abs=1e-14)
