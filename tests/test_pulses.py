import numpy as np
import pytest
from hypothesis import given, strategies as st

from msgate.pulses import (
    PulseShape,
    envelope_at,
    rectangular,
    sin_squared,
    validate_shape,
)


def test_rectangular_envelope():
    rect = rectangular()
    for tau in (0.0, 0.3, 0.77, 1.0):
        assert envelope_at(rect, tau) == pytest.approx(1.0)
    assert rect.max_harmonic == 0


def test_envelope_at_rejects_a_complex_value():
    # a lone c_1 is exp(i 2 pi tau), which is i at tau = 1/4
    with pytest.raises(ValueError, match="not real at tau=0.25"):
        envelope_at(PulseShape.from_dict("one-sided", {1: 1}), 0.25)


def test_sin2_envelope_values():
    s2 = sin_squared()
    assert envelope_at(s2, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert envelope_at(s2, 0.5) == pytest.approx(1.0)
    assert envelope_at(s2, 0.25) == pytest.approx(0.5)
    assert s2.max_harmonic == 1


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


def test_validate_shape_sin2():
    assert validate_shape(sin_squared()).ok


def test_validate_shape_missing_partner():
    shape = PulseShape.from_dict("broken", {0: 0.5, 1: -0.25})
    rep = validate_shape(shape)
    assert "missing conjugate" in rep.rules()


def test_validate_shape_asymmetric():
    shape = PulseShape.from_dict("broken", {1: 0.25j, -1: 0.25j})
    assert "conjugate symmetry" in validate_shape(shape).rules()


@pytest.mark.parametrize("c", [complex(np.nan, 0), complex(np.inf, 0), complex(0.5, np.nan)])
def test_validate_shape_flags_non_finite(c):
    # NaN compares false with any tolerance, so the check must be written to fail on it
    assert "conjugate symmetry" in validate_shape(PulseShape.from_dict("bad", {0: c})).rules()
    assert "conjugate symmetry" in validate_shape(PulseShape.from_dict("bad", {1: c, -1: c})).rules()


@given(st.dictionaries(st.integers(1, 4),
                       st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
                       max_size=4),
       st.floats(0, 1))
def test_symmetric_maps_are_real(half, tau):
    coeffs = {0: 1.0 + 0j}
    for M, c in half.items():
        coeffs[M] = c
        coeffs[-M] = c.conjugate()
    shape = PulseShape.from_dict("random", coeffs)
    assert validate_shape(shape).ok
    envelope_at(shape, tau)  # raises if the imaginary residue is not tiny
