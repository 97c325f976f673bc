"""Pulse-shape library: flat (rectangular), sin^2 and user-supplied envelopes.

An envelope is a finite Fourier series f(tau) = sum_M c_M exp(i*2*pi*M*tau)
on tau in [0, 1], with conjugate symmetry c_{-M} = conj(c_M) so the drive is
real.  Outside [0, 1] the pulse is implicitly zero.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass


@dataclass(frozen=True)
class PulseShape:
    """Truncated Fourier series for the drive envelope: its nonzero coefficients, by M.

    A real drive by construction: building one raises ValueError unless it has a
    nonzero coefficient, every coefficient is finite and c_-M == conj(c_M) holds
    exactly, so that every route can take the drive as real without a check."""

    name: str
    _coeffs: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        coeffs = {int(M): complex(c) for M, c in self._coeffs if c != 0}
        if not coeffs:
            raise ValueError("no nonzero coefficient")
        if not all(map(cmath.isfinite, coeffs.values())):
            raise ValueError("coefficients must be finite")
        off = [abs(M) for M, c in coeffs.items() if coeffs.get(-M) != c.conjugate()]  # == on floats is exact
        if off:
            raise ValueError(f"c_-M = conj(c_M) must hold exactly, which fails at M = {min(off)}")
        object.__setattr__(self, "_coeffs", tuple(sorted(coeffs.items())))

    @staticmethod
    def from_dict(name: str, coeffs: dict[int, complex]) -> "PulseShape":
        return PulseShape(name, tuple(coeffs.items()))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(M for M, _ in self._coeffs)

    def c(self, M: int) -> complex:
        return dict(self._coeffs).get(M, 0j)


def rectangular() -> PulseShape:
    return PulseShape.from_dict("rect", {0: 1.0})


def sin_squared() -> PulseShape:
    # sin^2(pi*tau) = 1/2 - exp(i*2*pi*tau)/4 - exp(-i*2*pi*tau)/4
    return PulseShape.from_dict("sin2", {0: 0.5, 1: -0.25, -1: -0.25})


def envelope_at(shape: PulseShape, tau: float) -> float:
    """Evaluate the envelope at tau: the real part of its Fourier sum."""
    return sum(c * cmath.exp(2j * cmath.pi * M * tau) for M, c in shape._coeffs).real
