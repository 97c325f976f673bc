"""Pulse-shape library: flat (rectangular), sin^2 and user-supplied envelopes.

An envelope is a finite Fourier series f(tau) = sum_M c_M exp(i*2*pi*M*tau)
on tau in [0, 1], with conjugate symmetry c_{-M} = conj(c_M) so the drive is
real.  Outside [0, 1] the pulse is implicitly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import ValidationReport

_IMAG_TOL = 1e-14


@dataclass(frozen=True)
class PulseShape:
    """Truncated Fourier series for the drive envelope."""

    name: str
    _coeffs: tuple[tuple[int, complex], ...]

    @staticmethod
    def from_dict(name: str, coeffs: dict[int, complex]) -> "PulseShape":
        items = tuple(sorted((int(M), complex(c)) for M, c in coeffs.items()))
        return PulseShape(name, items)

    @property
    def coefficients(self) -> dict[int, complex]:
        return dict(self._coeffs)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(M for M, c in self._coeffs if c != 0)

    @property
    def max_harmonic(self) -> int:
        return max((abs(M) for M in self.support), default=0)

    def c(self, M: int) -> complex:
        return dict(self._coeffs).get(M, 0j)

    def cache_key(self) -> tuple:
        return self._coeffs


def rectangular() -> PulseShape:
    return PulseShape.from_dict("rect", {0: 1.0})


def sin_squared() -> PulseShape:
    # sin^2(pi*tau) = 1/2 - exp(i*2*pi*tau)/4 - exp(-i*2*pi*tau)/4
    return PulseShape.from_dict("sin2", {0: 0.5, 1: -0.25, -1: -0.25})


def envelope_at(shape: PulseShape, tau: float) -> float:
    """Evaluate the envelope at tau; the imaginary residue must be tiny."""
    import cmath

    val = sum(c * cmath.exp(2j * cmath.pi * M * tau) for M, c in shape._coeffs)
    if abs(val.imag) > _IMAG_TOL * max(1.0, abs(val.real)):
        raise ValueError(f"envelope not real at tau={tau}: {val}")
    return val.real


def validate_shape(shape: PulseShape) -> ValidationReport:
    """Check conjugate symmetry c_{-M} = conj(c_M) of the coefficient map."""
    rep = ValidationReport()
    coeffs = shape.coefficients
    for M, c in coeffs.items():
        partner = coeffs.get(-M)
        if partner is None:
            rep.add("missing conjugate", f"M={M} present, M={-M} absent")
        elif not abs(partner - c.conjugate()) <= _IMAG_TOL:  # NaN fails this too
            rep.add("conjugate symmetry", f"c_{-M} != conj(c_{M})")
    return rep
