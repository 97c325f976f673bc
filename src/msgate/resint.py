"""Exact evaluation of nested time-ordered resonance integrals.

The object computed here is, for an integer tuple (N_1, ..., N_k),

    I(N_1, ..., N_k) = int_0^1 dt_1 e^{i 2 pi N_1 t_1}
                       int_0^{t_1} dt_2 e^{i 2 pi N_2 t_2} ...
                       int_0^{t_{k-1}} dt_k e^{i 2 pi N_k t_k},

i.e. N_1 rides the *outermost* (latest) time variable.  Repeated integration
by parts keeps every intermediate function an exact sum of terms
r / (i pi)^g * tau^p * e^{i 2 pi nu tau} with r one rational and g an integer,
so orders 4 and 5 do not suffer the catastrophic cancellation a
naive floating-point evaluation would.  A spectral quadrature oracle provides
an independent numerical cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np


@dataclass
class OscSum:
    """Canonical sum of terms r / (i pi)^g * tau^p * exp(i 2 pi nu tau), one
    rational r per key (p, nu, g).  A constant sum (keys (0, 0, g)) is an exact
    complex number, zero iff it has no terms since pi is transcendental.
    """

    terms: dict[tuple[int, int, int], Fraction] = field(default_factory=dict)

    @staticmethod
    def unit() -> "OscSum":
        return OscSum({(0, 0, 0): Fraction(1)})

    def _add(self, power: int, freq: int, pi_pow: int, r: Fraction) -> None:
        key = (power, freq, pi_pow)
        r += self.terms.get(key, 0)
        if r == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = r

    def at_one(self) -> "OscSum":
        """Evaluate at tau = 1; freqs are integers so every phase is 1."""
        val = OscSum()
        for (_p, _nu, g), r in self.terms.items():
            val._add(0, 0, g, r)
        return val

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_complex(self) -> complex:
        out = 0j
        for (_p, _nu, g), r in self.terms.items():  # r / (i pi)^g = r (-i)^g / pi^g
            re, im = ((r, 0), (0, -r), (-r, 0), (0, r))[g % 4]
            out += complex(re, im) / math.pi ** g
        return out

    __complex__ = as_complex


@lru_cache(maxsize=None)
def parts_table(p: int) -> tuple[tuple[int, int, int], ...]:
    """Integration by parts, shared with magnus's float transfer pass: for w != 0
    int_0^tau s^p e^{iws} ds = sum_j a_j (iw)^-q_j tau^j e^{iw tau} - a_0 (iw)^-q_0,
    as triples (j, q_j, a_j) = (j, p - j + 1, (-1)^(p-j) p!/j!) for j = p..0."""
    return tuple((j, p - j + 1, (-1) ** (p - j) * math.factorial(p) // math.factorial(j))
                 for j in range(p, -1, -1))


def integrate_step(f: OscSum, N: int) -> OscSum:
    """Exact antiderivative G(tau) = int_0^tau e^{i 2 pi N s} f(s) ds.

    A term whose shifted frequency vanishes has its power raised; otherwise
    integration by parts (``parts_table``) produces polynomial-times-exponential
    terms plus the boundary constant at s = 0.
    """
    out = OscSum()
    for (p, nu, g), r in f.terms.items():
        nu2 = nu + N
        if nu2 == 0:
            out._add(p + 1, 0, g, r / (p + 1))
            continue
        # a_j / (i 2 pi nu2)^q = a_j / (2 nu2)^q / (i pi)^q
        for j, q, a in parts_table(p):
            c = r * Fraction(a, (2 * nu2) ** q)
            out._add(j, nu2, g + q, c)
            if j == 0:
                out._add(0, 0, g + q, -c)
    return out


def _integer_tuple(Ns: Iterable[int]) -> tuple[int, ...]:
    """The beat notes as ints; a non-integer raises instead of being truncated."""
    Ns = tuple(Ns)
    if not all(float(N).is_integer() for N in Ns):
        raise ValueError(f"beat notes must be integers, got {Ns}")
    return tuple(int(N) for N in Ns)


@lru_cache(maxsize=200_000)
def _resonance_integral_cached(Ns: tuple[int, ...]) -> OscSum:
    f = OscSum.unit()
    for N in reversed(Ns):
        f = integrate_step(f, N)
    return f.at_one()


def resonance_integral(Ns: Iterable[int]) -> OscSum:
    """Exact value of the nested integral for an integer beat-note tuple.

    Dimensionless (T = 1); a physical result carries the extra factor T^k.
    """
    Ns = _integer_tuple(Ns)
    if len(Ns) > 5:
        raise ValueError("orders above 5 are out of scope")
    return _resonance_integral_cached(Ns)


def may_be_resonant(Ns: Iterable[int]) -> bool:
    """Cheap necessary condition for a nonzero integral when all N_j != 0:
    some contiguous block must sum to zero (a repeated prefix sum)."""
    seen = {0}
    s = 0
    for N in Ns:
        s += N
        if s in seen:
            return True
        seen.add(s)
    return False


def is_resonant(Ns: Iterable[int]) -> bool:
    """True iff the exact integral is nonzero; used to prune tuples."""
    Ns = _integer_tuple(Ns)
    if all(N != 0 for N in Ns) and not may_be_resonant(Ns):
        return False
    return not resonance_integral(Ns).is_zero


def order2_closed_form(N1: int, N2: int) -> complex:
    """Case table for k = 2 with integer beat notes."""
    if N1 == 0 and N2 == 0:
        return 0.5 + 0j
    if N1 == 0:
        return 1j / (2 * math.pi * N2)
    if N2 == 0:
        return -1j / (2 * math.pi * N1)
    if N1 + N2 == 0:
        return -1j / (2 * math.pi * N2)
    return 0j

def order3_closed_form(N1: int, N2: int, N3: int) -> complex:
    """Closed form for k = 3 with nonzero integer beat notes:

        (delta_{N1+N2} / N2  -  delta_{N2+N3} / N1) / (4 pi^2 N3).

    The minus sign on the second branch follows from direct integration by
    parts and is confirmed by quadrature (tabulated versions sometimes print
    both branches positive).  Valid when no *total* cancellation
    N1+N2+N3 = 0 occurs without one of the adjacent pairs vanishing;
    gate-valid parameter sets never produce that case, but arbitrary tuples
    (e.g. (1, 1, -2)) do and then the closed form is incomplete.
    """
    val = 0.0
    if N1 + N2 == 0:
        val += 1.0 / N2
    if N2 + N3 == 0:
        val -= 1.0 / N1
    return val / (4 * math.pi ** 2 * N3)


# ---------------------------------------------------------------------------
# Spectral quadrature oracle (independent of the integration-by-parts path).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _cheb_nodes_tau(n: int) -> np.ndarray:
    x = np.cos(np.pi * np.arange(n + 1) / n)
    return 0.5 * (x + 1.0)


def _cheb_coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through Lobatto-node values."""
    n = values.size - 1
    ext = np.concatenate([values, values[-2:0:-1]])
    spec = np.fft.fft(ext) / n
    coeffs = spec[: n + 1].copy()
    coeffs[0] *= 0.5
    coeffs[n] *= 0.5
    return coeffs


def _cheb_values(coeffs: np.ndarray) -> np.ndarray:
    """Values at the Lobatto nodes of a Chebyshev coefficient array."""
    n = coeffs.size - 1
    ext = np.concatenate([coeffs, coeffs[-2:0:-1]])
    vals = np.fft.ifft(ext) * n
    vals = vals[: n + 1]
    sign = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
    return vals + 0.5 * coeffs[0] + 0.5 * coeffs[n] * sign


def _cheb_integral(coeffs: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the antiderivative in tau = (x + 1)/2 that vanishes at
    tau = 0: with c scaled by dx/dtau = 1/2, b_k = (c_{k-1} - c_{k+1}) / 2k for k >= 1,
    counting c_0 twice at k = 1, and b_0 = -sum_k (-1)^k b_k.  The values of
    ``numpy.polynomial.chebyshev.chebint(coeffs, lbnd=-1, scl=0.5)``, without its Python
    loop over the coefficients."""
    c = 0.5 * np.concatenate([coeffs, np.zeros(2)])
    k = np.arange(1, len(coeffs) + 1)
    anti = np.empty(len(coeffs) + 1, dtype=c.dtype)
    anti[1:] = (c[k - 1] - c[k + 1]) / (2 * k)
    anti[1] += c[0] / 2
    anti[0] = -np.sum(anti[1:] * (-1.0) ** k)  # T_k(-1) = (-1)^k
    return anti


def quadrature_integral(Ns: Iterable[int], n: int = 2048) -> complex:
    """Numerical value of the nested integral via spectral cumulative
    quadrature on a Chebyshev grid; independent of the symbolic path."""
    Ns = _integer_tuple(Ns)
    tau = _cheb_nodes_tau(n)
    vals = np.ones(n + 1, dtype=complex)
    for N in reversed(Ns):
        vals = vals * np.exp(2j * np.pi * N * tau)
        coeffs = _cheb_coeffs(vals)
        vals = _cheb_values(_cheb_integral(coeffs)[: n + 1])
    return complex(vals[0])  # node 0 is tau = 1
