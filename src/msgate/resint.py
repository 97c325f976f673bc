"""Exact evaluation of nested time-ordered resonance integrals.

The object computed here is, for an integer tuple (N_1, ..., N_k),

    I(N_1, ..., N_k) = int_0^1 dt_1 e^{i 2 pi N_1 t_1}
                       int_0^{t_1} dt_2 e^{i 2 pi N_2 t_2} ...
                       int_0^{t_{k-1}} dt_k e^{i 2 pi N_k t_k},

i.e. N_1 rides the *outermost* (latest) time variable.  Repeated integration
by parts keeps every intermediate function an exact sum of terms
r / (i pi)^g * tau^p * e^{i 2 pi nu tau} with r one rational and g an integer,
so orders 4 and 5 do not suffer the catastrophic cancellation a
naive floating-point evaluation would.  The rationals of a sum are Python ints
over one shared denominator: a step scales every numerator by the lcm of the
denominators it brings in and reduces the result by one gcd, instead of
normalising a ``Fraction`` at every operation.  A value becomes a float by the
correctly rounded int division, as ``float(Fraction)`` does, so the floats are
those of a ``Fraction`` engine bit for bit.  Two steps build every value:
``integrate_product`` takes the antiderivative from 0 of a sum times a drive
sum_g c_g e^{i 2 pi N_g tau} with rational c_g, and ``integrate_product_to_one``
its value at tau = 1, summed without building the product or the antiderivative.
``magnus``'s exact Dyson route applies them to whole drives, one sideband at a
time; ``resonance_integral`` folds ``integrate_product`` with the single tap
(N, 1) over one tuple's inner chain and takes the value at one with (N_1, 1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Sequence


class OscSum:
    """Canonical sum of terms r / (i pi)^g * tau^p * exp(i 2 pi nu tau), one
    rational r per key (p, nu, g), held as integer numerators ``nums`` over one
    shared positive denominator ``den``, reduced (gcd(den, *nums) = 1) and without
    zero numerators.  ``terms`` is the exact-rational view {key: Fraction}.  A
    constant sum (keys (0, 0, g)) is an exact complex number, zero iff it has no
    terms since pi is transcendental.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: dict[tuple[int, int, int], int] | None = None, den: int = 1):
        """The sum of nums[key] / den (nonzero numerators, den > 0), reduced by one gcd."""
        nums = nums or {}
        common = math.gcd(den, *nums.values())
        self.nums = {key: n // common for key, n in nums.items()} if common > 1 else nums
        self.den = den // common

    @staticmethod
    def unit() -> "OscSum":
        return OscSum({(0, 0, 0): 1})

    @property
    def terms(self) -> dict[tuple[int, int, int], Fraction]:
        return {key: Fraction(n, self.den) for key, n in self.nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def as_complex(self) -> complex:
        out = 0j
        for (_p, _nu, g), n in self.nums.items():  # r / (i pi)^g = r (-i)^g / pi^g
            r = n / self.den  # int true division rounds correctly, as float(Fraction) does
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


def _add(out: dict[tuple[int, int, int], int], key: tuple[int, int, int], n: int) -> None:
    """Merge n into key; a key whose sum cancels leaves the dict and comes back at its
    end, so the keys keep the order of a term-by-term merge."""
    n += out.get(key, 0)
    if n:
        out[key] = n
    else:
        del out[key]


def integrate_product(*factors: tuple[OscSum, Sequence[tuple[int, Fraction]]]) -> OscSum:
    """Exact antiderivative G(tau) = int_0^tau of the sum over the factors (f, taps) of
    f(s) sum_g c_g e^{i 2 pi N_g s} ds, for integer N_g and nonzero rational c_g.

    First the product: each tap shifts every frequency of f by N_g, over one shared
    denominator.  Then its antiderivative term by term: a term of frequency 0 has its
    power raised; otherwise integration by parts (``parts_table``) produces
    polynomial-times-exponential terms plus the boundary constant at s = 0.  The
    antiderivative's denominator is the product's times the lcm of each term's largest
    new one, p + 1 where the power is raised and (2 nu)^(p + 1) by parts, and one gcd
    reduces the result.
    """
    den = math.lcm(*[f.den * c.denominator for f, taps in factors for _N, c in taps])
    product: dict[tuple[int, int, int], int] = {}
    for f, taps in factors:
        for N, c in taps:
            tap = c.numerator * (den // (f.den * c.denominator))
            for (p, nu, g), n in f.nums.items():
                _add(product, (p, nu + N, g), n * tap)
    scale = math.lcm(*[p + 1 if nu == 0 else (2 * nu) ** (p + 1) for p, nu, _g in product])
    out: dict[tuple[int, int, int], int] = {}
    for (p, nu, g), n in product.items():
        if nu == 0:
            _add(out, (p + 1, 0, g), n * (scale // (p + 1)))
            continue
        # a_j / (i 2 pi nu)^q = a_j / (2 nu)^q / (i pi)^q
        for j, q, a in parts_table(p):
            c = n * a * (scale // (2 * nu) ** q)
            _add(out, (j, nu, g + q), c)
            if j == 0:
                _add(out, (0, 0, g + q), -c)
    return OscSum(out, den * scale)


def _integer_tuple(Ns: Iterable[int]) -> tuple[int, ...]:
    """The beat notes as ints; a non-integer raises instead of being truncated."""
    Ns = tuple(Ns)
    if all(type(N) is int for N in Ns):
        return Ns
    if not all(float(N).is_integer() for N in Ns):
        raise ValueError(f"beat notes must be integers, got {Ns}")
    return tuple(int(N) for N in Ns)


def integrate_product_to_one(*factors: tuple[OscSum, Sequence[tuple[int, Fraction]]]) -> OscSum:
    """int_0^1 of the sum over the factors (f, taps) of f(s) sum_g c_g e^{i 2 pi N_g s} ds,
    the value at tau = 1 of ``integrate_product(*factors)`` without building the product or
    the antiderivative: every phase is 1 there, so a term's j = 0 part cancels its s = 0 boundary and
    only the parts j >= 1 of ``parts_table`` remain, with denominators up to (2 nu2)^p.  One
    loop over the (tap, term) pairs keeps those that survive, p > 0 or nu2 = nu + N_g = 0,
    over one lcm scale; a pair with p = 0 and nu2 != 0 leaves nothing."""
    den = math.lcm(*[f.den * c.denominator for f, taps in factors for _N, c in taps])
    live = []
    for f, taps in factors:
        for N, c in taps:
            tap = c.numerator * (den // (f.den * c.denominator))
            live += [(p, nu + N, g, n * tap) for (p, nu, g), n in f.nums.items() if p or nu + N == 0]
    scale = math.lcm(*[p + 1 if nu2 == 0 else (2 * nu2) ** p for p, nu2, _g, _n in live])
    acc: dict[int, int] = {}
    for p, nu2, g, n in live:
        if nu2 == 0:
            acc[g] = acc.get(g, 0) + n * (scale // (p + 1))
            continue
        for _j, q, a in parts_table(p)[:-1]:
            acc[g + q] = acc.get(g + q, 0) + n * a * (scale // (2 * nu2) ** q)
    return OscSum({(0, 0, g): n for g, n in acc.items() if n}, den * scale)


def resonance_integral(Ns: Iterable[int]) -> OscSum:
    """Exact value of the nested integral for an integer beat-note tuple: the
    antiderivative of the inner chain (N_2, ..., N_k), innermost first, then the
    outermost integral at tau = 1.

    Dimensionless (T = 1); a physical result carries the extra factor T^k.
    """
    Ns = _integer_tuple(Ns)
    if len(Ns) > 5:
        raise ValueError("orders above 5 are out of scope")
    inner = reduce(lambda f, N: integrate_product((f, [(N, 1)])), reversed(Ns[1:]), OscSum.unit())
    return integrate_product_to_one((inner, [(Ns[0], 1)])) if Ns else OscSum.unit()
