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
those of a ``Fraction`` engine bit for bit.  Two steps build every value, each
for a list of frequency shifts s at once: ``integrate_product`` takes the
antiderivatives from 0 of a sum times the drives sum_g c_g e^{i 2 pi (N_g + s) tau}
with rational c_g, merging the product once for every shift, and
``integrate_product_to_one`` their values at tau = 1, summed without building the
product or the antiderivatives, in one pass that hands each shift only the terms
that survive there.  ``magnus``'s exact Dyson route takes the 2 m_max + 1 sideband
drives of a walk node as the shifts m K of one drive: for rect P_4 at K = 28 its
172 calls at the leaves visit 3,228 (factor, tap, term) triples, and its 1,201
weights take ~10 ms (best of 5 on a 2-core host).  ``resonance_integral`` folds
``integrate_product`` with the single tap (N, 1) and the single shift 0 over one
tuple's inner chain and takes the value at one with (N_1, 1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Sequence

from .params import MAX_ORDER


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


def integrate_product(factors: Sequence[tuple[OscSum, Sequence[tuple[int, Fraction]]]],
                      shifts: Sequence[int]) -> list[OscSum]:
    """Exact antiderivatives G_S(tau) = int_0^tau of the sum over the factors (f, taps) of
    f(s) sum_g c_g e^{i 2 pi (N_g + S) s} ds, one per shift S, for integers N_g and S and
    nonzero rational c_g.

    First the product at shift 0, once: each tap shifts every frequency of f by N_g, over
    one shared denominator.  A shift S moves every key of that product by S and merges
    none, so G_S integrates it term by term at the frequencies nu + S: a term of
    frequency 0 has its power raised; otherwise integration by parts (``parts_table``)
    produces polynomial-times-exponential terms plus the boundary constant at s = 0.
    G_S's denominator is the product's times the lcm of each term's largest new one,
    p + 1 where the power is raised and (2 nu)^(p + 1) by parts, and one gcd reduces it.
    """
    den = math.lcm(*[f.den * c.denominator for f, taps in factors for _N, c in taps])
    product: dict[tuple[int, int, int], int] = {}
    for f, taps in factors:
        for N, c in taps:
            tap = c.numerator * (den // (f.den * c.denominator))
            for (p, nu, g), n in f.nums.items():
                _add(product, (p, nu + N, g), n * tap)
    children = []
    for shift in shifts:
        scale = math.lcm(*[p + 1 if nu + shift == 0 else (2 * (nu + shift)) ** (p + 1) for p, nu, _g in product])
        out: dict[tuple[int, int, int], int] = {}
        for (p, nu, g), n in product.items():
            nu += shift
            if nu == 0:
                _add(out, (p + 1, 0, g), n * (scale // (p + 1)))
                continue
            # a_j / (i 2 pi nu)^q = a_j / (2 nu)^q / (i pi)^q
            for j, q, a in parts_table(p):
                c = n * a * (scale // (2 * nu) ** q)
                _add(out, (j, nu, g + q), c)
                if j == 0:
                    _add(out, (0, 0, g + q), -c)
        children.append(OscSum(out, den * scale))
    return children


def _integer_tuple(Ns: Iterable[int]) -> tuple[int, ...]:
    """The beat notes as ints; a non-integer raises instead of being truncated."""
    Ns = tuple(Ns)
    if all(type(N) is int for N in Ns):
        return Ns
    if not all(float(N).is_integer() for N in Ns):
        raise ValueError(f"beat notes must be integers, got {Ns}")
    return tuple(int(N) for N in Ns)


def integrate_product_to_one(factors: Sequence[tuple[OscSum, Sequence[tuple[int, Fraction]]]],
                             shifts: Sequence[int]) -> list[OscSum]:
    """The values G_S(1) of ``integrate_product(factors, shifts)``, without building the
    product or the antiderivatives: every phase is 1 at tau = 1, so a term's j = 0 part
    cancels its s = 0 boundary and only the parts j >= 1 of ``parts_table`` remain, with
    denominators up to (2 nu2)^p, nu2 = nu + N_g + S.  One pass over the (factor, tap,
    term) triples hands each shift, in order, the pairs that survive: a term with p > 0
    to every shift, one with p = 0 only to a shift S = -(nu + N_g), found in a dict.  Each
    shift sums its pairs over its own lcm scale; one without pairs is the exact zero."""
    den = math.lcm(*[f.den * c.denominator for f, taps in factors for _N, c in taps])
    live: list[list[tuple[int, int, int, int]]] = [[] for _ in shifts]
    resonant: dict[int, list] = {}
    for shift, pairs in zip(shifts, live):
        resonant.setdefault(-shift, []).append(pairs)
    for f, taps in factors:
        for N, c in taps:
            tap = c.numerator * (den // (f.den * c.denominator))
            for (p, nu, g), n in f.nums.items():
                if p:
                    nu, n = nu + N, n * tap
                    for shift, pairs in zip(shifts, live):
                        pairs.append((p, nu + shift, g, n))
                else:
                    for pairs in resonant.get(nu + N, ()):
                        pairs.append((0, 0, g, n * tap))
    return [_value_at_one(pairs, den) if pairs else OscSum() for pairs in live]


def _value_at_one(pairs: list[tuple[int, int, int, int]], den: int) -> OscSum:
    """The sum at tau = 1 of the antiderivatives of the terms (p, nu2, g, n / den)."""
    scale = math.lcm(*[p + 1 if nu2 == 0 else (2 * nu2) ** p for p, nu2, _g, _n in pairs])
    acc: dict[int, int] = {}
    for p, nu2, g, n in pairs:
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
    if len(Ns) > MAX_ORDER:
        raise ValueError(f"orders above {MAX_ORDER} are out of scope")
    inner = reduce(lambda f, N: integrate_product([(f, [(N, 1)])], [0])[0], reversed(Ns[1:]), OscSum.unit())
    return integrate_product_to_one([(inner, [(Ns[0], 1)])], [0])[0] if Ns else OscSum.unit()
