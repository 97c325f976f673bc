"""Exact evaluation of nested time-ordered resonance integrals, and the exact Dyson route.

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
that survive there.  ``resonance_integral`` folds ``integrate_product`` with the
single tap (N, 1) and the single shift 0 over one tuple's inner chain and takes the
value at one with (N_1, 1).

The exact Dyson route (``sequence_dyson``, against which ``magnus``'s float transfer
pass is tested) uses that H enters once per sideband m, as Op(m) = J_m (x) A_m times
the drive drive_m = sum_g c_g e^{i 2 pi (N_g + m K) tau}.  A sideband sequence's weight,
the sum over its label tuples of the Dyson term, is the nested integral of its drives:
F_{k+1} = 1, F_j(tau) = int_0^tau drive_{m_j} F_{j+1} and w = F_1(1).  ``_sequences``
takes them in one depth-first walk over the suffixes (m_j, ..., m_k), innermost first.
The children (m_{j-1}, m_j, ...) of a node share its F_j and their drives are the drive
at m = 0 shifted by m K, so one sibling step per part gives them all:
``integrate_product`` of the factors (F_j part, drive part) with the children's shifts,
and at the leaves ``integrate_product_to_one``, which hands a term with p = 0 only to
the child it is resonant in.  For rect P_4 at K = 28 that is 30 node steps for 201
antiderivatives and 172 leaf steps, which visit 3,228 (factor, tap, term) triples, for
1,201 weights, 776 of them exactly zero.  Each c_g is the exact Fraction of its float
and a function is held as its real and imaginary parts; a part whose factors are all
empty (the imaginary one of a real drive) is not integrated.  Every ``PulseShape`` has
c_-M = conj c_M exactly, so drive_-m = conj drive_m and w(-m) = conj w(m), and the walk
takes only m >= 0 while its suffix is all zeros: the first nonzero m from the inside is
positive.  At K = L + 3, orders 3 and 4 by both routes cost ~19 ms a point, of which
~10 ms is the walk (mean over K = 16..51, best of 3 on a 2-core host).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

from . import hilbert
from .params import MAX_ORDER, GateParams
from .pulses import PulseShape


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


def _sequences(params: GateParams, pulse: PulseShape, k: int):
    """Yields (the sequence as indices into m = -m_max..m_max, re, im) with the exact
    weight w = re + i im of one sideband sequence of each mirror pair, m_k slowest, from
    the walk of the module docstring."""
    notes, coeffs = hilbert.drive_taps(params, pulse)
    a, b = ([(int(N), Fraction(part(c))) for N, c in zip(notes, coeffs) if part(c)] for part in (np.real, np.imag))
    minus_b = [(N, -c) for N, c in b]
    shifts = [m * params.K for m in range(-params.m_max, params.m_max + 1)]
    empty = OscSum()

    def walk(re, im, suffix):
        first = params.m_max if all(i == params.m_max for i in suffix) else 0
        leaf = len(suffix) == k - 1
        step = integrate_product_to_one if leaf else integrate_product
        # (re + i im)(a + i b) = (re a - im b) + i (re b + im a), without the empty factors
        parts = [[(f, taps) for f, taps in factors if taps and not f.is_zero]
                 for factors in (((re, a), (im, minus_b)), ((re, b), (im, a)))]
        children = [step(part, shifts[first:]) if part else [empty] * (len(shifts) - first) for part in parts]
        for i, re_i, im_i in zip(range(first, len(shifts)), *children):
            if leaf:
                yield (i, *suffix), re_i, im_i
            else:
                yield from walk(re_i, im_i, (i, *suffix))

    yield from walk(OscSum.unit(), empty, ())


def _sequence_weights(params: GateParams, pulse: PulseShape, k: int) -> np.ndarray:
    """The weights of all sideband sequences as one complex array W[m_1, ..., m_k] (indices
    into m = -m_max..m_max): each walked w and its mirror conj w; an exactly zero w is
    neither rounded nor written, and leaves +0 at both."""
    n = 2 * params.m_max + 1
    W = np.zeros((n,) * k, dtype=complex)
    for seq, re, im in _sequences(params, pulse, k):
        if re.is_zero and im.is_zero:
            continue
        w = complex(re) + 1j * complex(im)
        W[tuple(n - 1 - i for i in seq)] = w.conjugate()
        W[seq] = w
    return W


def sequence_dyson(params: GateParams, pulse: PulseShape, k: int) -> tuple:
    """P_k / (Omega*T)^k = (-i)^k sum_m W[m] Op(m_1) ... Op(m_k) in block form, from the
    exact weights of ``_sequence_weights``; ``magnus``'s transfer pass is the production
    path.  Per block, k contractions: W with the stacked Op over m_k, then each m_j,
    innermost first, with the row [Op(-m_max) | ... | Op(m_max)]."""
    W = _sequence_weights(params, pulse, k)
    p_hat = []
    for ops in hilbert.hamiltonian_terms(params.eta, params.n_dim, params.m_max):
        n, d, _ = ops.shape
        T = W.reshape(-1, n) @ ops.reshape(n, d * d)  # T[m_1..m_{k-1}] = sum_{m_k} W Op(m_k)
        row = ops.transpose(1, 0, 2).reshape(d, n * d)
        for _ in range(k - 1):
            T = row @ T.reshape(-1, n * d, d)  # sum_{m_j} Op(m_j) T[..., m_j]
        p_hat.append((-1j) ** k * T.reshape(d, d))
    return tuple(p_hat)
