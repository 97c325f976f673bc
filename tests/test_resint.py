import itertools
import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from msgate import budget, hilbert, magnus, resint
from msgate.params import GateParams
from msgate.pulses import rectangular, sin_squared
from msgate.resint import OscSum, integrate_product, integrate_product_to_one, resonance_integral
from oracles import (SKEW, FractionSum, _cheb_integral, fraction_antiderivative, fraction_integral, fraction_step,
                     fraction_to_one, is_resonant, may_be_resonant, order2_closed_form, order3_closed_form,
                     quadrature_integral, sequence_weights)


def val(Ns):
    return complex(resonance_integral(Ns))


def step(f: OscSum, N: int) -> OscSum:
    """int_0^tau e^{i 2 pi N s} f(s) ds: the product with the single tap (N, 1), integrated."""
    return integrate_product([(f, [(N, 1)])], [0])[0]


def test_integrate_constant_zero_freq():
    g = step(OscSum.unit(), 0)
    assert g.terms == {(1, 0, 0): Fraction(1)}  # tau


def test_integrate_constant_nonzero_freq():
    # (e^{i 2 pi 3 tau} - 1) / (i 2 pi 3) = (e^{i 2 pi 3 tau} - 1) (1/6) / (i pi)
    g = step(OscSum.unit(), 3)
    assert g.terms == {(0, 3, 1): Fraction(1, 6), (0, 0, 1): Fraction(-1, 6)}


def test_integrate_cancelling_frequencies():
    # f = tau * e^{-i 2 pi tau} integrated against N = 1 gives tau^2 / 2
    f = OscSum({(1, -1, 0): 1})
    g = step(f, 1)
    assert g.terms == {(2, 0, 0): Fraction(1, 2)}


def test_first_order_values():
    assert val([0]) == pytest.approx(1.0)
    for N in range(1, 7):
        assert resonance_integral([N]).is_zero
        assert resonance_integral([-N]).is_zero


def test_order_two_examples():
    assert val([0, 0]) == pytest.approx(0.5)
    assert val([3, -3]) == pytest.approx(1j / (6 * math.pi))
    assert val([2, 5]) == 0


def test_order_three_examples():
    assert val([1, -1, 2]) == pytest.approx(-1 / (8 * math.pi ** 2))


def test_order_two_table_reproduced_exactly():
    for N1 in range(-6, 7):
        for N2 in range(-6, 7):
            got = val([N1, N2])
            want = order2_closed_form(N1, N2)
            assert got == pytest.approx(want, abs=1e-15), (N1, N2)


def test_order_three_table_on_validity_domain():
    """The closed form covers tuples where an adjacent pair cancels; total
    cancellation without a vanishing pair (possible for arbitrary integers,
    excluded for valid gate parameters) is its documented blind spot."""
    blind = []
    for Ns in itertools.product(range(-6, 7), repeat=3):
        if any(N == 0 for N in Ns):
            continue
        N1, N2, N3 = Ns
        total_only = (N1 + N2 + N3 == 0) and (N1 + N2 != 0) and (N2 + N3 != 0)
        if total_only:
            blind.append(Ns)
            continue
        assert val(Ns) == pytest.approx(order3_closed_form(*Ns), abs=1e-15), Ns
    # the blind spot is real: those tuples are nonzero and quadrature agrees
    assert blind
    for Ns in blind[:5]:
        exact = val(Ns)
        assert exact != 0
        assert exact == pytest.approx(quadrature_integral(Ns), abs=1e-12)


def test_is_resonant_examples():
    assert is_resonant([3, -3])
    assert not is_resonant([2, 5])
    assert is_resonant([1, -1, 2])


def test_necessary_condition_is_sound(rng):
    # whenever the quick filter says no (all-nonzero tuple), the value is zero
    for _ in range(300):
        k = int(rng.integers(2, 6))
        Ns = [int(n) for n in rng.integers(1, 10, k) * rng.choice([-1, 1], k)]
        if not may_be_resonant(Ns):
            assert resonance_integral(Ns).is_zero


def test_filter_matches_the_prefix_sum_loop():
    # one call over a stack of tuples against the per-tuple loop it replaced
    rng = np.random.default_rng(17)
    def loop(Ns):
        seen, s = {0}, 0
        for N in Ns:
            s += N
            if s in seen:
                return True
            seen.add(s)
        return False
    for k in range(1, 6):
        tuples = rng.integers(-7, 8, (400, k))
        assert may_be_resonant(tuples).tolist() == [loop(Ns) for Ns in tuples.tolist()]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_quadrature_agreement_sample(rng, k):
    # small per-order sample; the full 200-tuple suite runs in acceptance
    for _ in range(25):
        Ns = [int(n) for n in rng.integers(1, 10, k) * rng.choice([-1, 1], k)]
        exact = val(Ns)
        quad = quadrature_integral(Ns)
        if abs(exact) < 1e-12:
            assert abs(quad) < 1e-11, Ns
        else:
            assert abs(exact - quad) / abs(exact) < 1e-9, Ns


def shuffles(a, b):
    """All interleavings of tuples a and b preserving internal order."""
    if not a:
        yield b
        return
    if not b:
        yield a
        return
    for rest in shuffles(a[1:], b):
        yield (a[0],) + rest
    for rest in shuffles(a, b[1:]):
        yield (b[0],) + rest


@pytest.mark.parametrize("la,lb", [(2, 2), (2, 3)])
def test_shuffle_identity(rng, la, lb):
    """Sum over interleavings of two ordered integrals equals their product
    (simplex decomposition); the identity behind the fourth-order
    effective-Hamiltonian combination."""
    for _ in range(10):
        a = tuple(int(n) for n in rng.integers(-6, 7, la))
        b = tuple(int(n) for n in rng.integers(-6, 7, lb))
        total = sum(val(c) for c in shuffles(a, b))
        assert total == pytest.approx(val(a) * val(b), abs=1e-13)


def stepwise(Ns):
    """Reference: the single-tap antiderivative chain from N_k out to N_1, then the
    value at tau = 1."""
    return at_one(reduce(step, reversed(Ns), OscSum.unit()).terms)


def at_one(terms: dict) -> dict:
    """The value at tau = 1 of exact terms, where every phase is 1: the keys collapsed
    onto (0, 0, g)."""
    out = {}
    for (_p, _nu, g), r in terms.items():
        out[(0, 0, g)] = out.get((0, 0, g), 0) + r
    return {key: r for key, r in out.items() if r}


def test_values_at_one_give_the_stepwise_rationals():
    # random lengths over -7..7, zero beat notes and resonances included: the value
    # summed at tau = 1 without building the last antiderivative is the same rationals
    rng = np.random.default_rng(16)
    tuples = [tuple(int(n) for n in rng.integers(-7, 8, int(rng.integers(1, 6)))) for _ in range(2000)]
    for Ns in tuples:
        assert resonance_integral(Ns).terms == stepwise(Ns), Ns
    assert sum(not resonance_integral(Ns).is_zero for Ns in tuples) > 500


def test_sequence_walk_integrates_each_suffix_once(base_params, rect, monkeypatch):
    # a real pulse walks one sequence of each mirror pair and only the real part:
    # (n^j + 1) / 2 of the n^j suffixes of length j for n = 2 m_max + 1 sidebands.  Each
    # walked suffix is a parent whose children, the suffixes one sideband longer, come
    # from one sibling step: integrate_product for a suffix shorter than k - 1 and
    # integrate_product_to_one for one of length k - 1, with one shift per child.  At
    # n = 7, k = 4 that is 1 + 4 + 25 = 30 and 172 calls, for 201 antiderivatives and
    # 1,201 values at tau = 1
    p = base_params.replace(omega_T=1.0)
    calls = {"integrate_product": [], "integrate_product_to_one": []}
    for name in calls:
        def counted(factors, shifts, name=name, call=getattr(resint, name)):
            calls[name].append(len(shifts))
            return call(factors, shifts)
        monkeypatch.setattr(resint, name, counted)
    magnus.dyson_term(4, p, rect, method="tuples")
    n = 2 * p.m_max + 1
    assert {name: len(shifts) for name, shifts in calls.items()} == {
        "integrate_product": sum((n ** j + 1) // 2 for j in (0, 1, 2)), "integrate_product_to_one": (n ** 3 + 1) // 2}
    assert {name: sum(shifts) for name, shifts in calls.items()} == {
        "integrate_product": sum((n ** j + 1) // 2 for j in (1, 2, 3)), "integrate_product_to_one": (n ** 4 + 1) // 2}


def bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def random_tuples(seed: int, count: int, bound: int) -> list[tuple[int, ...]]:
    """Tuples of length 1-5 over -bound..bound; every third has its last entry set so
    that a random contiguous block sums to zero (a resonance), and every seventh has a
    zero beat note."""
    rng = np.random.default_rng(seed)
    tuples = []
    for i in range(count):
        Ns = [int(n) for n in rng.integers(-bound, bound + 1, int(rng.integers(1, 6)))]
        if i % 3 == 0 and len(Ns) > 1:
            start = int(rng.integers(0, len(Ns) - 1))
            Ns[-1] = -sum(Ns[start:-1])
        if i % 7 == 0:
            Ns[int(rng.integers(0, len(Ns)))] = 0
        tuples.append(tuple(Ns))
    return tuples


def crosscheck_point():
    """The flat-pulse point K = 33, L = 30 at omega_2, with the crosscheck base
    parameters, and its order-4 tuples that pass ``may_be_resonant``."""
    p = GateParams(eta=0.18, K=33, L=30, nbar=0.02, n_dim=8, m_max=3, k_max=4)
    p = p.replace(omega_T=budget.omega_2(p))
    taps, _ = hilbert.drive_taps(p, rectangular())
    notes = [int(N) + m * p.K for m in range(-p.m_max, p.m_max + 1) for N in taps]
    tuples = np.array(list(itertools.product(notes, repeat=4)))
    return p, [tuple(Ns) for Ns in tuples[may_be_resonant(tuples)].tolist()]


def assert_matches_fraction_reference(Ns):
    """The inner chain's antiderivative and the value: the same rationals in the same
    order (the order the value's floats are summed in) and the same complex bits."""
    suffix = fraction_antiderivative(Ns[1:])
    inner = reduce(step, reversed(Ns[1:]), OscSum.unit())
    assert list(inner.terms.items()) == list(suffix.items()), Ns
    got, want = resonance_integral(Ns), fraction_to_one(suffix, Ns[0])
    assert list(got.terms.items()) == list(want.items()), Ns
    assert bits(complex(got)) == bits(complex(want)), Ns
    return got


def test_integer_engine_matches_the_fraction_reference():
    tuples = random_tuples(25, 2400, 60)
    assert sum(0 in Ns for Ns in tuples) > 300
    values = [assert_matches_fraction_reference(Ns) for Ns in tuples]
    assert sum(not v.is_zero for v in values) > 800  # resonances, not only zeros
    # wide beat notes: integers past 2^53, where only a correctly rounded num / den
    # gives the float of the Fraction
    values = [assert_matches_fraction_reference(Ns) for Ns in random_tuples(28, 400, 10 ** 6)]
    assert sum(v.den > 2 ** 53 for v in values) > 20


def test_integer_engine_matches_the_fraction_reference_on_a_crosscheck_point():
    _, tuples = crosscheck_point()
    assert len(tuples) > 1000
    values = [assert_matches_fraction_reference(Ns) for Ns in tuples]
    assert sum(not v.is_zero for v in values) > 100


def complex_rationals(re: OscSum, im: OscSum) -> dict[int, tuple[Fraction, Fraction]]:
    """A constant sum held as its real and imaginary parts, as {g: (Re, Im)} of the
    complex rational over (i pi)^g; that form is unique since pi is transcendental."""
    out = {}
    for part, s in enumerate((re, im)):
        for (p, nu, g), r in s.terms.items():
            assert p == nu == 0
            out.setdefault(g, [Fraction(0), Fraction(0)])[part] += r
    return {g: tuple(r) for g, r in out.items() if any(r)}


@pytest.mark.parametrize("shape", ["rect", "sin2", "skew"])
def test_order3_sequence_weights_are_the_fraction_tuple_sums(shape):
    # each sequence weight is, as a complex rational, the sum over its tap tuples of
    # prod c_g times the Fraction oracle's integral (the tuples without a resonance vanish)
    pulse = {"rect": rectangular(), "sin2": sin_squared(), "skew": SKEW}[shape]
    p = GateParams(eta=0.18, K=28, L=25, n_dim=5, m_max=3 if shape == "rect" else 2)
    taps, tap_c = hilbert.drive_taps(p, pulse)
    ms = range(-p.m_max, p.m_max + 1)
    count = 0
    for seq, re, im in resint._sequences(p, pulse, 3):
        want: dict[int, list[Fraction]] = {}
        for gs in itertools.product(range(len(taps)), repeat=3):
            Ns = [int(taps[g]) + ms[i] * p.K for g, i in zip(gs, seq)]
            if 0 not in Ns and not may_be_resonant(Ns):
                continue
            c_re, c_im = Fraction(1), Fraction(0)  # prod c_g as exact real and imaginary parts
            for g in gs:
                a, b = Fraction(tap_c[g].real), Fraction(tap_c[g].imag)
                c_re, c_im = c_re * a - c_im * b, c_re * b + c_im * a
            for (_p, _nu, g), r in fraction_integral(Ns).items():
                acc = want.setdefault(g, [Fraction(0), Fraction(0)])
                acc[0] += r * c_re
                acc[1] += r * c_im
        assert complex_rationals(re, im) == {g: tuple(r) for g, r in want.items() if any(r)}, seq
        count += not (re.is_zero and im.is_zero)
    assert count > 20


@pytest.mark.parametrize("shape", ["rect", "sin2"])
def test_mirrored_sequence_gives_the_conjugate_weight_exactly(shape):
    # a real pulse with c_M = c_-M has drive_-m = conj drive_m, so w(-m) = conj w(m):
    # r_g / (i pi)^g becomes (-1)^g r_g / (i pi)^g, and no imaginary part appears; the
    # full walk of the oracle computes both sequences of every pair
    pulse = rectangular() if shape == "rect" else sin_squared()
    p = GateParams(eta=0.18, K=28, L=25, n_dim=5, m_max=2)
    weights = dict(sequence_weights(p, pulse, 4))
    for seq, (re, im) in weights.items():
        mirror_re, mirror_im = weights[tuple(2 * p.m_max - i for i in seq)]
        assert im.is_zero and mirror_im.is_zero
        assert mirror_re.terms == {key: (-1) ** key[2] * r for key, r in re.terms.items()}, seq
    assert sum(not re.is_zero for re, _im in weights.values()) > 100


@pytest.mark.parametrize("shape,k", [(shape, k) for shape in ("rect", "sin2", "skew") for k in (3, 4)]
                         + [("rect", 5)])
def test_walked_weights_are_the_full_walk_bit_for_bit(shape, k):
    # every entry of W, the walked half and its mirrors, is the float of the oracle's full
    # walk, but for the sign of a zero imaginary part
    pulse = {"rect": rectangular(), "sin2": sin_squared(), "skew": SKEW}[shape]
    p = GateParams(eta=0.18, K=28, L=25, n_dim=5, m_max=3 if shape == "rect" and k < 5 else 2)
    W = resint._sequence_weights(p, pulse, k)
    want = dict(sequence_weights(p, pulse, k))
    assert W.shape == (2 * p.m_max + 1,) * k and len(want) == W.size
    for seq, (re, im) in want.items():
        w, got = complex(re) + 1j * complex(im), complex(W[seq])
        assert got.real.hex() == w.real.hex(), seq
        assert got.imag.hex() == w.imag.hex() or got.imag == w.imag == 0, seq
    assert np.count_nonzero(W) >= 50


def test_mirrored_tuple_gives_the_conjugate_exactly():
    # I(-N_1, ..., -N_k) = conj I(N_1, ..., N_k): r_g / (i pi)^g becomes (-1)^g r_g / (i pi)^g
    for Ns in random_tuples(26, 1500, 12):
        x, y = resonance_integral(Ns), resonance_integral(tuple(-N for N in Ns))
        assert list(y.terms.items()) == [(key, (-1) ** key[2] * r) for key, r in x.terms.items()], Ns
        # bit for bit, but for the sign of a zero imaginary part
        z, w = complex(x), complex(y)
        assert w.real.hex() == z.real.hex(), Ns
        assert (-w.imag).hex() == z.imag.hex() or w.imag == z.imag == 0, Ns


def test_order_above_five_rejected():
    with pytest.raises(ValueError):
        resonance_integral([1, -1, 2, -2, 3, -3])


def test_integrate_product_drops_cancelling_keys():
    # (1 + e^{i 2 pi tau}) (e^{i 2 pi tau} - 1) = e^{i 4 pi tau} - 1: the tau-frequency 1
    # cancels, and the antiderivative is (e^{i 4 pi tau} - 1) (1/4) / (i pi) - tau
    f = OscSum({(0, 0, 0): 1, (0, 1, 0): 1})
    [got] = integrate_product([(f, [(1, Fraction(1)), (0, Fraction(-1))])], [0])
    assert got.terms == {(0, 2, 1): Fraction(1, 4), (0, 0, 1): Fraction(-1, 4), (1, 0, 0): Fraction(-1)}
    assert got.terms == step(OscSum({(0, 2, 0): 1, (0, 0, 0): -1}), 0).terms
    # across factors too: f e^{i 4 pi tau} / 2 - f e^{i 4 pi tau} / 2 leaves nothing
    assert integrate_product([(f, [(2, Fraction(1, 2))]), (f, [(2, Fraction(-1, 2))])], [0])[0].is_zero


def over_one_den(terms: dict) -> OscSum:
    """The OscSum of nonzero exact rational terms, over the lcm of their denominators."""
    den = math.lcm(*(r.denominator for r in terms.values()))
    return OscSum({key: r.numerator * (den // r.denominator) for key, r in terms.items()}, den)


def random_complex_factors(rng) -> tuple[tuple, tuple]:
    """The two parts of (re + i im)(a + i b), as the exact walk builds them: factors
    ((re, a), (im, -b)) and ((re, b), (im, a)) of random sums over tau^p (p <= 3) and
    multi-tap drives with random rationals.  im repeats some terms of re and b some
    taps of a, so that keys cancel across the factors."""
    def rational():
        return Fraction(int(rng.integers(1, 40)) * int(rng.choice([-1, 1])), int(rng.integers(1, 30)))

    def taps(count):
        return [(int(N), rational()) for N in rng.choice(np.arange(-6, 7), count, replace=False)]

    keys = [tuple(int(x) for x in key) for key in
            zip(rng.integers(0, 4, 6), rng.integers(-6, 7, 6), rng.integers(0, 3, 6))]
    re = over_one_den({key: rational() for key in keys[:int(rng.integers(0, 6))]})
    shared = dict(itertools.islice(re.terms.items(), int(rng.integers(0, 3))))
    im = over_one_den({**{key: rational() for key in keys[int(rng.integers(3, 7)):]}, **shared})
    a = taps(int(rng.integers(1, 4)))
    b = a[:int(rng.integers(0, 3))] + taps(int(rng.integers(0, 3)))
    return ((re, a), (im, [(N, -c) for N, c in b])), ((re, b), (im, a))


def test_multi_tap_products_match_the_fraction_steps():
    # random complex factors with several taps each, resonances nu + N_g = 0, powers p > 0
    # and keys that cancel: the antiderivative is, as exact rationals, the sum over the
    # taps of c times the Fraction oracle's step at N_g, and its value at tau = 1 is
    # integrate_product_to_one of the same factors
    rng = np.random.default_rng(29)
    resonant = powered = cancelled = nonzero = 0
    for _ in range(400):
        for factors in random_complex_factors(rng):
            want, product = FractionSum(), FractionSum()
            for f, taps in factors:
                for N, c in taps:
                    for key, r in fraction_step(FractionSum(f.terms), N).items():
                        want.add(key, c * r)
                    for (p, nu, g), r in f.terms.items():
                        product.add((p, nu + N, g), c * r)
                        resonant += nu + N == 0
                        powered += p > 0
            cancelled += len({(p, nu + N, g) for f, taps in factors for N, _c in taps
                              for p, nu, g in f.nums}) - len(product)
            [got] = integrate_product(factors, [0])
            assert got.terms == want.terms
            assert at_one(got.terms) == integrate_product_to_one(factors, [0])[0].terms
            nonzero += not got.is_zero
    assert min(resonant, powered, cancelled) > 100 and nonzero > 500


def test_sibling_steps_are_the_single_shift_steps():
    # one call with a shift list gives each child what a call with its shift alone gives
    # (numerators, denominator and key order) and, as exact rationals, the sum over the
    # taps of c times the Fraction oracle's step at N_g + s; likewise the values at tau = 1.
    # The lists are m K for m >= 0 or for every m, in any order, with shifts
    # -(nu + N_g) mixed in that make a p = 0 term resonant
    rng = np.random.default_rng(30)
    resonant = children = zeros = 0
    for _ in range(100):
        for factors in random_complex_factors(rng):
            K, m_max = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            shifts = [m * K for m in range(-m_max * int(rng.integers(0, 2)), m_max + 1)]
            flat = {-(nu + N) for f, taps in factors for N, _c in taps for p, nu, _g in f.nums if not p}
            shifts += [s for s in rng.permutation(sorted(flat))[:3].tolist() if s not in shifts]
            rng.shuffle(shifts)
            steps, values = integrate_product(factors, shifts), integrate_product_to_one(factors, shifts)
            assert len(steps) == len(values) == len(shifts)
            for shift, got, value in zip(shifts, steps, values):
                [alone], [value_alone] = integrate_product(factors, [shift]), integrate_product_to_one(factors, [shift])
                assert (list(got.nums.items()), got.den) == (list(alone.nums.items()), alone.den), shift
                assert (list(value.nums.items()), value.den) == (list(value_alone.nums.items()), value_alone.den)
                want = FractionSum()
                for f, taps in factors:
                    for N, c in taps:
                        for key, r in fraction_step(FractionSum(f.terms), N + shift).items():
                            want.add(key, c * r)
                        resonant += any(not p and nu + N + shift == 0 for p, nu, _g in f.nums)
                assert got.terms == want.terms, shift
                assert value.terms == at_one(want.terms), shift
                children += 1
                zeros += value.is_zero
    assert resonant > 200 and children > 800 and 30 < zeros < children - 500


def test_value_is_rational_over_power_of_i_pi():
    # I(3, -3) = i / (6 pi), held as the one rational -1/6 over (i pi)^1
    x = resonance_integral((3, -3))
    assert x.terms == {(0, 0, 1): Fraction(-1, 6)}
    assert complex(x) == pytest.approx(1j / (6 * math.pi))


@pytest.mark.parametrize("call, Ns", [
    (resonance_integral, [1.5, -1.5]),
    (is_resonant, [0.5]),
    (quadrature_integral, [2, -0.5]),
])
def test_non_integer_beat_notes_rejected(call, Ns):
    with pytest.raises(ValueError, match="integers"):
        call(Ns)


def test_integer_valued_beat_notes_accepted():
    assert resonance_integral(np.array([3, -3])).terms == resonance_integral((3, -3)).terms
    assert is_resonant([3.0, -3.0])


def test_cheb_integral_matches_chebint():
    # the vectorised recurrence inside the quadrature oracle against numpy's loop,
    # on random complex coefficients up to the oracle's 2,048 nodes
    rng = np.random.default_rng(11)
    for n in (0, 1, 2, 7, 2048):
        coeffs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        want = np.polynomial.chebyshev.chebint(coeffs, lbnd=-1.0, scl=0.5)
        got = _cheb_integral(coeffs)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
