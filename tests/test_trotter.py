import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from msgate import fidelity, hilbert, trotter
from msgate.params import GateParams
from msgate.pulses import PulseShape, rectangular, sin_squared
from msgate.trotter import TrotterConfig
from oracles import SKEW, frame_blocks, guard_band_indices, magnus_psi, piecewise_magnus, unitarity_defect


def _full(U, params):
    """The composite matrix of a block-form propagator."""
    return hilbert.embed(U, params.n_dim, 1.0)


def test_step_count_bound(base_params, rect, sin2):
    cfg = TrotterConfig()
    # max |N_g + m K| = L + m_max K = 25 + 84 for rect (taps +/-L)
    bound = int(np.ceil(2 * np.pi * 10 * 109))
    # the rect drive (taps +/-L) repeats L = 25 times: the bound rounded up to a multiple of L
    assert cfg.num_steps(base_params, rect) == 25 * -(-bound // 25) == 6850 >= bound
    # sin2 (taps L and L +/- 1, gcd 1) takes exactly the bound, one harmonic higher
    assert cfg.num_steps(base_params, sin2) == int(np.ceil(2 * np.pi * 10 * 110))
    # the drive term reads |omega_T|: the sign of the drive does not halve its resolution
    for pulse in (rect, sin2):
        strong = cfg.num_steps(base_params.replace(omega_T=3e3), pulse)
        assert cfg.num_steps(base_params.replace(omega_T=-3e3), pulse) == strong > 6850
    # a drive that no product resolves is an error, unless the steps are given
    for pulse in (rect, sin2):
        for omega_T in (1e300, float("inf")):
            strong = base_params.replace(omega_T=omega_T)
            with pytest.raises(ValueError, match="resolving the drive takes"):
                cfg.num_steps(strong, pulse)
            assert TrotterConfig(steps_override=100).num_steps(strong, pulse) == 100
    # so is a beat note that no product resolves, also one beyond float range (taken as inf)
    for K, steps in ((10 ** 300, "1.88e+302"), (10 ** 400, "inf")):
        with pytest.raises(ValueError, match=re.escape(f"resolving the drive takes {steps} steps")):
            cfg.num_steps(GateParams(eta=0.18, K=K, L=25), rect)


@st.composite
def real_drives(draw):
    """A conjugate-symmetric pulse with harmonics up to 6 and complex coefficients."""
    half = draw(st.dictionaries(st.integers(1, 6), st.complex_numbers(max_magnitude=1, allow_nan=False,
                                                                      allow_infinity=False), max_size=4))
    coeffs = {0: complex(draw(st.floats(-1, 1))), **half, **{-M: c.conjugate() for M, c in half.items()}}
    assume(any(coeffs.values()))
    return PulseShape.from_dict("random", coeffs)


@settings(max_examples=60, deadline=None)
@given(pulse=real_drives(), L=st.integers(1, 40), dK=st.integers(1, 40), eta=st.floats(0.01, 0.6),
       m_max=st.integers(1, 4), extra_dim=st.integers(0, 6), omega_T=st.floats(0, 300),
       safety=st.floats(0.5, 20))
def test_step_count_resolves_the_drive(pulse, L, dK, eta, m_max, extra_dim, omega_T, safety):
    p = GateParams(eta=eta, K=L + dK, L=L, omega_T=omega_T, n_dim=m_max + 2 + extra_dim, m_max=m_max)
    n_steps = TrotterConfig(safety=safety).num_steps(p, pulse)
    taps, coeffs = hilbert.drive_taps(p, pulse)
    # no step turns a beat note by more than 2 pi / safety ...
    beat = max(abs(N + m * p.K) for N in taps for m in range(-m_max, m_max + 1))
    assert n_steps >= safety * 2 * np.pi * beat
    # ... nor the state by more than 1 / safety: omega_T max|g| ||B_b||, with g on a fine grid
    norm = max(np.abs(np.linalg.eigvalsh(B)).max() for B in hilbert.sideband_hamiltonian(eta, p.n_dim, m_max))
    drive = np.exp(2j * np.pi * np.outer(np.linspace(0, 1, 4001), taps)) @ coeffs
    assert n_steps >= safety * omega_T * np.abs(drive).max() * norm
    # the grid holds whole drive periods and is less than one period above the bound,
    # whose drive term is omega_T 2 sum_M |c_M| sum_m ||A_m||
    period = trotter.drive_period(taps)
    drive_bound = omega_T * 2 * sum(abs(pulse.c(M)) for M in pulse.support) * sum(
        np.abs(A).max() for A in hilbert.sideband_operators(eta, p.n_dim, m_max))
    assert n_steps % period == 0
    assert n_steps < safety * max(2 * np.pi * beat, drive_bound) * (1 + 1e-12) + period


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts minor page faults as Linux does")
@pytest.mark.parametrize("K", [28, 106], ids=["K28", "fig4b-K106"])
def test_repeated_unum_faults_no_memory_back_in(params_omega2, K):
    # a slice works in one buffer, so the heap top it leaves is not trimmed after every call
    # and faulted back in by the next (~3,900 faults per call when each temporary was freed
    # on its own).  In a fresh interpreter: the heap that earlier tests leave sets glibc's
    # trim threshold, and with it whether a call's heap top is trimmed at all.  At fig4b's
    # largest point the drive samples alone cross that threshold unless exp runs in place
    # and its buffer is freed before the slices (652 faults per call measured without either)
    p = params_omega2 if K == 28 else params_omega2.replace(K=106, L=103, omega_T=48.44)
    code = ("import resource\nfrom msgate import trotter\nfrom msgate.params import GateParams\n"
            "from msgate.pulses import sin_squared\n"
            f"p = {p!r}\n"
            "for _ in range(2):\n    trotter.propagate_numeric(p, sin_squared())\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(3):\n    trotter.propagate_numeric(p, sin_squared())\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)")
    root = pathlib.Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(root / "src")},
                         capture_output=True, text=True, check=True).stdout
    assert float(out) < 100


def test_steps_override_is_taken_as_given(base_params, rect):
    # below the resolution bound (6,850 steps) as well as above it, a numpy integer too
    for n_steps in (100, 6849, 20000, np.int64(4)):
        assert TrotterConfig(steps_override=n_steps).num_steps(base_params, rect) == n_steps


@pytest.mark.parametrize("field, value", [
    ("safety", -1.0), ("safety", 0.0), ("safety", float("nan")), ("safety", float("inf")),
    ("steps_override", 2.5), ("steps_override", 0),
], ids=["safety-negative", "safety-0", "safety-nan", "safety-inf", "override-fraction", "override-0"])
def test_bad_step_policy_rejected_when_built(field, value):
    # a step policy is valid when built: zero steps would return the identity as the
    # propagator, and 2.5 steps would run 2 on a grid of 2.5
    with pytest.raises(ValueError, match=field):
        TrotterConfig(**{field: value})


def test_zero_bound_takes_one_period():
    # no drive and no beat note (K = L = 0): the bound is 0, and any grid gives U = I
    p = GateParams(eta=0.18, K=0, L=0)
    assert TrotterConfig().num_steps(p, rectangular()) == 1
    assert np.abs(_full(trotter.propagate_numeric(p, rectangular()), p) - np.eye(4 * p.n_dim)).max() <= 1e-14


def test_zero_drive_is_identity(base_params, rect):
    p = base_params.replace(omega_T=0.0)
    cfg = TrotterConfig(steps_override=200)
    assert np.allclose(_full(trotter.propagate_numeric(p, rect, cfg), p), np.eye(4 * p.n_dim))
    assert np.allclose(_full(trotter.propagate_numeric_exact_displacement(p, rect, cfg), p),
                       np.eye(4 * p.n_dim))


def test_unitarity(params_omega2, rect, unum_omega2):
    idx = guard_band_indices(params_omega2)
    U = _full(unum_omega2, params_omega2)
    G = (U.conj().T @ U - np.eye(4 * params_omega2.n_dim))[np.ix_(idx, idx)]
    assert np.abs(G).max() < 1e-8


def test_deterministic(params_omega2, rect, unum_omega2):
    again = trotter.propagate_numeric(params_omega2, rect)
    assert all(map(np.array_equal, unum_omega2, again))


def test_step_halving(params_omega2, rect, weights, unum_omega2):
    cfg = TrotterConfig()
    n = cfg.num_steps(params_omega2, rect)
    fine = trotter.propagate_numeric(params_omega2, rect, TrotterConfig(steps_override=2 * n))
    i1 = 1 - fidelity.average_fidelity(unum_omega2, weights)
    i2 = 1 - fidelity.average_fidelity(fine, weights)
    assert abs(i1 - i2) < 1e-6
    # entrywise drift is set by the second-order step error at the default
    # step density (measured 2.7e-5 at these parameters)
    assert np.abs(_full(fine, params_omega2) - _full(unum_omega2, params_omega2)).max() < 1e-4


def test_exact_displacement_small_eta(rect):
    p = GateParams(eta=1e-9, K=28, L=25, omega_T=10.0)
    cfg = TrotterConfig(steps_override=2000)
    a = trotter.propagate_numeric(p, rect, cfg)
    b = trotter.propagate_numeric_exact_displacement(p, rect, cfg)
    assert np.abs(_full(a, p) - _full(b, p)).max() < 1e-10


def test_exact_displacement_vs_truncated(params_omega2, rect, weights, unum_omega2):
    exact = trotter.propagate_numeric_exact_displacement(params_omega2, rect)
    i_trunc = 1 - fidelity.average_fidelity(unum_omega2, weights)
    i_exact = 1 - fidelity.average_fidelity(exact, weights)
    assert abs(i_trunc - i_exact) < 1e-4
    # coarser sideband truncation must sit farther from the exact construction
    p1 = params_omega2.replace(m_max=1)
    i_m1 = 1 - fidelity.average_fidelity(trotter.propagate_numeric(p1, rect), weights)
    assert abs(i_m1 - i_exact) > abs(i_trunc - i_exact)


def _dense_reference(builder, params, pulse, n_steps):
    """Midpoint product of full-space matrix exponentials, one expm per step."""
    U = np.eye(4 * params.n_dim, dtype=complex)
    generators = builder(params.eta, params.n_dim, params.m_max)
    taus = (np.arange(n_steps) + 0.5) / n_steps
    for lo in range(0, n_steps, 500):  # a few hundred 32 x 32 step Hamiltonians at a time
        for H in hilbert.embed(frame_blocks(generators, params, pulse, taus[lo:lo + 500]), params.n_dim, 0.0):
            U = scipy.linalg.expm(-1j * H / n_steps) @ U
    return U


# SKEW is conjugate-symmetric but complex: a real drive without the time-reversal fold.
# A real pulse with harmonics 0 and +/-5: taps +/-25, -20, 30, -30, 20 at L = 25, so the
# drive period d = 5 differs from L
PERIOD_5 = PulseShape.from_dict("period-5", {0: 0.5, 5: 0.25, -5: 0.25})
# the same period with complex coefficients: the power without the fold
SKEW_5 = PulseShape.from_dict("skew-5", {0: 0.5, 5: 0.25j, -5: -0.25j})


# step counts read off before the bound was computed from the drive taps: the beat notes
# set PERIOD_5's (rounded up to a multiple of d = 5), a strong drive sets the other three
@pytest.mark.parametrize("pulse, omega_T, safety, n_steps", [
    (PERIOD_5, 0.0, 10.0, 7165), (SKEW, 1e4, 10.0, 410978),
    (rectangular(), 1e4, 3.7, 152075), (PERIOD_5, 2e3, 10.0, 82200),
], ids=["period-5", "skew-strong", "rect-strong", "period-5-strong"])
def test_step_count_keeps_its_values(base_params, pulse, omega_T, safety, n_steps):
    assert TrotterConfig(safety=safety).num_steps(base_params.replace(omega_T=omega_T), pulse) == n_steps


# step norms ||H_b dtau|| at these parameters: 0.26 at 400 steps, 0.053 at 2000,
# 1.7 at 60, 0.015 at the default 6,850 (None); there, and at 400, 425 and 2000, the
# rect product is the power of one folded period (25 periods of 274, 16, 17 and 80
# steps; at 17 the fold takes a middle step), and PERIOD_5 at 405 steps that of 81
@pytest.mark.parametrize("pulse, n_steps", [
    (rectangular(), 400), (sin_squared(), 400), (rectangular(), 401), (SKEW, 400),
    (sin_squared(), 60), (rectangular(), 2000), (rectangular(), None),
    (rectangular(), 425), (PERIOD_5, 405), (SKEW_5, 400),
], ids=["rect", "sin2", "rect-401-odd", "skew-unfolded", "sin2-60-squared", "rect-2000-unscaled",
        "rect-default", "rect-425-odd-period", "period-5-405-odd-period", "skew-5-unfolded-power"])
@pytest.mark.parametrize("route, builder", [
    (trotter.propagate_numeric, hilbert.sideband_hamiltonian),
    (trotter.propagate_numeric_exact_displacement, hilbert.displacement_hamiltonian),
], ids=["series", "exact_displacement"])
def test_blocked_kernel_matches_dense_reference(params_omega2, pulse, n_steps, route, builder):
    cfg = TrotterConfig() if n_steps is None else TrotterConfig(steps_override=n_steps)
    U = _full(route(params_omega2, pulse, cfg), params_omega2)
    ref = _dense_reference(builder, params_omega2, pulse, cfg.num_steps(params_omega2, pulse))
    assert np.abs(U - ref).max() <= 1e-12
    assert unitarity_defect(U) <= 1e-12


@pytest.mark.parametrize("omega_T", [float("nan"), float("inf")])
def test_non_finite_hamiltonian_rejected(base_params, rect, omega_T):
    cfg = TrotterConfig(steps_override=200)
    for route in (trotter.propagate_numeric, trotter.propagate_numeric_exact_displacement):
        with pytest.raises(ValueError, match="not finite"):
            route(base_params.replace(omega_T=omega_T), rect, cfg)


@pytest.mark.parametrize("route", [
    trotter.propagate_numeric, trotter.propagate_numeric_exact_displacement,
], ids=["series", "exact_displacement"])
def test_frame_cache_hit_is_bit_identical(clear_transfer, params_omega2, rect, route):
    clear_transfer()
    cold = route(params_omega2, rect)
    hit = route(params_omega2, rect)
    info = trotter._frame.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert all(map(np.array_equal, cold, hit))


def test_routes_never_share_a_frame(clear_transfer, params_omega2, rect):
    clear_transfer()
    series = trotter.propagate_numeric(params_omega2, rect)
    exact = trotter.propagate_numeric_exact_displacement(params_omega2, rect)
    info = trotter._frame.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
    assert not np.array_equal(series[0], exact[0])
    # each route reads back its own entry
    assert all(map(np.array_equal, trotter.propagate_numeric(params_omega2, rect), series))
    assert all(map(np.array_equal, trotter.propagate_numeric_exact_displacement(params_omega2, rect), exact))
    assert trotter._frame.cache_info().hits == 2


def test_omega_sweep_builds_the_generator_once(clear_transfer, base_params, rect):
    clear_transfer()
    cfg = TrotterConfig()
    points = [base_params.replace(omega_T=w) for w in np.linspace(25.0, 45.0, 5)]
    # the beat notes set N at every point of the sweep
    (n_steps,) = {cfg.num_steps(p, rect) for p in points}
    for p in points:
        trotter.propagate_numeric(p, rect)
    info = trotter._frame.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, 1, 1)
    # a drive strong enough to raise N gets its own entry
    strong = base_params.replace(omega_T=1e3)
    assert cfg.num_steps(strong, rect) > n_steps
    trotter.propagate_numeric(strong, rect)
    info = trotter._frame.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


def _non_hermitian(eta, n_dim, m_max):
    return tuple(B + np.triu(np.ones_like(B), 1) for B in hilbert.sideband_hamiltonian(eta, n_dim, m_max))


def _non_finite(eta, n_dim, m_max):
    return tuple(B * np.where(np.eye(len(B)), np.nan, 1.0)
                 for B in hilbert.sideband_hamiltonian(eta, n_dim, m_max))


@pytest.mark.parametrize("builder, match", [(_non_hermitian, "not Hermitian"), (_non_finite, "not finite")],
                         ids=["non-hermitian", "non-finite"])
def test_bad_generator_raises_on_every_call(clear_transfer, base_params, rect, builder, match):
    # the generator guards run in the cached frame builder; an exception is not cached
    clear_transfer()
    cfg = TrotterConfig(steps_override=200)
    for _ in range(3):
        with pytest.raises(ValueError, match=match):
            trotter._propagate(builder, base_params.replace(omega_T=10.0), rect, cfg)
    info = trotter._frame.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 3, 0)


def test_frame_arrays_are_read_only(params_omega2, rect):
    p = params_omega2
    frame = trotter._frame(hilbert.sideband_hamiltonian, p.eta, p.K, p.n_dim, p.m_max,
                           TrotterConfig().num_steps(p, rect))
    arrays = [a for block in frame for a in block]  # (levels, lam, V, W, h) per block
    assert len(arrays) == 10 and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        arrays[3][0, 0] = 0


def _plain_product(monkeypatch, route, params, pulse, cfg):
    """The product over every step: with period 1 the kernel never takes the power."""
    with monkeypatch.context() as m:
        m.setattr(trotter, "drive_period", lambda taps: 1)
        return route(params, pulse, cfg)


@pytest.mark.parametrize("pulse", [rectangular(), PERIOD_5], ids=["rect-d25", "period-5"])
@pytest.mark.parametrize("rule", ["midpoint"])  # the one step rule, named in the test ids
@pytest.mark.parametrize("route", [
    trotter.propagate_numeric, trotter.propagate_numeric_exact_displacement,
], ids=["series", "exact_displacement"])
def test_period_power_matches_plain_product(monkeypatch, params_omega2, pulse, rule, route):
    period = trotter.drive_period(hilbert.drive_taps(params_omega2, pulse)[0])
    assert period == (5 if pulse is PERIOD_5 else 25)
    # 400 steps: 16 or 80 per period, step norm 0.26; 401 is no multiple of d
    for n_steps in (400, 401):
        cfg = TrotterConfig(steps_override=n_steps)
        U = _full(route(params_omega2, pulse, cfg), params_omega2)
        plain = _full(_plain_product(monkeypatch, route, params_omega2, pulse, cfg), params_omega2)
        if n_steps % period:
            assert np.array_equal(U, plain)
        else:
            assert np.abs(U - plain).max() <= 1e-12


def test_period_power_unitarity_no_worse(monkeypatch, params_omega2, rect, unum_omega2):
    # the default rect grid, 6,850 = 25 periods of 274 steps
    cfg = TrotterConfig(steps_override=TrotterConfig().num_steps(params_omega2, rect))
    plain = _full(_plain_product(monkeypatch, trotter.propagate_numeric, params_omega2, rect, cfg),
                  params_omega2)
    U = _full(unum_omega2, params_omega2)
    assert np.abs(U - plain).max() <= 1e-12
    assert unitarity_defect(U) <= unitarity_defect(plain)


@pytest.mark.parametrize("pulse", [rectangular(), sin_squared(), PERIOD_5, SKEW, SKEW_5],
                         ids=["rect", "sin2", "period-5", "skew", "skew-5"])
def test_real_coefficient_drive_is_mirror_symmetric_on_its_period(params_omega2, pulse):
    # the fold multiplies only the first half and the middle step of a period, and the
    # finiteness guard sees only the drive there: both rest on g(1/p - tau) = g(tau) on the
    # midpoint grid of the first period, which holds exactly when every c_g is real
    n_steps = TrotterConfig().num_steps(params_omega2, pulse)
    taps, coeffs = hilbert.drive_taps(params_omega2, pulse)
    period = trotter.drive_period(taps)
    n = n_steps // (period if n_steps % period == 0 else 1)
    g = np.exp(2j * np.pi * np.outer((np.arange(n) + 0.5) / n_steps, taps)) @ coeffs
    gap = np.abs(g - g[::-1]).max() / np.abs(g).max()
    if coeffs.imag.any():
        assert gap > 0.5  # measured ~1
    else:
        assert gap <= 1e-12  # measured <= 2.3e-14


@pytest.mark.parametrize("pulse", [sin_squared(), SKEW], ids=["sin2", "skew"])
def test_aperiodic_slices_keep_the_product(monkeypatch, params_omega2, pulse):
    # d = 1: every step is taken; slicing the pair stack must not change a bit of U,
    # so U equals the one-slice product, the whole stack chained at once
    assert trotter.drive_period(hilbert.drive_taps(params_omega2, pulse)[0]) == 1
    for route in (trotter.propagate_numeric, trotter.propagate_numeric_exact_displacement):
        U = route(params_omega2, pulse)
        for size in (1, 4, 1 << 30):
            with monkeypatch.context() as m:
                m.setattr(trotter, "_SLICE", size)
                assert all(map(np.array_equal, route(params_omega2, pulse), U))


@pytest.fixture(scope="module")
def magnus_route():
    """``piecewise_magnus``, each result kept per (params, pulse name, S) for this module's tests."""
    kept = {}

    def route(params, pulse, S):
        if (key := (params, pulse.name, S)) not in kept:
            kept[key] = piecewise_magnus(params, pulse, S)
        return kept[key]
    return route


def _gap(U, V):
    return max(np.abs(a - b).max() for a, b in zip(U, V))


@pytest.mark.parametrize("x, y", [(0.0, 0.0), (0.3, 0.0), (0.3, 1e-3), (0.3, 0.02), (5.7, -0.004), (12.1, 0.009),
                                  (-3.0, 3.0), (2.0, -2.0), (0.0, 1e-12)])
def test_magnus_double_integral_matches_quadrature(x, y):
    # both branches of magnus_psi, the closed form and its series near y = 0, against adaptive quadrature
    parts = [scipy.integrate.dblquad(lambda t, s: f(2 * np.pi * (x * s + y * t)), 0, 1, 0, lambda s: s,
                                     epsabs=1e-14, epsrel=1e-13)[0] for f in (np.cos, np.sin)]
    assert abs(magnus_psi(x, y) - complex(*parts)) <= 1e-15


# two golden points: fig2 (rect) at its row nearest omega_2, fig4a (sin^2) at omega_T = 50
GOLDEN_POINTS = [(rectangular(), 30.4207194527), (sin_squared(), 50.0)]


@pytest.mark.parametrize("pulse, omega_T", GOLDEN_POINTS, ids=["fig2-rect", "fig4a-sin2"])
def test_piecewise_magnus_converges_at_fourth_order(magnus_route, base_params, pulse, omega_T):
    # the oracle's step error falls 16x per doubling of S (measured 15.5 and 15.6 here)
    p = base_params.replace(omega_T=omega_T)
    U = [magnus_route(p, pulse, S) for S in (400, 800, 1600)]
    assert 14 <= _gap(U[0], U[1]) / _gap(U[1], U[2]) <= 17


def _assert_unum_within_its_step_error(magnus_route, p, pulse):
    """``Unum`` at its step count N (rounded up to an even number of drive periods, so that
    N/2 keeps the period power) against the oracle at S = 1,600 steps, whose error there is
    below 1e-3 of the kernel's.  Their gap is the kernel's step error: within 1% of its
    Richardson estimate |U(N) - U(N/2)|/3 (measured within 0.1%), and the Richardson-extrapolated
    kernel U(N) + (U(N) - U(N/2))/3 lies within 2% of that estimate from the oracle (measured <= 0.6%)."""
    period = 2 * trotter.drive_period(hilbert.drive_taps(p, pulse)[0])
    n_steps = period * -(-TrotterConfig().num_steps(p, pulse) // period)
    U, U_half = (trotter.propagate_numeric(p, pulse, TrotterConfig(steps_override=n))
                 for n in (n_steps, n_steps // 2))
    step_error = _gap(U, U_half) / 3
    ref = magnus_route(p, pulse, 1600)
    assert _gap(U, ref) <= 1.01 * step_error
    assert _gap([u + (u - h) / 3 for u, h in zip(U, U_half)], ref) <= 0.02 * step_error


@pytest.mark.parametrize("pulse, omega_T", GOLDEN_POINTS, ids=["fig2-rect", "fig4a-sin2"])
def test_unum_matches_piecewise_magnus_at_golden_points(magnus_route, base_params, pulse, omega_T):
    _assert_unum_within_its_step_error(magnus_route, base_params.replace(omega_T=omega_T), pulse)


@pytest.mark.parametrize("pulse", [PERIOD_5, SKEW, sin_squared()], ids=["period-5", "skew", "sin2"])
def test_fold_and_period_power_match_piecewise_magnus(magnus_route, params_omega2, pulse):
    # the oracle takes neither: PERIOD_5's product is the 5th power of a folded period, sin^2
    # folds its one period, and SKEW (complex coefficients) takes every step
    _assert_unum_within_its_step_error(magnus_route, params_omega2, pulse)


_RSS_SCRIPT = """
import resource, sys
from msgate import trotter
from msgate.params import GateParams
from msgate.pulses import sin_squared
p = GateParams(eta=0.18, K=106, L=103, nbar=0.02, n_dim=8, m_max=3, k_max=4, omega_T=9.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
trotter.propagate_numeric(p, sin_squared())
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(sys.platform == "win32", reason="resource is POSIX only")
def test_aperiodic_memory_does_not_grow_with_steps():
    # sin2 at K = 106 takes every one of its 26,516 steps.  Peak RSS growth over the
    # call, fresh interpreter, one BLAS thread: measured 6.2 MB; 38 MB when the whole
    # pair stack of the folded half is held at once.  Bound: twice the measured value.
    src = str(pathlib.Path(trotter.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _RSS_SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    growth_mb = int(out) / (1024 * 1024 if sys.platform == "darwin" else 1024)  # bytes / KiB
    assert growth_mb < 12.5
