import os
import pathlib
import resource
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from msgate import fidelity, hilbert, trotter
from msgate.pulses import PulseShape, rectangular, sin_squared
from msgate.trotter import TrotterConfig
from oracles import SKEW, frame_blocks, guard_band_indices, unitarity_defect


def _full(U, params):
    """The composite matrix of a block-form propagator."""
    return hilbert.embed(U, params.n_dim, 1.0)


def test_step_count_bound(base_params, rect, sin2):
    cfg = TrotterConfig()
    # max |N| = max_harmonic + m_max * K + L = 0 + 84 + 25
    assert cfg.max_beat_note(base_params, rect) == 109
    bound = int(np.ceil(2 * np.pi * 10 * 109))
    # the rect drive (taps +/-L) repeats L = 25 times: the bound rounded up to a multiple of L
    assert cfg.num_steps(base_params, rect) == 25 * -(-bound // 25) == 6850 >= bound
    # sin2 (taps L and L +/- 1, gcd 1) takes exactly the bound
    assert cfg.num_steps(base_params, sin2) == int(np.ceil(2 * np.pi * 10 * 110))


@pytest.mark.parametrize("shaped", [False, True])
def test_step_count_resolves_the_drive(base_params, shaped):
    pulse = sin_squared() if shaped else rectangular()
    cfg = TrotterConfig()
    beat = 2 * np.pi * cfg.safety * cfg.max_beat_note(base_params, pulse)
    # the bound holds: omega_T max|g| ||B_0|| from the generator and the drive on a fine grid
    p = base_params.replace(omega_T=50.0)
    norm = max(np.abs(np.linalg.eigvalsh(B)).max() for B in hilbert.sideband_hamiltonian(p))
    taps, coeffs = hilbert.drive_taps(p, pulse)
    drive = np.exp(2j * np.pi * np.outer(np.linspace(0, 1, 10001), taps)) @ coeffs
    assert p.omega_T * np.abs(drive).max() * norm <= cfg.max_drive_angle(p, pulse)
    # at a preset drive the beat notes set the step count, a 200 times stronger one sets it itself
    assert cfg.safety * cfg.max_drive_angle(p, pulse) < beat
    strong = p.replace(omega_T=1e4)
    assert cfg.num_steps(strong, pulse) >= cfg.safety * cfg.max_drive_angle(strong, pulse) > beat
    # and a drive that no product resolves is an error, unless the steps are given
    with pytest.raises(ValueError, match="resolving the drive takes"):
        cfg.num_steps(p.replace(omega_T=1e300), pulse)
    assert TrotterConfig(steps_override=100, allow_understep=True).num_steps(p.replace(omega_T=1e300), pulse) == 100


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts minor page faults as Linux does")
def test_repeated_unum_faults_no_memory_back_in(params_omega2, sin2):
    # a slice works in one buffer, so the heap top it leaves is not trimmed after every call
    # and faulted back in by the next (~3,900 faults per call when each temporary was freed
    # on its own)
    for _ in range(2):
        trotter.propagate_numeric(params_omega2, sin2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        trotter.propagate_numeric(params_omega2, sin2)
    assert (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3 < 100


def test_step_count_with_harmonics(base_params, sin2):
    assert TrotterConfig().max_beat_note(base_params, sin2) == 110


def test_understep_rejected(base_params, rect):
    with pytest.raises(ValueError):
        TrotterConfig(steps_override=100).num_steps(base_params, rect)
    cfg = TrotterConfig(steps_override=100, allow_understep=True)
    assert cfg.num_steps(base_params, rect) == 100


@pytest.mark.parametrize("cfg", [
    TrotterConfig(safety=0.0), TrotterConfig(safety=-3.0),
    TrotterConfig(steps_override=0, allow_understep=True),
], ids=["safety-0", "safety-negative", "override-0"])
def test_no_steps_rejected(base_params, rect, cfg):
    # zero steps would return the identity as the propagator
    with pytest.raises(ValueError, match="step count"):
        cfg.num_steps(base_params, rect)
    with pytest.raises(ValueError, match="step count"):
        trotter.propagate_numeric(base_params.replace(omega_T=10.0), rect, cfg)


def test_zero_drive_is_identity(base_params, rect):
    p = base_params.replace(omega_T=0.0)
    cfg = TrotterConfig(steps_override=200, allow_understep=True)
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
    from msgate.params import GateParams

    p = GateParams(eta=1e-9, K=28, L=25, omega_T=10.0)
    cfg = TrotterConfig(steps_override=2000, allow_understep=True)
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
    generators = builder(params)
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
    cfg = TrotterConfig() if n_steps is None else TrotterConfig(steps_override=n_steps,
                                                                allow_understep=True)
    U = _full(route(params_omega2, pulse, cfg), params_omega2)
    ref = _dense_reference(builder, params_omega2, pulse, cfg.num_steps(params_omega2, pulse))
    assert np.abs(U - ref).max() <= 1e-12
    assert unitarity_defect(U) <= 1e-12


@pytest.mark.parametrize("route", [
    trotter.propagate_numeric, trotter.propagate_numeric_exact_displacement,
], ids=["series", "exact_displacement"])
def test_non_hermitian_hamiltonian_rejected(base_params, route):
    # c_1 without its conjugate partner c_-1 makes H(tau) non-Hermitian
    bad = PulseShape.from_dict("bad", {1: 0.5})
    cfg = TrotterConfig(steps_override=200, allow_understep=True)
    with pytest.raises(ValueError, match="not Hermitian"):
        route(base_params.replace(omega_T=10.0), bad, cfg)


@pytest.mark.parametrize("omega_T", [float("nan"), float("inf")])
def test_non_finite_hamiltonian_rejected(base_params, rect, omega_T):
    cfg = TrotterConfig(steps_override=200, allow_understep=True)
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


def _non_hermitian(params):
    return tuple(B + np.triu(np.ones_like(B), 1) for B in hilbert.sideband_hamiltonian(params))


def _non_finite(params):
    return tuple(B * np.where(np.eye(len(B)), np.nan, 1.0) for B in hilbert.sideband_hamiltonian(params))


@pytest.mark.parametrize("builder, match", [(_non_hermitian, "not Hermitian"), (_non_finite, "not finite")],
                         ids=["non-hermitian", "non-finite"])
def test_bad_generator_raises_on_every_call(clear_transfer, base_params, rect, builder, match):
    # the generator guards run in the cached frame builder; an exception is not cached
    clear_transfer()
    cfg = TrotterConfig(steps_override=200, allow_understep=True)
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
        cfg = TrotterConfig(steps_override=n_steps, allow_understep=True)
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
