import numpy as np
import pytest
import scipy.linalg

from msgate import fidelity, hilbert, trotter
from msgate.pulses import PulseShape, rectangular, sin_squared
from msgate.trotter import TrotterConfig


def test_step_count_bound(base_params, rect):
    cfg = TrotterConfig()
    # max |N| = max_harmonic + m_max * K + L = 0 + 84 + 25
    assert cfg.max_beat_note(base_params, rect) == 109
    assert cfg.num_steps(base_params, rect) == int(np.ceil(2 * np.pi * 10 * 109))


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
    assert np.allclose(trotter.propagate_numeric(p, rect, cfg), np.eye(p.dim))
    assert np.allclose(trotter.propagate_numeric_exact_displacement(p, rect, cfg),
                       np.eye(p.dim))


def test_unitarity(params_omega2, rect, unum_omega2):
    idx = hilbert.guard_band_indices(params_omega2)
    G = (unum_omega2.conj().T @ unum_omega2 - np.eye(params_omega2.dim))[np.ix_(idx, idx)]
    assert np.abs(G).max() < 1e-8


def test_deterministic(params_omega2, rect, unum_omega2):
    again = trotter.propagate_numeric(params_omega2, rect)
    assert np.array_equal(unum_omega2, again)


def test_step_halving(params_omega2, rect, weights, unum_omega2):
    cfg = TrotterConfig()
    n = cfg.num_steps(params_omega2, rect)
    fine = trotter.propagate_numeric(params_omega2, rect, TrotterConfig(steps_override=2 * n))
    i1 = 1 - fidelity.average_fidelity(unum_omega2, weights)
    i2 = 1 - fidelity.average_fidelity(fine, weights)
    assert abs(i1 - i2) < 1e-6
    # entrywise drift is set by the second-order step error at the default
    # step density (measured 2.7e-5 at these parameters)
    assert np.abs(fine - unum_omega2).max() < 1e-4


def test_left_endpoint_rule_close(params_omega2, rect, weights, unum_omega2):
    left = trotter.propagate_numeric(params_omega2, rect, TrotterConfig(midpoint=False))
    i_mid = 1 - fidelity.average_fidelity(unum_omega2, weights)
    i_left = 1 - fidelity.average_fidelity(left, weights)
    assert abs(i_mid - i_left) < 5e-5


def test_exact_displacement_small_eta(rect):
    from msgate.params import GateParams

    p = GateParams(eta=1e-9, K=28, L=25, omega_T=10.0)
    cfg = TrotterConfig(steps_override=2000, allow_understep=True)
    a = trotter.propagate_numeric(p, rect, cfg)
    b = trotter.propagate_numeric_exact_displacement(p, rect, cfg)
    assert np.abs(a - b).max() < 1e-10


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
    U = np.eye(params.dim, dtype=complex)
    hs = builder(params, pulse, (np.eye(params.dim),))((np.arange(n_steps) + 0.5) / n_steps)[0]
    for H in hs:
        U = scipy.linalg.expm(-1j * H / n_steps) @ U
    return U


# conjugate-symmetric but complex: a real drive without the time-reversal fold
SKEW = PulseShape.from_dict("skew", {0: 0.5, 1: 0.25j, -1: -0.25j})


# step norms ||H_b dtau|| at these parameters: 0.26 at 400 steps (around the
# 1/4 squaring threshold chunk by chunk), 0.053 at 2000, 1.7 at 60 (3 squarings)
@pytest.mark.parametrize("pulse, n_steps", [
    (rectangular(), 400), (sin_squared(), 400), (rectangular(), 401), (SKEW, 400),
    (sin_squared(), 60), (rectangular(), 2000),
], ids=["rect", "sin2", "rect-401-odd", "skew-unfolded", "sin2-60-squared", "rect-2000-unscaled"])
@pytest.mark.parametrize("route, builder", [
    (trotter.propagate_numeric, hilbert.sideband_hamiltonian),
    (trotter.propagate_numeric_exact_displacement, hilbert.displacement_hamiltonian),
], ids=["series", "exact_displacement"])
def test_blocked_kernel_matches_dense_reference(monkeypatch, params_omega2, pulse, n_steps,
                                                route, builder):
    # small chunks so the steps cross chunk boundaries, the last one partial
    monkeypatch.setattr(trotter, "_CHUNK", 128)
    U = route(params_omega2, pulse, TrotterConfig(steps_override=n_steps, allow_understep=True))
    ref = _dense_reference(builder, params_omega2, pulse, n_steps)
    assert np.abs(U - ref).max() <= 1e-12
    assert hilbert.unitarity_defect(U) <= 1e-12


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
    with pytest.raises(ValueError, match="not finite"):
        trotter.propagate_numeric(base_params.replace(omega_T=omega_T), rect, cfg)
