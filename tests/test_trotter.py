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


def _dense_reference(hamiltonian_at, params, pulse, n_steps):
    """Midpoint product of full-space matrix exponentials, one expm per step."""
    U = np.eye(params.dim, dtype=complex)
    for n in range(n_steps):
        H = hamiltonian_at((n + 0.5) / n_steps, params, pulse)
        U = scipy.linalg.expm(-1j * H / n_steps) @ U
    return U


@pytest.mark.parametrize("pulse", [rectangular(), sin_squared()], ids=["rect", "sin2"])
@pytest.mark.parametrize("route, hamiltonian_at", [
    (trotter.propagate_numeric, hilbert.hamiltonian_at),
    (trotter.propagate_numeric_exact_displacement, hilbert.displacement_hamiltonian_at),
], ids=["series", "exact_displacement"])
def test_blocked_kernel_matches_dense_reference(monkeypatch, params_omega2, pulse,
                                                route, hamiltonian_at):
    # small chunks so the 400 steps cross chunk boundaries, the last one partial
    monkeypatch.setattr(trotter, "_CHUNK", 128)
    n_steps = 400
    U = route(params_omega2, pulse, TrotterConfig(steps_override=n_steps, allow_understep=True))
    ref = _dense_reference(hamiltonian_at, params_omega2, pulse, n_steps)
    assert np.abs(U - ref).max() <= 1e-12
    assert hilbert.unitarity_defect(U) <= 1e-12


def test_non_hermitian_hamiltonian_rejected(base_params):
    # c_1 without its conjugate partner c_-1 makes H(tau) non-Hermitian
    bad = PulseShape.from_dict("bad", {1: 0.5})
    cfg = TrotterConfig(steps_override=200, allow_understep=True)
    with pytest.raises(ValueError, match="not Hermitian"):
        trotter.propagate_numeric(base_params.replace(omega_T=10.0), bad, cfg)
