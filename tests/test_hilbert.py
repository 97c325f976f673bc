import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from msgate import hilbert
from msgate.hilbert import (
    collective_spin,
    collective_spins,
    hamiltonian_at,
    laguerre,
    matrix_exp,
    sideband_operator,
)
from msgate.params import GateParams, beat_note
from msgate.pulses import PulseShape, envelope_at, rectangular, sin_squared


def laguerre_series(a, b, x):
    """Independent oracle: explicit series sum_k (-1)^k C(a+b, a-k) x^k / k!."""
    return sum((-1) ** k * math.comb(a + b, a - k) * x ** k / math.factorial(k)
               for k in range(a + 1))


def test_laguerre_low_orders():
    assert laguerre(0, 3, 0.5) == pytest.approx(1.0)
    assert laguerre(1, 1, 0.0324) == pytest.approx(1.9676)


@pytest.mark.parametrize("a,b,x", [(3, 2, 0.7), (5, 0, 1.3), (8, 4, 0.2), (2, 7, 2.5)])
def test_laguerre_matches_series(a, b, x):
    assert laguerre(a, b, x) == pytest.approx(laguerre_series(a, b, x), rel=1e-12)


def test_laguerre_rejects_negative_orders():
    with pytest.raises(ValueError):
        laguerre(-1, 0, 0.1)


def test_sideband_zero_coupling_is_identity():
    assert np.allclose(sideband_operator(0, 0.0, 8), np.eye(8))


def test_sideband_vacuum_elements():
    eta = 0.18
    A0 = sideband_operator(0, eta, 8)
    assert A0[0, 0] == pytest.approx(math.exp(-0.0162))
    A1 = sideband_operator(1, eta, 8)
    assert A1[1, 0] == pytest.approx(1j * eta * math.exp(-eta ** 2 / 2))


def test_sideband_adjoint_relation():
    # A_{-m} = (-1)^m A_m^dagger holds exactly even on the truncated space
    for m in (1, 2, 3):
        Am = sideband_operator(m, 0.21, 9)
        Amin = sideband_operator(-m, 0.21, 9)
        assert np.allclose(Amin, (-1) ** m * Am.conj().T, atol=1e-14)


def test_sideband_matches_laguerre_closed_form():
    eta, n_dim, m_max = 0.18, 10, 3
    for m in range(0, m_max + 1):
        Am = sideband_operator(m, eta, n_dim)
        for n in range(n_dim - m_max - m):
            want = hilbert.sideband_element_closed_form(m, eta, n)
            assert Am[n + m, n] == pytest.approx(want, rel=1e-12)


def test_sideband_rejects_large_m():
    with pytest.raises(ValueError):
        sideband_operator(9, 0.1, 8)


def test_collective_spin_parity():
    J = collective_spins()
    assert np.allclose(collective_spin(2), J.Jx)
    assert np.allclose(collective_spin(0), J.Jx)
    assert np.allclose(collective_spin(-3), 1j * J.Jy)
    for m in range(-3, 4):
        assert np.allclose(collective_spin(m), collective_spin(m + 2))


def test_collective_spin_algebra():
    J = collective_spins()
    assert np.allclose(J.Jx @ J.Jy - J.Jy @ J.Jx, 1j * J.Jz, atol=1e-14)
    # J_m J_{-m}: -Jy^2 for odd m, Jx^2 for even m
    assert np.allclose(collective_spin(1) @ collective_spin(-1), -J.Jy2)
    assert np.allclose(collective_spin(2) @ collective_spin(-2), J.Jx2)
    assert np.allclose(J.Jxy, 0.5 * (np.kron(hilbert.SIGMA_X, hilbert.SIGMA_Y)
                                     + np.kron(hilbert.SIGMA_Y, hilbert.SIGMA_X)))


def test_matrix_exp_identity_and_phases():
    assert np.allclose(matrix_exp(np.zeros((6, 6))), np.eye(6))
    theta = 0.731
    gen = 1j * theta * np.kron(hilbert.SIGMA_Z / 2, np.eye(3))
    got = matrix_exp(gen)
    want = np.kron(np.diag([np.exp(1j * theta / 2), np.exp(-1j * theta / 2)]), np.eye(3))
    assert np.allclose(got, want, atol=1e-13)


def test_matrix_exp_random_antihermitian_is_unitary(rng):
    X = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    A = X - X.conj().T
    U = matrix_exp(A)
    assert hilbert.unitarity_defect(U) < 1e-10


def test_matrix_exp_rejects_nonfinite():
    A = np.zeros((2, 2), dtype=complex)
    A[0, 0] = np.nan
    with pytest.raises(ValueError):
        matrix_exp(A)


def test_hamiltonian_zero_drive(base_params, rect):
    H = hamiltonian_at(0.37, base_params.replace(omega_T=0.0), rect)
    assert np.abs(H).max() == 0.0


def test_hamiltonian_hermitian(base_params, rect, rng):
    p = base_params.replace(omega_T=29.93)
    for tau in rng.uniform(0, 1, 5):
        H = hamiltonian_at(float(tau), p, rect)
        assert hilbert.hermiticity_defect(H) < 1e-12 * max(1.0, np.abs(H).max())


def test_hamiltonian_small_eta_limit(rect):
    # eta -> 0 leaves only the carrier: 2 * omega_T * cos(2 pi L tau) * Jx x 1
    p = GateParams(eta=1e-9, K=28, L=25, omega_T=3.1)
    J = collective_spins()
    for tau in (0.0, 0.21, 0.64):
        H = hamiltonian_at(tau, p, rect)
        want = 2 * 3.1 * np.cos(2 * np.pi * 25 * tau) * np.kron(J.Jx, np.eye(8))
        assert np.abs(H - want).max() < 1e-7


def test_hamiltonian_vs_displacement_oracle(base_params, rect):
    # at tau = 0 the sideband-truncated form matches the exact displacement
    # construction up to O(eta^(m_max+1)) on the guard-banded block
    p = base_params.replace(omega_T=1.0)
    H_series = hamiltonian_at(0.0, p, rect)
    H_exact = hilbert.displacement_hamiltonian_at(0.0, p, rect)
    diff = np.abs(hilbert.guard_block(H_series - H_exact, p)).max()
    assert diff < 5 * p.eta ** (p.m_max + 1)
    assert diff > 0  # the truncation is real, the bound is not vacuous


SHAPES = [rectangular(), sin_squared(),
          # conjugate-symmetric with complex coefficients: f(1 - tau) != f(tau)
          PulseShape.from_dict("skew", {0: 0.5, 1: 0.25j, -1: -0.25j})]


def _explicit_term_sum(p, pulse, tau):
    """sum_{M,m,mu} omega_T c_M e^{i 2 pi N tau} J_m (x) A_m, term by term."""
    return sum(p.omega_T * pulse.c(M) * np.exp(2j * np.pi * beat_note(M, m, mu, p) * tau)
               * np.kron(collective_spin(m), sideband_operator(m, p.eta, p.n_dim))
               for M in pulse.support for m in range(-p.m_max, p.m_max + 1) for mu in (-1, 1))


def _per_tau_displacement(p, pulse, tau):
    """omega_T f(tau) cos(2 pi L tau) (J+ (x) D + J- (x) D^H), with D(tau) from one
    eigh of the generator eta (a e^{-i 2 pi K tau} + a+ e^{i 2 pi K tau})."""
    J = collective_spins()
    a = hilbert.destroy(p.n_dim)
    phase = np.exp(-2j * np.pi * p.K * tau)
    gw, gv = np.linalg.eigh(p.eta * (phase * a + np.conj(phase) * a.conj().T))
    disp = (gv * np.exp(1j * gw)) @ gv.conj().T
    amp = p.omega_T * envelope_at(pulse, tau) * np.cos(2 * np.pi * p.L * tau)
    return amp * (np.kron(J.Jplus, disp) + np.kron(J.Jminus, disp.conj().T))


@pytest.mark.parametrize("pulse", SHAPES, ids=lambda s: s.name)
@pytest.mark.parametrize("tau", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("hamiltonian, oracle", [
    (hamiltonian_at, _explicit_term_sum),
    (hilbert.displacement_hamiltonian_at, _per_tau_displacement),
], ids=["series", "exact_displacement"])
def test_hamiltonian_matches_oracle(base_params, hamiltonian, oracle, pulse, tau):
    # every phase is 1 at tau = 0 and 1, so tau = 0.37 carries the check; L = 22 keeps
    # it off a carrier node.  max|H| is taken at tau = 1/2, where every shape here
    # peaks and |cos(2 pi L tau)| = 1 (the sin^2 envelope vanishes at 0 and 1)
    p = base_params.replace(L=22, omega_T=29.93)
    scale = np.abs(oracle(p, pulse, 0.5)).max()
    assert np.abs(hamiltonian(tau, p, pulse) - oracle(p, pulse, tau)).max() <= 1e-13 * scale


def _drive_peak(p, pulse):
    """The tau on a fine grid where |f(tau) cos(2 pi L tau)|, and so max|H(tau)|, is largest."""
    return max(np.linspace(0.0, 1.0, 2001),
               key=lambda t: abs(envelope_at(pulse, t) * np.cos(2 * np.pi * p.L * t)))


frame_points = st.builds(
    lambda eta, K, gap, omega_T, n_dim: GateParams(eta=eta, K=K, L=max(1, K - gap),
                                                   omega_T=omega_T, n_dim=n_dim),
    eta=st.floats(0.01, 0.5), K=st.integers(4, 50), gap=st.integers(1, 40),
    omega_T=st.floats(1.0, 40.0), n_dim=st.sampled_from([5, 8]))


@pytest.mark.parametrize("hamiltonian, oracle", [
    (hamiltonian_at, _explicit_term_sum),
    (hilbert.displacement_hamiltonian_at, _per_tau_displacement),
], ids=["series", "exact_displacement"])
@settings(max_examples=40, deadline=None)
@given(p=frame_points, pulse=st.sampled_from(SHAPES), tau=st.floats(0.0, 1.0))
@example(p=GateParams(eta=0.18, K=28, L=22, omega_T=29.93), pulse=SHAPES[2], tau=0.37)
def test_rotating_frame_matches_oracle(hamiltonian, oracle, p, pulse, tau):
    # the builders evaluate omega_T g(tau) R B_0 R^H with R = exp(i 2 pi K tau a+a); the
    # oracles sum every beat note or exponentiate D(tau) afresh.  The phases 2 pi N tau
    # carry rounding ~|N| eps, so K stays at or below 50, where that is below 1e-13
    scale = np.abs(oracle(p, pulse, _drive_peak(p, pulse))).max()
    assert np.abs(hamiltonian(tau, p, pulse) - oracle(p, pulse, tau)).max() <= 1e-13 * scale


def test_guard_band_indices(base_params):
    idx = hilbert.guard_band_indices(base_params)
    assert len(idx) == 4 * (base_params.n_dim - base_params.m_max)
    assert all(i % base_params.n_dim < 5 for i in idx)


def test_partial_trace_motion():
    rho_q = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    rho_m = np.diag([0.5, 0.25, 0.25]).astype(complex)
    rho = np.kron(rho_q, rho_m)
    # embed the 2x2 qubit factor in the helper's generic layout
    got = hilbert.partial_trace_motion(rho, 3)
    assert np.allclose(got, rho_q)
