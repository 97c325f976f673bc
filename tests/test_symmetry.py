"""Symmetry invariants behind the blocked numeric propagator.

H(tau) commutes with qubit exchange (SWAP) and with
Pi = exp(i pi Jx) (x) (-1)^{a+a}, and vanishes on the exchange singlets, so
``hilbert.symmetry_blocks`` holds all of its action.  Pi and SWAP are built
here from their definitions, independently of the block construction.

For a pulse with real Fourier coefficients H is also time-reversal
symmetric, D conj(H(tau)) D = H(1 - tau) with D = (-1)^{a+a}, which lets the
propagator compute half of its midpoint steps.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from msgate import hilbert, magnus
from msgate.params import GateParams, validate
from msgate.pulses import PulseShape, rectangular, sin_squared
from msgate.trotter import TrotterConfig


def _pi(n_dim):
    J = hilbert.collective_spins()
    return np.kron(scipy.linalg.expm(1j * np.pi * J.Jx), np.diag((-1.0) ** np.arange(n_dim)))


def _swap(n_dim):
    return np.kron(np.eye(4)[[0, 2, 1, 3]], np.eye(n_dim))


def _fock_parity(n_dim):
    return np.kron(np.eye(4), np.diag((-1.0) ** np.arange(n_dim)))


def _singlets(n_dim):
    return np.kron(np.array([[0], [1], [-1], [0]]) / np.sqrt(2), np.eye(n_dim))


def _assert_symmetric(H, n_dim):
    scale = np.abs(H).max()
    assert scale > 0
    for S in (_pi(n_dim), _swap(n_dim)):
        assert np.abs(H @ S - S @ H).max() <= 1e-13 * scale
    S = _singlets(n_dim)
    assert np.abs(H @ S).max() <= 1e-13 * scale
    assert np.abs(S.T @ H).max() <= 1e-13 * scale
    # the two blocks carry all of H
    blocks = hilbert.symmetry_blocks(n_dim)
    rebuilt = sum(Q @ (Q.conj().T @ H @ Q) @ Q.conj().T for Q in blocks)
    assert np.abs(rebuilt - H).max() <= 1e-13 * scale


gate_points = st.builds(
    lambda eta, K, gap, omega_T, n_dim: GateParams(eta=eta, K=K, L=max(1, K - gap),
                                                   omega_T=omega_T, n_dim=n_dim),
    eta=st.floats(0.01, 0.5), K=st.integers(4, 110), gap=st.integers(1, 40),
    omega_T=st.floats(1.0, 40.0), n_dim=st.sampled_from([5, 8]))


@pytest.mark.parametrize("hamiltonian_at", [
    hilbert.hamiltonian_at, hilbert.displacement_hamiltonian_at], ids=["series", "exact_displacement"])
@settings(max_examples=40, deadline=None)
@given(p=gate_points, tau=st.floats(0.0, 1.0), shaped=st.booleans())
def test_hamiltonian_commutes_with_symmetries(hamiltonian_at, p, tau, shaped):
    # away from the carrier and envelope nodes, where H = 0
    assume(abs(np.cos(2 * np.pi * p.L * tau)) > 1e-3)
    assume(not shaped or np.sin(np.pi * tau) ** 2 > 1e-3)
    _assert_symmetric(hamiltonian_at(tau, p, sin_squared() if shaped else rectangular()), p.n_dim)


@settings(max_examples=6, deadline=None)
@given(eta=st.floats(0.05, 0.3), K=st.integers(12, 40), gap=st.integers(2, 6))
def test_magnus_sum_commutes_with_symmetries(eta, K, gap):
    p = GateParams(eta=eta, K=K, L=K - gap, omega_T=20.0)
    assume(validate(p).ok)
    terms = magnus.magnus_terms(p, rectangular(), up_to=5)
    _assert_symmetric(sum(t.matrix for t in terms if t.order >= 2), p.n_dim)


@given(n_dim=st.integers(2, 12))
def test_symmetry_blocks_are_orthonormal_isometries(n_dim):
    blocks = hilbert.symmetry_blocks(n_dim)
    V = np.hstack(blocks + (_singlets(n_dim),))
    assert V.shape == (4 * n_dim, 4 * n_dim)
    assert np.abs(V.conj().T @ V - np.eye(4 * n_dim)).max() <= 1e-15
    assert sum(Q.shape[1] for Q in blocks) == 3 * n_dim
    for sign, Q in zip((1, -1), blocks):
        assert np.abs(_pi(n_dim) @ Q - sign * Q).max() <= 1e-15
        assert np.abs(_swap(n_dim) @ Q - Q).max() == 0.0


def _time_reversal_defects(builder, p, pulse, tau):
    """max|D_b conj(H_b(tau)) D_b - H_b(1 - tau)| per block and on the full
    space (last entry), with D_b = Q_b^H D Q_b, and max|H| over the gate."""
    spaces = hilbert.symmetry_blocks(p.n_dim) + (np.eye(p.dim),)
    defects = []
    for Q, (now, mirrored) in zip(spaces, builder(p, pulse, spaces)(np.array([tau, 1 - tau]))):
        D = Q.conj().T @ _fock_parity(p.n_dim) @ Q
        # the propagator reads D_b off Q_b as a diagonal of signs
        assert np.abs(np.abs(D) - np.eye(len(D))).max() <= 1e-15
        defects.append(np.abs(D @ now.conj() @ D - mirrored).max())
    return defects, np.abs(builder(p, pulse, spaces[-1:])(np.linspace(0, 1, 257))[0]).max()


@pytest.mark.parametrize("builder", [
    hilbert.sideband_hamiltonian, hilbert.displacement_hamiltonian], ids=["series", "exact_displacement"])
@settings(max_examples=40, deadline=None)
@given(p=gate_points, tau=st.floats(0.0, 1.0), shaped=st.booleans())
def test_time_reversal_maps_tau_to_one_minus_tau(builder, p, tau, shaped):
    pulse = sin_squared() if shaped else rectangular()
    defects, scale = _time_reversal_defects(builder, p, pulse, tau)
    # each of the phases 2 pi N tau and 2 pi N (1 - tau) is rounded by up to
    # 2 pi |N| eps (measured worst: 3.5 |N| eps over 1,500 random points);
    # relative to max|H(tau)| itself the defect is unbounded near the carrier nodes
    max_n = TrotterConfig().max_beat_note(p, pulse)
    assert max(defects) <= 4 * np.pi * max_n * np.finfo(float).eps * scale


@pytest.mark.parametrize("builder", [
    hilbert.sideband_hamiltonian, hilbert.displacement_hamiltonian], ids=["series", "exact_displacement"])
def test_complex_coefficients_break_time_reversal(builder):
    # conjugate-symmetric, so the drive is real, but f(1 - tau) != f(tau):
    # the fold condition (real coefficients) is not vacuous
    skew = PulseShape.from_dict("skew", {0: 0.5, 1: 0.25j, -1: -0.25j})
    p = GateParams(eta=0.18, K=28, L=25, omega_T=20.0)
    defects, scale = _time_reversal_defects(builder, p, skew, 0.2)
    assert min(defects) > 0.1 * scale
