"""Symmetry invariants behind the blocked numeric propagator.

H(tau) commutes with qubit exchange (SWAP) and with
Pi = exp(i pi Jx) (x) (-1)^{a+a}, and vanishes on the exchange singlets, so
``hilbert.symmetry_blocks`` holds all of its action.  Pi and SWAP are built
here from their definitions, independently of the block construction.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from msgate import hilbert, magnus
from msgate.params import GateParams, validate
from msgate.pulses import rectangular, sin_squared


def _pi(n_dim):
    J = hilbert.collective_spins()
    return np.kron(scipy.linalg.expm(1j * np.pi * J.Jx), np.diag((-1.0) ** np.arange(n_dim)))


def _swap(n_dim):
    return np.kron(np.eye(4)[[0, 2, 1, 3]], np.eye(n_dim))


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
