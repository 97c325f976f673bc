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
from hypothesis import assume, example, given, settings, strategies as st

from msgate import cli, fidelity, hilbert, magnus
from msgate.params import GateParams, validate
from msgate.pulses import PulseShape, rectangular, sin_squared
from oracles import explicit_term_sum, fock_offdiagonal_max, frame_blocks, full_space_transfer, per_tau_displacement


def _pi(n_dim):
    return np.kron(scipy.linalg.expm(1j * np.pi * hilbert.JX), np.diag((-1.0) ** np.arange(n_dim)))


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


def test_symmetry_blocks_match_kron_construction():
    # each column is one Fock level times a fixed qubit vector, entry for entry
    s = np.sqrt(0.5)
    qubits = ([(s, 0, 0, -s)], [(s, 0, 0, s), (0, s, s, 0)])
    for n_dim in range(2, 11):
        want = [np.array([np.kron(q, np.eye(n_dim)[n]) for n in range(n_dim)
                          for q in qubits[(n + parity) % 2]], dtype=complex).T for parity in (0, 1)]
        got = hilbert.symmetry_blocks(n_dim)
        assert len(got) == 2
        for Q, W in zip(got, want):
            assert Q.dtype == W.dtype and np.array_equal(Q, W)


@settings(max_examples=40, deadline=None)
@given(n_dim=st.integers(2, 12), size=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_to_blocks_matches_the_projection(n_dim, size, seed):
    # any J and A, not only symmetric ones: column j of Q_b is v_j (x) |n_j>
    gen = np.random.default_rng(seed)
    J, A = (gen.normal(size=s) + 1j * gen.normal(size=s) for s in ((size, 4, 4), (size, n_dim, n_dim)))
    composite = np.stack([np.kron(j, a) for j, a in zip(J, A)])
    # measured worst 1.4 eps max|J| max|A| over 300 random stacks
    tol = 8 * np.finfo(float).eps * np.abs(J).max() * np.abs(A).max()
    single = hilbert.to_blocks(J[0], A[0])
    for Q, (levels, _), X, X0 in zip(hilbert.symmetry_blocks(n_dim), hilbert.block_basis(n_dim),
                                     hilbert.to_blocks(J, A), single):
        assert np.array_equal(levels, np.argmax(np.abs(Q), axis=0) % n_dim)
        want = Q.conj().T @ composite @ Q
        assert X.shape == want.shape and X0.shape == want.shape[1:]
        assert np.abs(X - want).max() <= tol
        assert np.abs(X0 - want[0]).max() <= tol


def _forbidden(*args, **kwargs):
    raise AssertionError("a composite matrix was formed")


@pytest.mark.parametrize("pulse, propagators", [("rect", "U2,U3,U4,U5,Unum"), ("sin2", "Unum")])
def test_sweep_point_forms_no_composite_matrix(monkeypatch, tmp_path, clear_transfer, pulse, propagators):
    # from the Hamiltonian to the average fidelity everything stays in the blocks
    path = tmp_path / "point.cfg"
    path.write_text(f"eta = 0.18\nK = 28\nL = 25\nnbar = 0.02\npulse = {pulse}\naxis = omega\n"
                    f"grid = 30\npropagators = {propagators}\nmetric = average\n")
    spec = cli.sweep_from_config(cli.parse_config(str(path)))
    want = cli.run_sweep(spec)
    clear_transfer()  # the plan is built under the patches too
    fidelity._targets.cache_clear()
    for module, name in ((np, "kron"), (hilbert, "embed"), (hilbert, "symmetry_blocks")):
        monkeypatch.setattr(module, name, _forbidden)
    rows = cli.run_sweep(spec)
    assert rows == want and rows[0]["status"] == "ok"
    assert all(0 < rows[0][f"infid_{name}"] < 1 for name in propagators.split(","))


gate_points = st.builds(
    lambda eta, K, gap, omega_T, n_dim: GateParams(eta=eta, K=K, L=max(1, K - gap),
                                                   omega_T=omega_T, n_dim=n_dim),
    eta=st.floats(0.01, 0.5), K=st.integers(4, 110), gap=st.integers(1, 40),
    omega_T=st.floats(1.0, 40.0), n_dim=st.sampled_from([5, 8]))


@pytest.mark.parametrize("oracle", [explicit_term_sum, per_tau_displacement],
                         ids=["series", "exact_displacement"])
@settings(max_examples=40, deadline=None)
@given(p=gate_points, tau=st.floats(0.0, 1.0), shaped=st.booleans())
def test_hamiltonian_commutes_with_symmetries(oracle, p, tau, shaped):
    # H from kron of the qubit factors and the Fock operators: the output of ``embed``
    # commutes by construction.  Away from the carrier and envelope nodes, where H = 0
    assume(abs(np.cos(2 * np.pi * p.L * tau)) > 1e-3)
    assume(not shaped or np.sin(np.pi * tau) ** 2 > 1e-3)
    _assert_symmetric(oracle(p, sin_squared() if shaped else rectangular(), tau), p.n_dim)


@settings(max_examples=6, deadline=None)
@given(eta=st.floats(0.05, 0.3), K=st.integers(12, 40), gap=st.integers(2, 6))
def test_magnus_sum_commutes_with_symmetries(eta, K, gap):
    # Z_2..Z_5 from the full-space transfer pass (kron, not ``embed``), whose blocks
    # are the assembled ones
    p = GateParams(eta=eta, K=K, L=K - gap, omega_T=20.0)
    assume(not validate(p, rectangular()))
    P = [None] + [p.omega_T ** (k + 1) * X for k, X in enumerate(full_space_transfer(p, rectangular(), 5))]
    Z = 1j * (P[2] + P[3] + P[4] - 0.5 * (P[2] @ P[2]) + P[5] - 0.5 * (P[2] @ P[3] + P[3] @ P[2]))
    _assert_symmetric(Z, p.n_dim)
    blocks = [sum(Zb) for Zb in zip(*magnus.magnus_terms(p, rectangular(), up_to=5).values())]
    for Q, X in zip(hilbert.symmetry_blocks(p.n_dim), blocks):
        assert np.abs(Q.conj().T @ Z @ Q - X).max() <= 1e-12 * np.abs(Z).max()


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


@pytest.mark.parametrize("n_dim", [2, 5, 8, 9])
@pytest.mark.parametrize("singlet", [0.0, 1.0])
def test_embed_inverts_the_block_projection(n_dim, singlet):
    rng = np.random.default_rng(n_dim)
    blocks = hilbert.symmetry_blocks(n_dim)
    X = tuple(rng.normal(size=(Q.shape[1],) * 2) + 1j * rng.normal(size=(Q.shape[1],) * 2)
              for Q in blocks)
    U = hilbert.embed(X, n_dim, singlet)
    assert U.shape == (4 * n_dim, 4 * n_dim)
    # Q entries are sqrt(1/2), whose square is not 1/2 exactly: a few roundings per entry
    tol = 8 * np.finfo(float).eps * max(np.abs(x).max() for x in X)
    for Q, x in zip(blocks, X):
        assert np.abs(Q.conj().T @ U @ Q - x).max() <= tol
        assert np.abs(_singlets(n_dim).T @ U @ Q).max() <= tol
    assert np.abs(blocks[0].conj().T @ U @ blocks[1]).max() <= tol
    S = _singlets(n_dim)
    assert np.abs(S.T @ U @ S - singlet * np.eye(n_dim)).max() <= tol


@pytest.mark.parametrize("n_dim", [2, 5, 8, 9])
def test_level_block_matches_the_composite_slice(n_dim):
    # at odd n_dim the two blocks differ in size
    rng = np.random.default_rng(n_dim)
    X = tuple(rng.normal(size=(Q.shape[1],) * 2) + 1j * rng.normal(size=(Q.shape[1],) * 2)
              for Q in hilbert.symmetry_blocks(n_dim))
    U = hilbert.embed(X, n_dim, 0.0)
    tol = 8 * np.finfo(float).eps * max(np.abs(x).max() for x in X)
    for row in range(n_dim):
        for col in range(n_dim):
            got = hilbert.level_block(X, n_dim, row, col)
            assert got.shape == (4, 4)
            assert np.abs(got - U[row::n_dim, col::n_dim]).max() <= tol, (row, col)


def test_level_coefficients_form_no_composite_matrix(monkeypatch, clear_transfer):
    # Z_k is read in its blocks, from the assembly to every Fock-level coefficient
    p = GateParams(eta=0.18, K=28, L=25, omega_T=20.0)

    def read():
        terms = magnus.magnus_terms(p, rectangular(), up_to=4)
        return (magnus.level_coeff(terms[2], p.n_dim, 1, 1, hilbert.JY2 - np.eye(4) / 2),
                magnus.level_coeff(terms[3], p.n_dim, 1, 0, hilbert.JY),
                fock_offdiagonal_max(terms[2], p))

    want = read()
    clear_transfer()  # the plan is built under the patches too
    for module, name in ((np, "kron"), (hilbert, "embed"), (hilbert, "symmetry_blocks")):
        monkeypatch.setattr(module, name, _forbidden)
    assert read() == want


def _time_reversal_defects(builder, p, pulse, tau):
    """max|D_b conj(H_b(tau)) D_b - H_b(1 - tau)| per block and on the full
    space (last entry, from ``embed``), with D_b = Q_b^H D Q_b, and max|H| over the gate."""
    generators = builder(p.eta, p.n_dim, p.m_max)
    blocks = frame_blocks(generators, p, pulse, np.array([tau, 1 - tau]))
    spaces = hilbert.symmetry_blocks(p.n_dim) + (np.eye(4 * p.n_dim),)
    defects = []
    for Q, (now, mirrored) in zip(spaces, blocks + [hilbert.embed(blocks, p.n_dim, 0.0)]):
        D = Q.conj().T @ _fock_parity(p.n_dim) @ Q
        # the propagator reads D_b off Q_b as a diagonal of signs
        assert np.abs(np.abs(D) - np.eye(len(D))).max() <= 1e-15
        defects.append(np.abs(D @ now.conj() @ D - mirrored).max())
    gate = frame_blocks(generators, p, pulse, np.linspace(0, 1, 257))
    return defects, np.abs(hilbert.embed(gate, p.n_dim, 0.0)).max()


@pytest.mark.parametrize("builder", [
    hilbert.sideband_hamiltonian, hilbert.displacement_hamiltonian], ids=["series", "exact_displacement"])
@settings(max_examples=40, deadline=None)
@given(p=gate_points, tau=st.floats(0.0, 1.0), shaped=st.booleans())
# the corner where rotating rows and columns of D_0 separately exceeds the bound
@example(p=GateParams(eta=0.5, K=19, L=3, omega_T=1.0, n_dim=8), tau=0.0, shaped=False)
def test_time_reversal_maps_tau_to_one_minus_tau(builder, p, tau, shaped):
    pulse = sin_squared() if shaped else rectangular()
    defects, scale = _time_reversal_defects(builder, p, pulse, tau)
    # each of the phases 2 pi N tau and 2 pi N (1 - tau) is rounded by up to
    # 2 pi |N| eps (measured worst: 3.5 |N| eps over 1,500 random points);
    # relative to max|H(tau)| itself the defect is unbounded near the carrier nodes
    max_n = max(abs(N) for N in hilbert.drive_taps(p, pulse)[0]) + p.m_max * p.K
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
