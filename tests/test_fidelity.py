import numpy as np
import pytest
import scipy.linalg

from msgate import hilbert
from msgate.fidelity import ThermalWeights, average_fidelity, bell_fidelity
from oracles import JX2, closed_form_bell


def target_unitary(angle=np.pi / 2):
    """The qubit target exp(i angle Jy^2)."""
    return scipy.linalg.expm(1j * angle * hilbert.JY2)


def test_thermal_weights_formula():
    w = ThermalWeights(0.02, 8)
    n = np.arange(8)
    assert np.allclose(w.weights, 0.02 ** n / 1.02 ** (n + 1))
    assert np.all(np.diff(w.weights) < 0)
    assert w.weights.sum() <= 1.0
    assert 0 < w.tail_mass < 1e-12
    # the presets and benchmarks run nbar = 0.02, whose tail mass (~1e-14) the benchmark
    # compares at 1e-9 relative: the overflow-free form keeps every bit of the plain one
    for n_dim in (8, 10, 12):
        n = np.arange(n_dim)
        assert ThermalWeights(0.02, n_dim).tail_mass == float(1.0 - (0.02 ** n / 1.02 ** (n + 1)).sum())


@pytest.mark.parametrize("nbar", [1e45, 1e300])
def test_thermal_weights_finite_at_huge_nbar(nbar):
    # nbar^n overflows from nbar ~ 1e44 at n_dim = 8
    w = ThermalWeights(nbar, 8)
    assert np.all(np.isfinite(w.weights)) and np.all(w.weights > 0)
    assert 0.0 <= w.tail_mass <= 1.0


def test_thermal_weights_ground_state():
    w = ThermalWeights(0.0, 6)
    assert w.weights[0] == 1.0
    assert np.all(w.weights[1:] == 0.0)
    assert w.tail_mass == 0.0


# ---------------------------------------------------------------------------
# Oracles: both metrics on the composite matrix, one Fock level at a time.
# ---------------------------------------------------------------------------

def _bell_oracle(U, weights, target_phase=-np.pi / 2):
    n_dim = weights.n_dim
    psi_t = np.zeros(4, dtype=complex)
    psi_t[0] = 1 / np.sqrt(2)
    psi_t[3] = np.exp(1j * target_phase) / np.sqrt(2)
    fid = 0.0
    for n in range(n_dim):
        # column of U for qubit |00>, Fock |n>; project each output Fock level
        amps = psi_t.conj() @ U[:, n].reshape(4, n_dim)
        fid += weights.weights[n] * float(np.sum(np.abs(amps) ** 2))
    return fid


def _average_oracle(U, weights, target_angle=np.pi / 2):
    n_dim = weights.n_dim
    W = U @ np.kron(target_unitary(target_angle), np.eye(n_dim)).conj().T
    tr = 0j
    for n in range(n_dim):
        for q in range(4):
            tr += weights.weights[n] * W[q * n_dim + n, q * n_dim + n]
    return float(np.abs(tr)) / 4.0


def _singlets(n_dim):
    return np.kron(np.array([[0], [1], [-1], [0]]) / np.sqrt(2), np.eye(n_dim))


def _composite(blocks, n_dim):
    """V diag(X_+, X_-, 1) V^H with V = [Q_+, Q_-, singlets], built without ``embed``."""
    V = np.hstack(hilbert.symmetry_blocks(n_dim) + (_singlets(n_dim),))
    return V @ scipy.linalg.block_diag(*blocks, np.eye(n_dim)) @ V.conj().T


def _project(U, n_dim):
    """Block form of a composite propagator; asserts that the projection drops nothing."""
    blocks = tuple(Q.conj().T @ U @ Q for Q in hilbert.symmetry_blocks(n_dim))
    assert np.abs(_composite(blocks, n_dim) - U).max() <= 1e-15
    return blocks


def _random_blocks(gen, n_dim):
    """Random unitary blocks: the QR factors of the diagonal blocks of one random
    4 n_dim square matrix."""
    X = gen.normal(size=(4 * n_dim, 4 * n_dim)) + 1j * gen.normal(size=(4 * n_dim, 4 * n_dim))
    edges = np.cumsum([0] + [Q.shape[1] for Q in hilbert.symmetry_blocks(n_dim)])
    return tuple(np.linalg.qr(X[a:b, a:b])[0] for a, b in zip(edges, edges[1:]))


@pytest.mark.parametrize("n_dim", [5, 8])  # blocks of 7 and 8, two of 12
@pytest.mark.parametrize("nbar", [0.0, 0.05])
def test_block_form_matches_composite_oracle(n_dim, nbar):
    gen = np.random.default_rng(7)
    w = ThermalWeights(nbar, n_dim)
    for _ in range(4):
        blocks = _random_blocks(gen, n_dim)
        U = _composite(blocks, n_dim)
        assert abs(bell_fidelity(blocks, w) - _bell_oracle(U, w)) <= 1e-14
        assert abs(average_fidelity(blocks, w) - _average_oracle(U, w)) <= 1e-14
    # near the target, where infidelities are small: T_b times a small random rotation
    near = tuple(T @ scipy.linalg.expm(0.01j * (H + H.conj().T))
                 for T, H in zip(_project(np.kron(target_unitary(), np.eye(n_dim)), n_dim),
                                 _random_blocks(gen, n_dim)))
    U = _composite(near, n_dim)
    assert abs(bell_fidelity(near, w) - _bell_oracle(U, w)) <= 1e-14
    assert abs(average_fidelity(near, w) - _average_oracle(U, w)) <= 1e-14


def test_bell_fidelity_perfect_gate():
    # exp(-i * (-pi/2) * Jy^2) maps |00> onto the phase -pi/2 Bell state
    n_dim = 8
    U = _project(np.kron(hilbert.matrix_exp(1j * (np.pi / 2) * hilbert.JY2), np.eye(n_dim)), n_dim)
    w = ThermalWeights(0.02, n_dim)
    assert bell_fidelity(U, w) == pytest.approx(1.0, abs=1e-12)


def test_bell_fidelity_identity():
    w = ThermalWeights(0.0, 4)
    assert bell_fidelity(_project(np.eye(16, dtype=complex), 4), w) == pytest.approx(0.5)


def test_average_fidelity_target():
    w = ThermalWeights(0.0, 6)
    U = _project(np.kron(target_unitary(), np.eye(6)), 6)
    assert average_fidelity(U, w) == pytest.approx(1.0, abs=1e-12)


def test_global_phase_invariance(rng):
    # the block form holds the singlets at 1, so a phase on the blocks is a global
    # phase only for the Bell metric, whose states do not touch the singlets
    n_dim = 5
    U = _random_blocks(rng, n_dim)
    w = ThermalWeights(0.05, n_dim)
    T = _project(np.kron(target_unitary(), np.eye(n_dim)), n_dim)
    for phase in (0.4, 2.1):
        assert bell_fidelity(tuple(np.exp(1j * phase) * X for X in U), w) == pytest.approx(
            bell_fidelity(U, w), abs=1e-14)
        # each Fock level holds three block columns and one singlet
        want = abs(3 * np.exp(1j * phase) + 1) * w.weights.sum() / 4
        assert average_fidelity(tuple(np.exp(1j * phase) * X for X in T), w) == pytest.approx(
            want, abs=1e-14)


def test_closed_form_optimal_point():
    w = ThermalWeights(0.0, 4)
    assert closed_form_bell([0.0], [-np.pi / 2], w) == pytest.approx(1.0)


def test_closed_form_equal_angles():
    w = ThermalWeights(0.1, 6)
    d = [0.3, 0.2, 0.1, 0.05, 0.02, 0.01]
    assert closed_form_bell(d, d, w) == pytest.approx(0.5)


def test_closed_form_matches_operator_fidelity(rng):
    # U generated by per-level dx Jx^2 + dy Jy^2 blocks, Fock-diagonal.
    # nbar is small enough that the dropped thermal tail (which enters the
    # two expressions differently) sits far below the comparison tolerance.
    n_dim = 8
    w = ThermalWeights(0.02, n_dim)
    for _ in range(5):
        dx = rng.uniform(-0.4, 0.4, n_dim)
        dy = rng.uniform(-2.0, 0.5, n_dim)
        U = np.zeros((4 * n_dim, 4 * n_dim), dtype=complex)
        for n in range(n_dim):
            block = hilbert.matrix_exp(-1j * (dx[n] * JX2 + dy[n] * hilbert.JY2))
            for a in range(4):
                for b in range(4):
                    U[a * n_dim + n, b * n_dim + n] = block[a, b]
        got = bell_fidelity(_project(U, n_dim), w)
        want = closed_form_bell(dx, dy, w)
        assert got == pytest.approx(want, abs=1e-10)


def test_metrics_track_each_other(unum_omega2, weights):
    # the two infidelities stay within a factor ~2 at the working point
    ratio = (1 - bell_fidelity(unum_omega2, weights)) / (1 - average_fidelity(unum_omega2, weights))
    assert 1.0 < ratio < 3.0
