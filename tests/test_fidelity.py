import numpy as np
import pytest

from msgate import hilbert
from msgate.fidelity import (
    ThermalWeights,
    average_fidelity,
    bell_fidelity,
    closed_form_bell,
    evaluate,
    target_unitary,
)


def test_thermal_weights_formula():
    w = ThermalWeights(0.02, 8)
    n = np.arange(8)
    assert np.allclose(w.weights, 0.02 ** n / 1.02 ** (n + 1))
    assert np.all(np.diff(w.weights) < 0)
    assert w.weights.sum() <= 1.0
    assert 0 < w.tail_mass < 1e-12


def test_thermal_weights_ground_state():
    w = ThermalWeights(0.0, 6)
    assert w.weights[0] == 1.0
    assert np.all(w.weights[1:] == 0.0)
    assert w.tail_mass == 0.0


def _embed(qubit_U, n_dim):
    return np.kron(qubit_U, np.eye(n_dim, dtype=complex))


def test_bell_fidelity_perfect_gate():
    # exp(-i * (-pi/2) * Jy^2) maps |00> onto the phase -pi/2 Bell state
    n_dim = 8
    J = hilbert.collective_spins()
    U = _embed(hilbert.matrix_exp(1j * (np.pi / 2) * J.Jy2), n_dim)
    w = ThermalWeights(0.02, n_dim)
    assert bell_fidelity(U, w) == pytest.approx(1.0, abs=1e-12)


def test_bell_fidelity_identity():
    w = ThermalWeights(0.0, 4)
    assert bell_fidelity(_embed(np.eye(4, dtype=complex), 4), w) == pytest.approx(0.5)


def test_average_fidelity_target():
    w = ThermalWeights(0.0, 6)
    U = _embed(target_unitary(), 6)
    assert average_fidelity(U, w) == pytest.approx(1.0, abs=1e-12)


def test_global_phase_invariance(rng):
    n_dim = 5
    X = rng.normal(size=(4 * n_dim, 4 * n_dim)) + 1j * rng.normal(size=(4 * n_dim, 4 * n_dim))
    U = np.linalg.qr(X)[0]
    w = ThermalWeights(0.05, n_dim)
    for phase in (0.4, 2.1):
        assert bell_fidelity(np.exp(1j * phase) * U, w) == pytest.approx(bell_fidelity(U, w))
        assert average_fidelity(np.exp(1j * phase) * U, w) == pytest.approx(average_fidelity(U, w))


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
    J = hilbert.collective_spins()
    w = ThermalWeights(0.02, n_dim)
    for _ in range(5):
        dx = rng.uniform(-0.4, 0.4, n_dim)
        dy = rng.uniform(-2.0, 0.5, n_dim)
        U = np.zeros((4 * n_dim, 4 * n_dim), dtype=complex)
        for n in range(n_dim):
            block = hilbert.matrix_exp(-1j * (dx[n] * J.Jx2 + dy[n] * J.Jy2))
            for a in range(4):
                for b in range(4):
                    U[a * n_dim + n, b * n_dim + n] = block[a, b]
        got = bell_fidelity(U, w)
        want = closed_form_bell(dx, dy, w)
        assert got == pytest.approx(want, abs=1e-10)


def test_metrics_track_each_other(unum_omega2, weights):
    # the two infidelities stay within a factor ~2 at the working point
    r = evaluate(unum_omega2, weights)
    ratio = r.bell_infidelity / r.average_infidelity
    assert 1.0 < ratio < 3.0


def test_evaluate_bundles_tail(unum_omega2, weights):
    r = evaluate(unum_omega2, weights)
    assert 0.0 <= r.bell <= 1.0 and 0.0 <= r.average <= 1.0
    assert r.tail_mass == weights.tail_mass
    assert r.bell_infidelity == pytest.approx(1 - r.bell)
