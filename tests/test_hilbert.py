import ast
import itertools
import math
import pathlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from msgate import hilbert
from msgate.hilbert import collective_spin, matrix_exp, sideband_operators
from msgate.params import GateParams
from msgate.pulses import PulseShape, envelope_at, rectangular, sin_squared
from oracles import (JX2, JXY, JZ, SIGMA_Z, displacement_hamiltonian_at, explicit_term_sum, guard_band_indices,
                     guard_block, hamiltonian_at, laguerre_series, per_tau_displacement, unitarity_defect)


def test_sideband_zero_coupling_is_identity():
    assert np.allclose(sideband_operators(0.0, 8, 3)[3], np.eye(8))


def test_sideband_vacuum_elements():
    eta = 0.18
    _, A0, A1 = sideband_operators(eta, 8, 1)
    assert A0[0, 0] == pytest.approx(math.exp(-0.0162))
    assert A1[1, 0] == pytest.approx(1j * eta * math.exp(-eta ** 2 / 2))


def test_sideband_adjoint_relation():
    # A_{-m} = (-1)^m A_m^dagger holds exactly even on the truncated space, bit for bit
    A = sideband_operators(0.21, 9, 3)
    for m in (1, 2, 3):
        assert _same_bits(A[3 - m], (-1) ** m * A[3 + m].conj().T), m


def _series_sideband(m, eta, n_dim):
    """Independent oracle: the normal-ordered Taylor series
    exp(-eta^2/2) sum_k (i eta)^(2k+m) (a+)^(k+m) a^k / ((m+k)! k!), k >= max(0, -m),
    with the truncated ladder operators; only the Fock cutoff truncates it."""
    a = hilbert.destroy(n_dim)
    return math.exp(-0.5 * eta * eta) * sum(
        (1j * eta) ** (2 * k + m) / (math.factorial(m + k) * math.factorial(k))
        * np.linalg.matrix_power(a.conj().T, k + m) @ np.linalg.matrix_power(a, k)
        for k in range(max(0, -m), n_dim + 1))


def test_sideband_matches_laguerre_closed_form():
    for eta, n_dim in itertools.product((0.01, 0.18, 0.5, 0.9), (2, 9, 16)):
        # every entry of every A_m on the truncated space against the series
        A = sideband_operators(eta, n_dim, n_dim)
        for m in range(-n_dim, n_dim + 1):
            got, want = A[n_dim + m], _series_sideband(m, eta, n_dim)
            assert np.array_equal(got != 0, want != 0), (eta, n_dim, m)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (eta, n_dim, m)
        # and each band against the closed form, with the explicit Laguerre series
        for m in range(n_dim + 1):
            got = A[n_dim + m]
            for n in range(n_dim - m):
                closed = (math.exp(-0.5 * eta * eta) * (1j * eta) ** m * laguerre_series(n, m, eta * eta)
                          * math.sqrt(math.factorial(n) / math.factorial(n + m)))
                assert got[n + m, n] == pytest.approx(closed, rel=1e-12)


def test_sideband_rejects_large_m():
    with pytest.raises(ValueError):
        sideband_operators(0.1, 8, 9)


def test_collective_spin_parity():
    assert np.allclose(collective_spin(2), hilbert.JX)
    assert np.allclose(collective_spin(0), hilbert.JX)
    assert np.allclose(collective_spin(-3), 1j * hilbert.JY)
    for m in range(-3, 4):
        assert np.allclose(collective_spin(m), collective_spin(m + 2))


def test_collective_spin_algebra():
    assert np.allclose(hilbert.JX @ hilbert.JY - hilbert.JY @ hilbert.JX, 1j * JZ, atol=1e-14)
    # J_m J_{-m}: -Jy^2 for odd m, Jx^2 for even m
    assert np.allclose(collective_spin(1) @ collective_spin(-1), -hilbert.JY2)
    assert np.allclose(collective_spin(2) @ collective_spin(-2), JX2)
    assert np.allclose(JXY, 0.5 * (np.kron(hilbert.SIGMA_X, hilbert.SIGMA_Y)
                                     + np.kron(hilbert.SIGMA_Y, hilbert.SIGMA_X)))


def test_matrix_exp_identity_and_phases():
    assert np.allclose(matrix_exp(np.zeros((6, 6))), np.eye(6))
    theta = 0.731
    gen = 1j * theta * np.kron(SIGMA_Z / 2, np.eye(3))
    got = matrix_exp(gen)
    want = np.kron(np.diag([np.exp(1j * theta / 2), np.exp(-1j * theta / 2)]), np.eye(3))
    assert np.allclose(got, want, atol=1e-13)


def test_matrix_exp_random_antihermitian_is_unitary(rng):
    X = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    A = X - X.conj().T
    U = matrix_exp(A)
    assert unitarity_defect(U) < 1e-10


def test_matrix_exp_rejects_nonfinite():
    A = np.zeros((2, 2), dtype=complex)
    A[0, 0] = np.nan
    with pytest.raises(ValueError):
        matrix_exp(A)


@pytest.mark.parametrize("A", [hilbert.SIGMA_X, np.array([[0, 1], [0, 0]]),
                               1j * hilbert.SIGMA_X + [[0, 1e-10], [0, 0]]])  # 1e-10 off
def test_matrix_exp_rejects_non_antihermitian(A):
    with pytest.raises(ValueError, match="anti-Hermitian"):
        matrix_exp(A)


def _callers():
    """Called name -> the functions of src/msgate that call it, as module.name (module.Class.name for
    a method, module.<module> outside any function)."""
    src = pathlib.Path(hilbert.__file__).resolve().parent
    callers = {}
    for path in sorted(src.rglob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            scopes = ([(f"{stmt.name}.{getattr(f, 'name', '<class>')}", f) for f in stmt.body]
                      if isinstance(stmt, ast.ClassDef) else [(getattr(stmt, "name", "<module>"), stmt)])
            for name, scope in scopes:
                for node in ast.walk(scope):
                    if isinstance(node, ast.Call):
                        called = getattr(node.func, "attr", getattr(node.func, "id", None))
                        callers.setdefault(called, []).append(f"{path.stem}.{name}")
    return callers


def test_one_guarded_eigh_in_msgate():
    # np.linalg.eigh is called at one place in src/msgate, behind the check of
    # hilbert.hermitian_eigh, and both exponentiations reach it: matrix_exp and the Unum frame
    callers = _callers()
    assert callers["eigh"] == ["hilbert.hermitian_eigh"]
    assert sorted(callers["hermitian_eigh"]) == ["hilbert.matrix_exp", "trotter._frame"]


def test_one_sideband_builder_in_msgate():
    # the bands A_m are built in one place, once per eta, and read from its cached stack by the
    # Hamiltonian terms and the step bound alone
    callers = _callers()
    assert sorted(callers["sideband_operators"]) == ["hilbert.hamiltonian_terms", "trotter.TrotterConfig.num_steps"]
    assert "sideband_operator" not in callers


def test_matrix_exp_of_a_stack_is_the_stack_of_exponentials(rng):
    X = rng.normal(size=(3, 12, 12)) + 1j * rng.normal(size=(3, 12, 12))
    A = X - np.swapaxes(X, -1, -2).conj()
    got = matrix_exp(A)
    for a, u in zip(A, got):
        assert np.abs(u - scipy.linalg.expm(a)).max() <= 1e-13
        assert np.abs(u - matrix_exp(a)).max() <= 1e-15


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
    for tau in (0.0, 0.21, 0.64):
        H = hamiltonian_at(tau, p, rect)
        want = 2 * 3.1 * np.cos(2 * np.pi * 25 * tau) * np.kron(hilbert.JX, np.eye(8))
        assert np.abs(H - want).max() < 1e-7


def test_hamiltonian_vs_displacement_oracle(base_params, rect):
    # at tau = 0 the sideband-truncated form matches the exact displacement
    # construction up to O(eta^(m_max+1)) on the guard-banded block
    p = base_params.replace(omega_T=1.0)
    H_series = hamiltonian_at(0.0, p, rect)
    H_exact = displacement_hamiltonian_at(0.0, p, rect)
    diff = np.abs(guard_block(H_series - H_exact, p)).max()
    assert diff < 5 * p.eta ** (p.m_max + 1)
    assert diff > 0  # the truncation is real, the bound is not vacuous


def _same_bits(a, b):
    """Equal arrays, sign bits of zeros included."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_dim, m_max", [(8, 3), (7, 2), (12, 5), (4, 2)])
@pytest.mark.parametrize("eta", [0.01, 0.18, 0.35, 0.7])
def test_hamiltonian_terms_are_to_blocks_of_the_stacks(eta, n_dim, m_max):
    # the cached qubit factors times the gather of the bands: to_blocks of the stacks, bit for bit
    ms = range(-m_max, m_max + 1)
    want = hilbert.to_blocks(np.stack([collective_spin(m) for m in ms]),
                             sideband_operators(eta, n_dim, m_max))
    got = hilbert.hamiltonian_terms(eta, n_dim, m_max)
    assert len(got) == 2 and all(map(_same_bits, got, want))


SHAPES = [rectangular(), sin_squared(),
          # conjugate-symmetric with complex coefficients: f(1 - tau) != f(tau)
          PulseShape.from_dict("skew", {0: 0.5, 1: 0.25j, -1: -0.25j})]


@pytest.mark.parametrize("pulse", SHAPES, ids=lambda s: s.name)
@pytest.mark.parametrize("tau", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("hamiltonian, oracle", [
    (hamiltonian_at, explicit_term_sum),
    (displacement_hamiltonian_at, per_tau_displacement),
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
    (hamiltonian_at, explicit_term_sum),
    (displacement_hamiltonian_at, per_tau_displacement),
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
    idx = guard_band_indices(base_params)
    assert len(idx) == 4 * (base_params.n_dim - base_params.m_max)
    assert all(i % base_params.n_dim < 5 for i in idx)
