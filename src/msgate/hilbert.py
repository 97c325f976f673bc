"""Operators on the truncated two-qubit x Fock space and dense linear algebra.

Basis ordering: composite index = qubit pair index (00, 01, 10, 11) times
n_dim plus Fock index n, i.e. kron(qubit_op, fock_op).

Truncated raising/lowering matrices are not exact adjoints of each other on
the last Fock rows, so exactness assertions use a guard band that drops the
levels n >= n_dim - m_max.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .params import GateParams, beat_note
from .pulses import PulseShape


def read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, set read-only: a cached value is shared by every later caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def destroy(n_dim: int) -> np.ndarray:
    """Truncated annihilation operator a."""
    return np.diag(np.sqrt(np.arange(1, n_dim, dtype=float)), k=1).astype(complex)


SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
# the collective spins J_i = (1 x sigma_i + sigma_i x 1)/2 on the qubit pair, J+- = Jx +- i Jy
# and Jy^2, read-only: the qubit operators the Hamiltonians and the target gate are built from
JX, JY = read_only(*(0.5 * (np.kron(np.eye(2, dtype=complex), s) + np.kron(s, np.eye(2, dtype=complex)))
                     for s in (SIGMA_X, SIGMA_Y)))
JPLUS, JMINUS, JY2 = read_only(JX + 1j * JY, JX - 1j * JY, JY @ JY)


def collective_spin(m: int) -> np.ndarray:
    """Qubit factor of the m-th sideband term: Jx for even m, i*Jy for odd m."""
    return JX.copy() if m % 2 == 0 else 1j * JY


@lru_cache(maxsize=16)
def sideband_operators(eta: float, n_dim: int, m_max: int) -> np.ndarray:
    """The sideband transition operators A_m, m = -m_max..m_max, on the truncated Fock
    space, as one read-only stack: A_m is the part of the displacement exp(i eta (a + a+))
    that raises the Fock level by m,
        <n+m|A_m|n> = exp(-eta^2/2) (i eta)^m sqrt(n!/(n+m)!) L_n^{(m)}(eta^2)   (m >= 0),
    and A_{-m} = (-1)^m A_m^H (Cahill & Glauber 1969).  These are the entries of the
    untruncated operator, so the Fock cutoff is the only truncation.  L_n^{(k)}(x),
    x = eta^2, is carried along each band k = |m| once by the three-term recurrence
        (n + 1) L_{n+1}^{(k)} = (2n + 1 + k - x) L_n^{(k)} - (n + k) L_{n-1}^{(k)}.
    """
    if m_max > n_dim:
        raise ValueError(f"m_max={m_max} exceeds n_dim={n_dim}")
    x = eta * eta
    A = np.empty((2 * m_max + 1, n_dim, n_dim), dtype=complex)
    for k in range(m_max + 1):
        band, prev, cur = [], 0.0, 1.0
        for n in range(n_dim - k):
            band.append(math.sqrt(math.factorial(n) / math.factorial(n + k)) * cur)
            prev, cur = cur, ((2 * n + 1 + k - x) * cur - (n + k) * prev) / (n + 1)
        A[m_max + k] = math.exp(-0.5 * x) * (1j * eta) ** k * np.diag(np.array(band, dtype=complex), -k)
        # not at k = 0: conjugating A_0 would turn its +0.0 imaginary parts into -0.0
        if k:
            A[m_max - k] = (-1) ** k * A[m_max + k].conj().T
    return read_only(A)[0]


def hermitian_eigh(H: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of a Hermitian H, or of a stack of them: the one eigendecomposition in
    ``msgate``, behind the one check of its argument.  Non-finite entries, or a defect
    max|H - H^H| above 1e-12 max|H|, raise ValueError naming ``what``."""
    if not np.all(np.isfinite(H)):
        raise ValueError(f"{what} is not finite")
    if (defect := hermiticity_defect(H)) > 1e-12 * np.abs(H).max():
        raise ValueError(f"{what} is not Hermitian: defect {defect:.3e}")
    return np.linalg.eigh(H)


def matrix_exp(A: np.ndarray) -> np.ndarray:
    """exp(A) of an anti-Hermitian A, or of a stack of them, as V exp(-i lam) V^H from
    the eigh of the Hermitian generator iA (unitary to rounding at any norm)."""
    lam, V = hermitian_eigh(1j * np.asarray(A, dtype=complex), "i A in matrix_exp (A must be anti-Hermitian)")
    return (V * np.exp(-1j * lam)[..., None, :]) @ np.swapaxes(V, -1, -2).conj()


def drive_taps(params: GateParams, pulse: PulseShape) -> tuple[np.ndarray, np.ndarray]:
    """Beat notes N_g = M -/+ L and weights c_g = c_M of the scalar drive
    g(tau) = f(tau) 2 cos(2 pi L tau) = sum_g c_g exp(i 2 pi N_g tau), by M, then mu:
    the one form in which ``magnus`` and ``trotter`` read the pulse."""
    N, c = zip(*[(beat_note(M, 0, mu, params), pulse.c(M)) for M in pulse.support for mu in (-1, 1)])
    return np.array(N), np.array(c)


@lru_cache(maxsize=16)
def block_basis(n_dim: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The Pi = +1 and Pi = -1 blocks of H, as (levels, vectors): block column j is the
    qubit vector vectors[j] (x) |levels[j]>.  Built once per n_dim, read-only.

    H commutes with qubit exchange and with Pi = exp(i pi Jx) (x) (-1)^{a+a}.
    Every J annihilates the exchange singlet, so H vanishes on the n_dim
    singlet states, which neither block holds.
    """
    s = math.sqrt(0.5)
    # exchange-symmetric qubit states with exp(i pi Jx) = -sigma_x (x) sigma_x = +1, -1
    qubits = ([(s, 0, 0, -s)], [(s, 0, 0, s), (0, s, s, 0)])
    blocks = []
    for parity in (0, 1):
        levels, vectors = zip(*[(n, q) for n in range(n_dim) for q in qubits[(n + parity) % 2]])
        blocks.append(read_only(np.array(levels), np.array(vectors, dtype=complex)))
    return tuple(blocks)


def symmetry_blocks(n_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Isometries Q_b (4*n_dim x d_b) onto the blocks of ``block_basis``."""
    blocks = []
    for levels, vectors in block_basis(n_dim):
        Q = np.zeros((4 * n_dim, len(levels)), dtype=complex)
        # column j is its qubit vector (x) |levels_j>: entry i at row i n_dim + levels_j
        Q[np.arange(4)[:, None] * n_dim + levels, np.arange(len(levels))] = vectors.T
        blocks.append(Q)
    return tuple(blocks)


def to_blocks(qubit_op: np.ndarray, fock_op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q_b^H (J (x) A) Q_b per block of ``block_basis``, gathered entry by entry as
    (v_j^H J v_k) A[n_j, n_k]; J and A may be stacks of the same length."""
    return tuple((V.conj() @ qubit_op @ V.T) * fock_op[..., n[:, None], n]
                 for n, V in block_basis(fock_op.shape[-1]))


def embed(blocks: tuple, n_dim: int, singlet: float) -> np.ndarray:
    """The composite matrix of the block form ``blocks`` = (X_+, X_-) on
    ``symmetry_blocks(n_dim)``: sum_b Q_b X_b Q_b^H plus ``singlet`` times the identity on
    the exchange singlets.  Every P_k and Z_k (singlet 0) and propagator (singlet 1)
    commutes with both symmetries and is held in this form; this is the one place a
    composite matrix is formed from blocks.  The X_b may be stacks of the same length."""
    return singlet * np.eye(4 * n_dim) + sum(Q @ (X - singlet * np.eye(X.shape[-1])) @ Q.conj().T
                                             for Q, X in zip(symmetry_blocks(n_dim), blocks))


def level_block(blocks: tuple, n_dim: int, row: int, col: int) -> np.ndarray:
    """The 4x4 qubit block <row|X|col> of the block form ``blocks`` of X, indexed by Fock
    level: sum_b V_r^T X_b[r, c] V_c^*, where r and c select the block columns at levels
    ``row`` and ``col`` and V holds their qubit vectors (``block_basis``)."""
    return sum(V[n == row].T @ X[np.ix_(n == row, n == col)] @ V[n == col].conj()
               for X, (n, V) in zip(blocks, block_basis(n_dim)))


def hamiltonian_terms(eta: float, n_dim: int, m_max: int) -> tuple:
    """The sideband factor of the Hamiltonian H(tau) = g(tau) sum_m exp(i 2 pi m K tau)
    J_m (x) A_m at unit drive: per block of ``block_basis``, the stack of the J_m (x) A_m
    for m = -m_max..m_max, as ``to_blocks`` projects them.  The drive g is
    ``drive_taps``'s, and the drive strength omega_T is *not* included so callers can
    rescale.  Like every builder here, it takes only what its operators depend on:
    (eta, n_dim, m_max)."""
    return to_blocks(np.stack([collective_spin(m) for m in range(-m_max, m_max + 1)]),
                     sideband_operators(eta, n_dim, m_max))


def sideband_hamiltonian(eta: float, n_dim: int, m_max: int) -> tuple:
    """The generator pair (B_+, B_-) of the sideband series: per block of ``block_basis``,
    whose columns each hold one Fock level n_b, Q_b^H H(tau) Q_b = omega_T g(tau) r_b B_b
    r_b^H with r_b = exp(i 2 pi K tau n_b).  A_m raises the Fock level by m, so
    exp(i 2 pi m K tau) J_m (x) A_m = R J_m (x) A_m R^H with R = exp(i 2 pi K tau a+a),
    and B_b = Q_b^H B_0 Q_b with B_0 = sum_m J_m (x) A_m.
    """
    return tuple(X.sum(axis=0) for X in hamiltonian_terms(eta, n_dim, m_max))


def displacement_hamiltonian(eta: float, n_dim: int, m_max: int) -> tuple:
    """Like ``sideband_hamiltonian``, with the displacement exponential built exactly
    instead of the m_max-truncated series: the cross-check for the truncation.
    H = g(tau) (J+ (x) D + J- (x) D^H) / 2, where D(tau) = exp(i eta (a e^{-i theta}
    + a+ e^{i theta})) = R D_0 R^H, theta = 2 pi K tau, so the generator is
    B_0 = (J+ (x) D_0 + J- (x) D_0^H) / 2 with D_0 = exp(i eta (a + a+)).  Untruncated,
    it ignores m_max, which it takes only to share the builders' signature."""
    a = destroy(n_dim)
    d0 = matrix_exp(1j * eta * (a + a.conj().T))
    return tuple(X.sum(axis=0) for X in to_blocks(np.stack([JPLUS, JMINUS]),
                                                  0.5 * np.stack([d0, d0.conj().T])))


def hermiticity_defect(A: np.ndarray) -> float:
    """Largest entry of A - A^H; A may be a stack of matrices."""
    return float(np.abs(A - np.swapaxes(A, -1, -2).conj()).max())

