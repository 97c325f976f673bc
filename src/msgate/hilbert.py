"""Operators on the truncated two-qubit x Fock space and dense linear algebra.

Basis ordering: composite index = qubit pair index (00, 01, 10, 11) times
n_dim plus Fock index n, i.e. kron(qubit_op, fock_op).

Truncated raising/lowering matrices are not exact adjoints of each other on
the last Fock rows, so exactness assertions use a guard band that drops the
levels n >= n_dim - m_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .params import GateParams, beat_note
from .pulses import PulseShape

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def destroy(n_dim: int) -> np.ndarray:
    """Truncated annihilation operator a."""
    return np.diag(np.sqrt(np.arange(1, n_dim, dtype=float)), k=1).astype(complex)


def create(n_dim: int) -> np.ndarray:
    """Truncated creation operator a}^dagger."""
    return destroy(n_dim).conj().T


def laguerre(a: int, b: int, x: float) -> float:
    """Associated Laguerre polynomial L_a^{(b)}(x) by stable three-term recurrence.

    a L_a^{(b)} = (2a - 1 + b - x) L_{a-1}^{(b)} - (a - 1 + b) L_{a-2}^{(b)}
    """
    if a < 0 or b < 0:
        raise ValueError("laguerre orders must be non-negative")
    if a == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + b - x
    for k in range(2, a + 1):
        prev, cur = cur, ((2 * k - 1 + b - x) * cur - (k - 1 + b) * prev) / k
    return cur


@dataclass(frozen=True)
class CollectiveSpinSet:
    """Collective spin operators J_i = (1 x sigma_i + sigma_i x 1)/2 on 4 dims."""

    Jx: np.ndarray
    Jy: np.ndarray
    Jz: np.ndarray
    Jplus: np.ndarray
    Jminus: np.ndarray
    Jxy: np.ndarray
    Jx2: np.ndarray
    Jy2: np.ndarray
    Jz2: np.ndarray


@lru_cache(maxsize=1)
def collective_spins() -> CollectiveSpinSet:
    def coll(sigma):
        return 0.5 * (np.kron(IDENTITY_2, sigma) + np.kron(sigma, IDENTITY_2))

    Jx, Jy, Jz = coll(SIGMA_X), coll(SIGMA_Y), coll(SIGMA_Z)
    Jxy = 0.5 * (np.kron(SIGMA_X, SIGMA_Y) + np.kron(SIGMA_Y, SIGMA_X))
    return CollectiveSpinSet(
        Jx=Jx, Jy=Jy, Jz=Jz,
        Jplus=Jx + 1j * Jy, Jminus=Jx - 1j * Jy,
        Jxy=Jxy, Jx2=Jx @ Jx, Jy2=Jy @ Jy, Jz2=Jz @ Jz,
    )


def collective_spin(m: int) -> np.ndarray:
    """Qubit factor of the m-th sideband term: Jx for even m, i*Jy for odd m."""
    J = collective_spins()
    return J.Jx.copy() if m % 2 == 0 else 1j * J.Jy


@lru_cache(maxsize=256)
def _ladder_powers(n_dim: int, max_pow: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    a = destroy(n_dim)
    ad = create(n_dim)
    a_pows = [np.eye(n_dim, dtype=complex)]
    ad_pows = [np.eye(n_dim, dtype=complex)]
    for _ in range(max_pow):
        a_pows.append(a @ a_pows[-1])
        ad_pows.append(ad @ ad_pows[-1])
    return tuple(a_pows), tuple(ad_pows)


def sideband_operator(m: int, eta: float, n_dim: int) -> np.ndarray:
    """m-th sideband transition operator A_m on the truncated Fock space.

    Built from the Taylor series
        A_m = exp(-eta^2/2) sum_k eta^(2k+m) i^(2k+m) (a+)^(k+m) a^k / ((m+k)! k!)
    with k starting at max(0, -m); truncated only by the Fock cutoff.
    """
    if abs(m) > n_dim:
        raise ValueError(f"|m|={abs(m)} exceeds n_dim={n_dim}")
    a_pows, ad_pows = _ladder_powers(n_dim, 2 * n_dim + abs(m))
    out = np.zeros((n_dim, n_dim), dtype=complex)
    for k in range(max(0, -m), n_dim + 1):
        up = k + m
        coeff = (eta ** (2 * k + m)) * (1j ** (2 * k + m)) / (
            math.factorial(m + k) * math.factorial(k)
        )
        out += coeff * (ad_pows[up] @ a_pows[k])
    return math.exp(-0.5 * eta * eta) * out


def sideband_element_closed_form(m: int, eta: float, n: int) -> complex:
    """Matrix element <n+m|A_m|n> from the Laguerre closed form (m >= 0)."""
    if m < 0:
        raise ValueError("closed form stated for m >= 0; use the adjoint relation")
    return (
        math.exp(-0.5 * eta * eta)
        * (1j * eta) ** m
        * math.sqrt(math.factorial(n) / math.factorial(n + m))
        * laguerre(n, m, eta * eta)
    )


def matrix_exp(A: np.ndarray) -> np.ndarray:
    """Matrix exponential exp(A) by scaling and squaring (Pade)."""
    A = np.asarray(A, dtype=complex)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix_exp requires finite entries")
    return scipy.linalg.expm(A)


def drive_taps(params: GateParams, pulse: PulseShape) -> tuple[np.ndarray, np.ndarray]:
    """Beat notes N_g = M -/+ L and weights c_g = c_M of the scalar drive
    g(tau) = f(tau) 2 cos(2 pi L tau) = sum_g c_g exp(i 2 pi N_g tau), by M, then mu."""
    if not pulse.support:
        raise ValueError("the pulse has no nonzero Fourier coefficient")
    N, c = zip(*[(beat_note(M, 0, mu, params), pulse.c(M)) for M in pulse.support for mu in (-1, 1)])
    return np.array(N), np.array(c)


def hamiltonian_terms(params: GateParams, pulse: PulseShape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factored Hamiltonian H(tau) = g(tau) sum_m exp(i 2 pi m K tau) J_m (x) A_m
    at unit drive: the taps (N_g, c_g) of ``drive_taps`` and the stack of the
    operators J_m (x) A_m for m = -m_max..m_max.  The drive strength omega_T
    is *not* included so callers can rescale.
    """
    return (*drive_taps(params, pulse),
            np.stack([np.kron(collective_spin(m), sideband_operator(m, params.eta, params.n_dim))
                      for m in range(-params.m_max, params.m_max + 1)]))


def symmetry_blocks(n_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Isometries Q_b (4*n_dim x d_b) onto the Pi = +1 and Pi = -1 blocks of H.

    H commutes with qubit exchange and with Pi = exp(i pi Jx) (x) (-1)^{a+a}.
    Every J annihilates the exchange singlet, so H vanishes on the n_dim
    singlet states, which neither block holds.
    """
    s = math.sqrt(0.5)
    # exchange-symmetric qubit states with exp(i pi Jx) = -sigma_x (x) sigma_x = +1, -1
    qubits = ([(s, 0, 0, -s)], [(s, 0, 0, s), (0, s, s, 0)])
    return tuple(np.array([np.kron(q, np.eye(n_dim)[n]) for n in range(n_dim)
                           for q in qubits[(n + parity) % 2]], dtype=complex).T
                 for parity in (0, 1))


@dataclass(frozen=True)
class RotatingFrame:
    """Q_b^H H(tau) Q_b = omega_T g(tau) r_b B_b r_b^H on isometries Q_b whose columns
    each hold one Fock level n_b: the drive g of ``drive_taps``, one constant generator
    B_b = Q_b^H B_0 Q_b and r_b = exp(i 2 pi K tau n_b).  Called on a vector of tau it
    returns one stack Q_b^H H(tau) Q_b per block."""

    params: GateParams
    taps: np.ndarray
    coeffs: np.ndarray
    generators: tuple
    levels: tuple

    def drive(self, taus: np.ndarray) -> np.ndarray:
        return np.exp(2j * np.pi * np.outer(taus, self.taps)) @ self.coeffs

    def __call__(self, taus: np.ndarray) -> list[np.ndarray]:
        amp, K = self.params.omega_T * self.drive(taus), self.params.K
        # entry (j, k) turns by exp(i 2 pi tau K (n_j - n_k)), from the integer difference
        return [amp[:, None, None] * np.exp(2j * np.pi * taus[:, None, None] * (K * (n[:, None] - n))) * B
                for B, n in zip(self.generators, self.levels)]


def _frame(params: GateParams, blocks: tuple, taps, coeffs, generator: np.ndarray) -> RotatingFrame:
    return RotatingFrame(params, taps, coeffs,
                         tuple(Q.conj().T @ generator @ Q for Q in blocks),
                         tuple(np.argmax(np.abs(Q), axis=0) % params.n_dim for Q in blocks))


def sideband_hamiltonian(params: GateParams, pulse: PulseShape, blocks: tuple) -> RotatingFrame:
    """The sideband series on the isometries ``blocks`` (see symmetry_blocks).  A_m
    raises the Fock level by m, so exp(i 2 pi m K tau) J_m (x) A_m = R J_m (x) A_m R^H
    with R = exp(i 2 pi K tau a+a), and the generator is B_0 = sum_m J_m (x) A_m.
    """
    taps, coeffs, stacked = hamiltonian_terms(params, pulse)
    return _frame(params, blocks, taps, coeffs, stacked.sum(axis=0))


def displacement_hamiltonian(params: GateParams, pulse: PulseShape, blocks: tuple) -> RotatingFrame:
    """Like ``sideband_hamiltonian``, with the displacement exponential built exactly
    instead of the m_max-truncated series: the cross-check for the truncation.
    H = g(tau) (J+ (x) D + J- (x) D^H) / 2, where D(tau) = exp(i eta (a e^{-i theta}
    + a+ e^{i theta})) = R D_0 R^H, theta = 2 pi K tau, so the generator is
    B_0 = (J+ (x) D_0 + J- (x) D_0^H) / 2 with D_0 = exp(i eta (a + a+)).
    """
    J = collective_spins()
    a = destroy(params.n_dim)
    d0 = matrix_exp(1j * params.eta * (a + a.conj().T))
    return _frame(params, blocks, *drive_taps(params, pulse),
                  0.5 * (np.kron(J.Jplus, d0) + np.kron(J.Jminus, d0.conj().T)))


def hamiltonian_at(tau: float, params: GateParams, pulse: PulseShape) -> np.ndarray:
    """Dimensionless interaction Hamiltonian T*H(tau*T)/hbar at one instant."""
    return sideband_hamiltonian(params, pulse, (np.eye(params.dim),))(np.array([tau]))[0][0]


def displacement_hamiltonian_at(tau: float, params: GateParams, pulse: PulseShape) -> np.ndarray:
    """The exact-displacement Hamiltonian at one instant."""
    return displacement_hamiltonian(params, pulse, (np.eye(params.dim),))(np.array([tau]))[0][0]


def guard_band_indices(params: GateParams) -> np.ndarray:
    """Composite indices whose Fock level lies below the guard band."""
    keep = params.n_dim - params.m_max
    n = np.arange(params.dim)
    return n[(n % params.n_dim) < keep]


def guard_block(A: np.ndarray, params: GateParams) -> np.ndarray:
    """Sub-matrix of A restricted to guard-banded composite indices."""
    idx = guard_band_indices(params)
    return A[np.ix_(idx, idx)]


def hermiticity_defect(A: np.ndarray) -> float:
    """Largest entry of A - A^H; A may be a stack of matrices."""
    return float(np.abs(A - np.swapaxes(A, -1, -2).conj()).max())


def unitarity_defect(A: np.ndarray) -> float:
    return float(np.abs(A.conj().T @ A - np.eye(A.shape[0])).max())


def fock_block(A: np.ndarray, n_dim: int, row: int, col: int) -> np.ndarray:
    """4x4 qubit block <row|A|col> of a composite operator, indexed by Fock level."""
    return A[row::n_dim, col::n_dim].copy()


def partial_trace_motion(rho: np.ndarray, n_dim: int) -> np.ndarray:
    """Trace out the Fock factor of a composite density matrix."""
    d = rho.shape[0] // n_dim
    r = rho.reshape(d, n_dim, d, n_dim)
    return np.einsum("anbn->ab", r)
