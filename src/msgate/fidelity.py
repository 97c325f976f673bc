"""Bell-state and thermally weighted average gate fidelities.

The target gate is exp(i * phi * Jy^2) with phi = pi/2 on the qubit pair; the
corresponding Bell target state from |00> is (|00> - i |11>)/sqrt(2).  Both
metrics weight the initial motional mode by a thermal distribution
P_n = nbar^n / (nbar + 1)^(n+1), truncated at n_dim with the dropped tail
mass reported rather than renormalized (renormalizing would silently inflate
the fidelity).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import hilbert


@dataclass(frozen=True)
class ThermalWeights:
    nbar: float
    n_dim: int

    @cached_property
    def weights(self) -> np.ndarray:
        n = np.arange(self.n_dim)
        if self.nbar == 0:
            w = np.zeros(self.n_dim)
            w[0] = 1.0
            return w
        return self.nbar ** n / (self.nbar + 1.0) ** (n + 1)

    @property
    def tail_mass(self) -> float:
        return float(1.0 - self.weights.sum())


@dataclass(frozen=True)
class FidelityResult:
    bell: float
    average: float
    tail_mass: float

    @property
    def bell_infidelity(self) -> float:
        return 1.0 - self.bell

    @property
    def average_infidelity(self) -> float:
        return 1.0 - self.average


def target_unitary(angle: float = np.pi / 2) -> np.ndarray:
    """Qubit-space target exp(i * angle * Jy^2)."""
    J = hilbert.collective_spins()
    return hilbert.matrix_exp(1j * angle * J.Jy2)


def bell_fidelity(U: np.ndarray, weights: ThermalWeights,
                  target_phase: float = -np.pi / 2) -> float:
    """Overlap of the reduced qubit state with (|00> + e^{i phase}|11>)/sqrt(2)
    after evolving |00> x thermal motional state and tracing out the motion."""
    n_dim = weights.n_dim
    psi_t = np.zeros(4, dtype=complex)
    psi_t[0] = 1 / np.sqrt(2)
    psi_t[3] = np.exp(1j * target_phase) / np.sqrt(2)
    P = weights.weights
    # column block of U for qubit |00>, Fock |n>; project each output Fock level
    fid = 0.0
    for n in range(n_dim):
        col = U[:, 0 * n_dim + n].reshape(4, n_dim)
        amps = psi_t.conj() @ col  # amplitude per output Fock level
        fid += P[n] * float(np.sum(np.abs(amps) ** 2))
    return fid


def average_fidelity(U: np.ndarray, weights: ThermalWeights,
                     target_angle: float = np.pi / 2) -> float:
    """|Tr_qubits sum_n P_n <n| U U_target^dag |n>| / 4."""
    n_dim = weights.n_dim
    Ut = target_unitary(target_angle)
    W = U @ np.kron(Ut, np.eye(n_dim, dtype=complex)).conj().T
    P = weights.weights
    tr = 0j
    for n in range(n_dim):
        for q in range(4):
            tr += P[n] * W[q * n_dim + n, q * n_dim + n]
    return float(np.abs(tr)) / 4.0


def closed_form_bell(dx_by_n, dy_by_n, weights: ThermalWeights,
                     target_phase: float = -np.pi / 2) -> float:
    """Bell fidelity of a generator sum_n (dx_n Jx^2 + dy_n Jy^2) x |n><n|:
    (1 - sum_n P_n sin(phase) sin(dx_n - dy_n)) / 2."""
    dx = np.asarray(dx_by_n, dtype=float)
    dy = np.asarray(dy_by_n, dtype=float)
    P = weights.weights[: dx.size]
    return 0.5 * (1.0 - float(np.sum(P * np.sin(target_phase) * np.sin(dx - dy))))


def evaluate(U: np.ndarray, weights: ThermalWeights) -> FidelityResult:
    return FidelityResult(
        bell=bell_fidelity(U, weights),
        average=average_fidelity(U, weights),
        tail_mass=weights.tail_mass,
    )
