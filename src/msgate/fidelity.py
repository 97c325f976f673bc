"""Bell-state and thermally weighted average gate fidelities.

The target gate is exp(i * phi * Jy^2) with phi = pi/2 on the qubit pair; the
corresponding Bell target state from |00> is (|00> - i |11>)/sqrt(2).  Both
metrics weight the initial motional mode by a thermal distribution
P_n = nbar^n / (nbar + 1)^(n+1), truncated at n_dim with the dropped tail
mass reported rather than renormalized (renormalizing would silently inflate
the fidelity).

Both take the propagator in block form (U_+, U_-) on
``hilbert.symmetry_blocks(n_dim)`` (see ``hilbert.embed``).  The target, the Bell
states and the Fock level of each block column are projected once per n_dim
and kept as read-only arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import hilbert

TARGET_ANGLE = np.pi / 2    # phi of the target gate exp(i phi Jy^2)
TARGET_PHASE = -np.pi / 2   # the Bell target (|00> + e^{i phase}|11>)/sqrt(2)


@dataclass(frozen=True)
class ThermalWeights:
    nbar: float
    n_dim: int

    @cached_property
    def weights(self) -> np.ndarray:
        # (nbar/(nbar+1))^n/(nbar+1): no power of nbar itself, which overflows for nbar >~ 1e44
        return (self.nbar / (self.nbar + 1.0)) ** np.arange(self.n_dim) / (self.nbar + 1.0)

    @property
    def tail_mass(self) -> float:
        return float(1.0 - self.weights.sum())


@lru_cache(maxsize=16)
def _targets(n_dim: int) -> tuple:
    """Per block, read-only: the Fock level of each column, the target Q_b^H (U_t (x) 1) Q_b,
    U_t = exp(i TARGET_ANGLE Jy^2), and the columns Q_b^H (|00> (x) |n>) and
    Q_b^H (psi_t (x) |m>) over n, m."""
    target = hilbert.matrix_exp(1j * TARGET_ANGLE * hilbert.JY2)
    states = np.array([[1, 1], [0, 0], [0, 0], [0, np.exp(1j * TARGET_PHASE)]]) / [1, np.sqrt(2)]
    # column j of Q_b is v_j (x) |n_j>, so row j of Q_b^H (psi (x) |m>) is (v_j^H psi) delta(n_j, m)
    return tuple(hilbert.read_only(n, T, *((V.conj() @ psi)[:, None] * np.eye(n_dim)[n] for psi in states.T))
                 for (n, V), T in zip(hilbert.block_basis(n_dim), hilbert.to_blocks(target, np.eye(n_dim))))


def bell_fidelity(U: tuple, weights: ThermalWeights) -> float:
    """Overlap of the reduced qubit state with (|00> + e^{i TARGET_PHASE}|11>)/sqrt(2)
    after evolving |00> x thermal motional state and tracing out the motion:
    sum_n P_n sum_m |<psi_t, m|U|00, n>|^2.  Neither state touches the singlets."""
    amps = sum(out.conj().T @ X @ inp
               for X, (_, _, inp, out) in zip(U, _targets(weights.n_dim)))
    return float((np.abs(amps) ** 2 @ weights.weights).sum())


def average_fidelity(U: tuple, weights: ThermalWeights) -> float:
    """|Tr_qubits sum_n P_n <n| U U_target^dag |n>| / 4: per block
    sum_jk P_{n_j} U_jk conj(T_jk), plus sum_n P_n from the singlets, where U = T = 1."""
    P = weights.weights
    tr = P.sum() + sum(P[levels] @ (X * T.conj()).sum(axis=1)
                       for X, (levels, T, _, _) in zip(U, _targets(weights.n_dim)))
    return float(np.abs(tr)) / 4.0
