"""Dimensionless gate configuration and resonance-exclusion validation.

All core computations are dimensionless: time enters as tau = t/T in [0, 1],
the trap frequency and laser detuning as the integers K = nu*T/(2*pi) and
L = delta*T/(2*pi), and the drive strength as omega_T = Omega*T.  Physical
units (trap_freq, omega_phys) appear only in ``cli``, which converts them to
omega_T before a GateParams is built.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .pulses import PulseShape

# The highest effective-Hamiltonian order (Z_5, U5) that validate, magnus and resint accept.
MAX_ORDER = 5


@dataclass(frozen=True)
class GateParams:
    """Dimensionless configuration of a two-qubit entangling gate.

    eta       Lamb-Dicke parameter, must lie in (0, 1)
    K         dimensionless gate duration nu*T/(2*pi), positive integer
    L         dimensionless laser detuning delta*T/(2*pi), positive integer
    omega_T   dimensionless drive strength Omega*T (radians)
    nbar      initial mean thermal phonon number
    n_dim     Fock-space truncation
    m_max     sideband truncation (|m| <= m_max)
    k_max     the order validate checks the exclusion rules at, in [2, MAX_ORDER];
              cli raises it to the highest U_n a subcommand computes
    """

    eta: float
    K: int
    L: int
    omega_T: float = 0.0
    nbar: float = 0.0
    n_dim: int = 8
    m_max: int = 3
    k_max: int = 4

    def replace(self, **changes) -> "GateParams":
        return dataclasses.replace(self, **changes)


# Every rule validate can report, in report order.
RULES = ("K,L integer", "K>L>=1", "K=2L", "jK=lL", "eta range", "n_dim guard",
         "k_max range", "m_max range", "omega_T sign", "nbar sign", "N=0")


@dataclass(frozen=True)
class Violation:
    rule: str
    detail: str  # the offending values, never empty


def beat_note(M: int, m: int, mu: int, params: GateParams) -> int:
    """Exact integer beat note M + m*K + mu*L."""
    if mu not in (-1, 1):
        raise ValueError(f"mu must be +1 or -1, got {mu}")
    return M + m * params.K + mu * params.L


def validate(params: GateParams, pulse: PulseShape) -> tuple[Violation, ...]:
    """Every resonance-exclusion rule that ``params`` violates at order k_max, in RULES
    order (the generalized exclusion once per offending (j, l) pair); empty when valid.

    A verdict, not an exception, so sweeps can skip invalid points.  No beat note
    M + m*K +- L may vanish over the harmonics M of ``pulse``: a shaped pulse shifts
    the beat notes, and the flat pulse has M = 0 alone.
    """
    out: list[Violation] = []
    K, L = params.K, params.L

    if int(K) != K or int(L) != L:
        return (Violation("K,L integer", f"K={K}, L={L}"),)
    if not (params.K > params.L >= 1):
        out.append(Violation("K>L>=1", f"K={K}, L={L}"))
    if K == 2 * L:
        out.append(Violation("K=2L", f"K={K}, L={L}"))
    # generalized exclusion: j*K = l*L for 1 <= j <= k_max*m_max and l <= k_max, by j, then
    # l: j = l*L/K (every j when K = L = 0).  Not checked at a k_max outside its range.
    k_max_in_range = 2 <= params.k_max <= MAX_ORDER
    if k_max_in_range:
        j_max, K, L = params.k_max * params.m_max, int(K), int(L)
        hits = [(j, l) for l in range(1, params.k_max + 1)
                for j in (range(1, j_max + 1) if K == L == 0 else (l * L // K,) if K and l * L % K == 0 else ())
                if 1 <= j <= j_max]
        out += [Violation("jK=lL", f"j={j}, l={l}") for j, l in sorted(hits)]
    if not (0.0 < params.eta < 1.0):
        out.append(Violation("eta range", f"eta={params.eta} not in (0, 1)"))
    if params.n_dim < params.m_max + 2:
        out.append(Violation("n_dim guard", f"n_dim={params.n_dim} < m_max+2={params.m_max + 2}"))
    if not k_max_in_range:
        out.append(Violation("k_max range", f"k_max={params.k_max} not in [2, {MAX_ORDER}]"))
    if params.m_max < 1:
        out.append(Violation("m_max range", f"m_max={params.m_max} < 1"))
    # written so that NaN and inf fail them too
    if not 0 <= params.omega_T < math.inf:
        out.append(Violation("omega_T sign", f"omega_T={params.omega_T} is not finite and >= 0"))
    if not 0 <= params.nbar < math.inf:
        out.append(Violation("nbar sign", f"nbar={params.nbar} is not finite and >= 0"))
    out += [Violation("N=0", f"M={M}, m={m}, mu={mu}") for M in pulse.support
            for m in range(-params.m_max, params.m_max + 1) for mu in (-1, 1) if beat_note(M, m, mu, params) == 0]
    return tuple(out)
