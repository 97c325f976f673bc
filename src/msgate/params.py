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
from dataclasses import dataclass, field


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
    k_max     highest effective-Hamiltonian order computed, in [2, 5]
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
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail}" if self.detail else self.rule


@dataclass
class ValidationReport:
    """Result of parameter validation; empty violation list means valid."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, detail: str = "") -> None:
        self.violations.append(Violation(rule, detail))

    def rules(self) -> list[str]:
        return [v.rule for v in self.violations]

    def __iter__(self):
        return iter(self.violations)

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(str(v) for v in self.violations)


def beat_note(M: int, m: int, mu: int, params: GateParams) -> int:
    """Exact integer beat note M + m*K + mu*L."""
    if mu not in (-1, 1):
        raise ValueError(f"mu must be +1 or -1, got {mu}")
    return M + m * params.K + mu * params.L


def validate(params: GateParams, pulse=None) -> ValidationReport:
    """Check a parameter set against all resonance-exclusion rules, at order k_max.

    Returns a report listing every violated rule (with the offending (j, l)
    pair for the generalized exclusion) in deterministic order.  Validation
    is a report, not an exception, so sweeps can skip invalid points.  No beat
    note M + m*K +- L may vanish, over the harmonics M of ``pulse`` (M = 0, the
    flat pulse, when None): a shaped pulse shifts the beat notes.
    """
    rep = ValidationReport()
    K, L = params.K, params.L

    if int(K) != K or int(L) != L:
        rep.add("K,L integer", f"K={K}, L={L}")
        return rep
    if not (params.K > params.L >= 1):
        rep.add("K>L>=1", f"K={K}, L={L}")
    if K == 2 * L:
        rep.add("K=2L", f"K={K}, L={L}")
    # generalized exclusion: j*K = l*L for 1 <= j <= k_max*m_max and l <= k_max, by j, then
    # l: j = l*L/K (every j when K = L = 0).  Not checked at a k_max outside its range.
    if 2 <= params.k_max <= 5:
        j_max, K, L = params.k_max * params.m_max, int(K), int(L)
        hits = [(j, l) for l in range(1, params.k_max + 1)
                for j in (range(1, j_max + 1) if K == L == 0 else (l * L // K,) if K and l * L % K == 0 else ())
                if 1 <= j <= j_max]
        for j, l in sorted(hits):
            rep.add("jK=lL", f"j={j}, l={l}")
    if not (0.0 < params.eta < 1.0):
        rep.add("eta range", f"eta={params.eta} not in (0, 1)")
    if params.n_dim < params.m_max + 2:
        rep.add("n_dim guard", f"n_dim={params.n_dim} < m_max+2={params.m_max + 2}")
    if not (2 <= params.k_max <= 5):
        rep.add("k_max range", f"k_max={params.k_max} not in [2, 5]")
    if params.m_max < 1:
        rep.add("m_max range", f"m_max={params.m_max} < 1")
    # written so that NaN and inf fail them too
    if not 0 <= params.omega_T < math.inf:
        rep.add("omega_T sign", f"omega_T={params.omega_T} is not finite and >= 0")
    if not 0 <= params.nbar < math.inf:
        rep.add("nbar sign", f"nbar={params.nbar} is not finite and >= 0")
    for M in pulse.support if pulse is not None else (0,):
        for m in range(-params.m_max, params.m_max + 1):
            for mu in (-1, 1):
                if beat_note(M, m, mu, params) == 0:
                    rep.add("N=0", f"M={M}, m={m}, mu={mu}")
    return rep
