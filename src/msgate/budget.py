"""Analytic error budget and corrected drive amplitudes.

All drive strengths are dimensionless (Omega*T).  The budget table carries
three coefficient columns per error term: the generic expression evaluated at
a given Omega*T, and the closed forms at the leading-order amplitude
Omega_LD and at the fourth-order-corrected amplitude Omega_4.  Omega_4 and that column
are written without cancellation (``_o4_gap``, and the Z4 cells with D^2 = 2 s D - (K^2 - L^2)).

Transcription notes (kept verbatim, deliberately not "fixed"):
  * the Z3 second-sideband entry (Z3_m2): its generic column's + sign is the
    misprint.  Its exact eta -> 0 coefficient, expanded in exact arithmetic over
    the sideband sequences, is -K^2 W^3 eta^4 / (pi^2 (4K^2 - L^2)(K^2 - L^2)):
    the generic magnitude with a minus sign.  The Omega_4 column's minus sign is
    right (the column is that coefficient at Omega_4), and the Omega_LD column is
    -sqrt(4K^2 - L^2) / (K^2 - L^2) times its value at Omega_LD.  Criterion 8
    (``z3_m2_sign_ok`` in the acceptance tests) already requires the assembled
    third order to carry the negative sign;
  * the Z4_m1_Jxy Omega_4 column has K^2 - 4L^4 for K^2 - 4L^2 in its last
    denominator factor (its Omega_LD column is exact); the other six rows
    equal direct substitution in both columns (CONSISTENT_ROWS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import GateParams

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Corrected drive amplitudes.
# ---------------------------------------------------------------------------

def s_parameter(params: GateParams) -> float:
    """s = sqrt(2K) * L * eta * (1 - eta^2)."""
    K, L, eta = params.K, params.L, params.eta
    return math.sqrt(2 * K) * L * eta * (1 - eta * eta)


def omega_ld(params: GateParams) -> float:
    """Leading-order pi/2 calibration: Omega_LD*T = pi*sqrt(K^2-L^2)/(eta*sqrt(2K))."""
    K, L, eta = params.K, params.L, params.eta
    return math.pi * math.sqrt(K * K - L * L) / (eta * math.sqrt(2 * K))


def omega_2(params: GateParams) -> float:
    """Amplitude correcting the next Lamb-Dicke and second-sideband terms (NaN if not
    real, and at the pole eta^2 = (4K^2 - L^2)/(5K^2 - 2L^2))."""
    K, L, eta = params.K, params.L, params.eta
    num = (K * K - L * L) * (4 * K * K - L * L)
    den = 2 * K * (eta * eta * (2 * L * L - 5 * K * K) + 4 * K * K - L * L)
    return (math.pi / eta) * math.sqrt(num / den) if den != 0 and num / den >= 0 else math.nan


def omega_4(params: GateParams) -> float:
    """Fourth-order-corrected amplitude: Omega_4^2*T^2 = sqrt(2)*pi^2*L*D / (sqrt(K)*eta),
    D = ``_o4_gap``.  NaN when s^2 < K^2 - L^2 (no real solution), as omega_2 is."""
    D = _o4_gap(params)  # NaN when Omega_4 is not real, before any division by eta
    return D if math.isnan(D) else math.sqrt(SQRT2 * math.pi ** 2 * params.L * D / (math.sqrt(params.K) * params.eta))


def _o4_gap(params: GateParams) -> float:
    """D = s - sqrt(disc), disc = s^2 - (K^2 - L^2), as (K^2 - L^2) / (s + sqrt(disc)): at large
    K the difference loses its digits (Omega_4 read 0 at K = 10^12, L = K - 3, eta = 0.18).
    s = ``s_parameter``; NaN when disc < 0."""
    K, L = params.K, params.L
    s = s_parameter(params)
    disc = s * s - (K * K - L * L)
    return (K * K - L * L) / (s + math.sqrt(disc)) if disc >= 0 else math.nan


def combined_dy(params: GateParams, omega_T: float) -> float:
    """Jy^2 prefactor with the first-sideband terms through fourth order,
    at Fock level 0:

        d_y = -W^2 K eta^2 (1-eta^2) / (pi (K^2-L^2))
              + W^4 K eta^2 / (4 pi^3 L^2 (K^2-L^2)).

    Setting d_y = -pi/2 reproduces the Omega_4 quadratic.  (The sign of the
    first term is fixed by the gate rotation being negative; the source
    expression prints it with (eta^2 - 1) instead.)  It is the sum of the generic
    column over the Jy^2 rows of ``table_rows``, so params must pass ``validate``.
    """
    return sum(row.generic for row in table_rows(params.replace(omega_T=omega_T))
               if row.operator_tag == "Jy^2")


@dataclass(frozen=True)
class AmplitudeSet:
    omega_ld: float
    omega_2: float
    omega_4: float


def amplitude_set(params: GateParams) -> AmplitudeSet:
    return AmplitudeSet(omega_ld=omega_ld(params), omega_2=omega_2(params), omega_4=omega_4(params))


# ---------------------------------------------------------------------------
# Error-budget table (flat-pulse closed forms).
# ---------------------------------------------------------------------------

# Rows whose Omega_LD / Omega_4 columns equal the generic column under direct
# substitution (checked at 1e-9 relative in the tests).
CONSISTENT_ROWS = ("Gate", "Z2_m1", "Z2_m2", "Z3_m1", "Z4_m1_Jz2", "Z4_m1_Jy2")


@dataclass(frozen=True)
class BudgetRow:
    label: str
    operator_tag: str
    generic: float
    at_ld: float
    at_o4: float


def table_rows(params: GateParams, n: int = 0) -> list[BudgetRow]:
    """The budget table at Fock level n: per row its label, its operator, the generic
    column at drive strength params.omega_T and the closed forms at Omega_LD and at
    Omega_4 (with s = s(eta); all NaN when s^2 < K^2 - L^2).  Divides by K^2 - 4L^2,
    so params must pass ``validate``.

    Every generic entry is the leading Lamb-Dicke coefficient of its operator: the
    matching block of the assembled order divided by the entry tends to 1 as
    eta -> 0; at finite eta the block carries eta^2-relative corrections, which grow
    as the gap K - L closes (at K = 100, L = 97, eta = 0.1 the Z4_m1_Jz2 / Z4_m1_Jy2
    blocks are 0.43 / 1.28 of their rows).

    The ``_m1`` rows are the leading share from the carrier plus the first
    sideband only.  Second sidebands add to the same blocks at the same
    order: with sidebands up to m_max = 3 the eta -> 0 limit of the Z3_m1
    block is 0.990 of its row at K = 100, L = 97 (1 to 1e-8 with m_max = 1),
    0.968 at K = 28, L = 25 and 0.884 at K = 100, L = 30.
    """
    K, L, eta, W = params.K, params.L, params.eta, params.omega_T
    KK, LL = K * K, L * L
    D = _o4_gap(params)
    pi = math.pi
    rows = (
        ("Gate", "Jy^2",
         -K * W ** 2 * eta ** 2 / (pi * (KK - LL)),
         -pi / 2,
         lambda: -math.sqrt(2 * K) * pi * L * eta * D / (KK - LL)),
        ("Z2_m1", "Jy^2",
         K * W ** 2 * eta ** 4 * (2 * n + 1) / (pi * (KK - LL)),
         pi * eta ** 2 * (1 + 2 * n) / 2,
         lambda: math.sqrt(2 * K) * pi * L * eta ** 3 * (2 * n + 1) * D / (KK - LL)),
        ("Z2_m2", "Jx^2",
         -K * W ** 2 * eta ** 4 * (2 * n + 1) / (pi * (4 * KK - LL)),
         -pi * eta ** 2 * (KK - LL) * (2 * n + 1) / (2 * (4 * KK - LL)),
         lambda: -math.sqrt(2 * K) * pi * L * eta ** 3 * (2 * n + 1) * D / (4 * KK - LL)),
        ("Z3_m1", "Jy(a+a+)",
         -2 * KK * W ** 3 * eta ** 5 / (pi ** 2 * (KK - LL) ** 2),
         -pi * eta ** 2 * math.sqrt(K / (2 * (KK - LL))),
         lambda: -(2 ** 1.75) * pi * K ** 1.25 * L ** 1.5 * eta ** 3.5 * D ** 1.5 / (KK - LL) ** 2),
        # both closed forms as printed (see the module docstring)
        ("Z3_m2", "Jx(1-Jy^2)(a^2-a+^2)",
         KK * W ** 3 * eta ** 4 / (pi ** 2 * (4 * KK - LL) * (KK - LL)),
         (pi * eta / 2) * math.sqrt(K / (2 * (KK - LL) * (4 * KK - LL))),
         lambda: (-(2 ** 0.75) * pi * K ** 1.25 * L ** 1.5 * eta ** 2.5 * D ** 1.5
                  / ((4 * KK - LL) * (KK - LL)))),
        # the Omega_4 column as printed, including its (K^2 - 4 L^4) factor
        ("Z4_m1_Jxy", "Jxy(a+a+)",
         K * W ** 4 * eta ** 3 / (pi ** 3 * (KK - 4 * LL) * (KK - LL)),
         pi * (KK - LL) / (4 * K * eta * (KK - 4 * LL)),
         lambda: 2 * pi * LL * eta * D ** 2 / ((KK - LL) * (KK - 4 * L ** 4))),
        ("Z4_m1_Jz2", "Jz^2",
         -K * W ** 4 * eta ** 2 / (4 * pi ** 3 * LL * (KK - 4 * LL)),
         -pi * (KK - LL) ** 2 / (16 * K * LL * eta ** 2 * (KK - 4 * LL)),
         lambda: -pi * D ** 2 / (2 * (KK - 4 * LL))),
        ("Z4_m1_Jy2", "Jy^2",
         K * W ** 4 * eta ** 2 / (4 * pi ** 3 * LL * (KK - LL)),
         pi * (KK - LL) / (16 * K * LL * eta ** 2),
         lambda: pi * D ** 2 / (2 * (KK - LL))),
    )
    # Omega_4 cells only where Omega_4 is real: at K = 2L^2, which validate accepts
    # (K = 18, L = 3), the Z4_m1_Jxy cell divides by zero, and s^2 < K^2 - L^2.
    return [BudgetRow(label, op, generic, at_ld, math.nan if math.isnan(D) else at_o4())
            for label, op, generic, at_ld, at_o4 in rows]


def render_table(params: GateParams, rows: list[BudgetRow]) -> str:
    """Aligned plain-text rendering of the budget rows at params, with the amplitudes,
    the residual d_y + pi/2 at Omega_4 (~0) and, when omega_T is set, d_y there."""
    at = amplitude_set(params)
    header = f"{'term':<12}{'operator':<24}{'generic':>16}{'at_LD':>16}{'at_O4':>16}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r.label:<12}{r.operator_tag:<24}"
                     f"{r.generic:>16.6e}{r.at_ld:>16.6e}{r.at_o4:>16.6e}")
    lines.append("")
    lines.append(f"omega_LD*T = {at.omega_ld:.6f}")
    lines.append(f"omega_2*T  = {at.omega_2:.6f}")
    residual = combined_dy(params, at.omega_4) + math.pi / 2
    lines.append(f"omega_4*T  = {at.omega_4:.6f} (quadratic residual {residual:.3e})")
    if params.omega_T:
        lines.append(f"combined d_y = {combined_dy(params, params.omega_T):.6e}")
    return "\n".join(lines)

