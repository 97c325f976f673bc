"""Independent full-space oracles, built with ``np.kron`` from the building blocks
(``collective_spin``, the stack of ``sideband_operators``, the ladder operators) and
never through the symmetry blocks or ``hilbert.embed``, and the composite-index
helpers the tests measure full-space matrices with, and the closed forms and spectral quadrature that
check the exact resonance integrals of ``msgate.resint``, with the ``Fraction``
reference of its integer engine (``fraction_integral``), the prefix-sum filter
``may_be_resonant`` and the full sequence walk of the exact Dyson route
(``sequence_weights``).  Also what only the tests read of the model:
  * ``frame_blocks``, the Hamiltonian blocks at a vector of instants from a builder's
    generator pair and the pulse's drive, and the composite Hamiltonian at one
    instant built from them;
  * the closed-form Bell fidelity of a Fock-diagonal generator;
  * the associated Laguerre polynomials from their series (``laguerre_series``),
    the Laguerre form factors of Z_2 (``form_factor``) and the largest
    Fock-off-diagonal entry of an order (``fock_offdiagonal_max``);
  * the printed sin^2-pulse closed forms (``sin2_forms``), which track the
    assembly only to 10-20%;
  * ``calibrate_omega``, a bounded minimiser of the U4 infidelity over omega_T;
  * ``budget_at_o4_decimal``, Omega_4 and the Omega_4 column of the budget table from
    their printed forms in 80-digit ``Decimal`` arithmetic;
  * the ``scipy.sparse`` forms of the transfer plan's maps (``csc_map``) and of its
    drive step (``sparse_drive_step``), which pin the order in which the numpy pass
    rounds its sums;
  * ``piecewise_magnus``, a second numeric route to ``Unum`` in block form: the Magnus
    integrator with its step integrals in closed form (``magnus_psi``)."""

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.sparse
from scipy.optimize import minimize_scalar

from msgate import fidelity, hilbert, magnus, resint
from msgate.params import beat_note
from msgate.pulses import PulseShape, envelope_at, rectangular

# the qubit operators only the tests project onto, next to ``hilbert``'s SIGMA_X, SIGMA_Y, JX, JY
# and JY2: sigma_z, Jz, the symmetrised Jxy = (sigma_x (x) sigma_y + sigma_y (x) sigma_x)/2,
# Jx^2 and Jz^2
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
JZ = 0.5 * (np.kron(np.eye(2, dtype=complex), SIGMA_Z) + np.kron(SIGMA_Z, np.eye(2, dtype=complex)))
JXY = 0.5 * (np.kron(hilbert.SIGMA_X, hilbert.SIGMA_Y) + np.kron(hilbert.SIGMA_Y, hilbert.SIGMA_X))
JX2, JZ2 = hilbert.JX @ hilbert.JX, JZ @ JZ

# a pulse with complex taps: c_{+-1} = +-i/4
SKEW = PulseShape.from_dict("skew", {0: 0.5, 1: 0.25j, -1: -0.25j})


def frame_blocks(generators, params, pulse, taus):
    """Q_b^H H(tau) Q_b = omega_T g(tau) r_b B_b r_b^H at each tau of ``taus``, from the
    generator pair (B_+, B_-) of a ``hilbert`` builder and the drive g of
    ``hilbert.drive_taps``: one stack per block."""
    taps, coeffs = hilbert.drive_taps(params, pulse)
    amp, K = params.omega_T * (np.exp(2j * np.pi * np.outer(taus, taps)) @ coeffs), params.K
    # entry (j, k) turns by exp(i 2 pi tau K (n_j - n_k)), from the integer difference
    return [amp[:, None, None] * np.exp(2j * np.pi * taus[:, None, None] * (K * (n[:, None] - n))) * B
            for B, (n, _) in zip(generators, hilbert.block_basis(params.n_dim))]


def hamiltonian_at(tau, params, pulse):
    """Dimensionless interaction Hamiltonian T*H(tau*T)/hbar at one instant, as the
    composite matrix of its blocks."""
    generators = hilbert.sideband_hamiltonian(params.eta, params.n_dim, params.m_max)
    blocks = frame_blocks(generators, params, pulse, np.array([tau]))
    return hilbert.embed([H[0] for H in blocks], params.n_dim, 0.0)


def displacement_hamiltonian_at(tau, params, pulse):
    """The exact-displacement Hamiltonian at one instant."""
    generators = hilbert.displacement_hamiltonian(params.eta, params.n_dim, params.m_max)
    blocks = frame_blocks(generators, params, pulse, np.array([tau]))
    return hilbert.embed([H[0] for H in blocks], params.n_dim, 0.0)


def closed_form_bell(dx_by_n, dy_by_n, weights):
    """Bell fidelity of a generator sum_n (dx_n Jx^2 + dy_n Jy^2) x |n><n|:
    (1 - sum_n P_n sin(TARGET_PHASE) sin(dx_n - dy_n)) / 2."""
    dx = np.asarray(dx_by_n, dtype=float)
    dy = np.asarray(dy_by_n, dtype=float)
    P = weights.weights[: dx.size]
    return 0.5 * (1.0 - float(np.sum(P * np.sin(fidelity.TARGET_PHASE) * np.sin(dx - dy))))


def explicit_term_sum(p, pulse, tau):
    """sum_{M,m,mu} omega_T c_M e^{i 2 pi N tau} J_m (x) A_m, term by term."""
    A = hilbert.sideband_operators(p.eta, p.n_dim, p.m_max)
    return sum(p.omega_T * pulse.c(M) * np.exp(2j * np.pi * beat_note(M, m, mu, p) * tau)
               * np.kron(hilbert.collective_spin(m), A[m + p.m_max])
               for M in pulse.support for m in range(-p.m_max, p.m_max + 1) for mu in (-1, 1))


def per_tau_displacement(p, pulse, tau):
    """omega_T f(tau) cos(2 pi L tau) (J+ (x) D + J- (x) D^H), with D(tau) from one
    eigh of the generator eta (a e^{-i 2 pi K tau} + a+ e^{i 2 pi K tau})."""
    a = hilbert.destroy(p.n_dim)
    phase = np.exp(-2j * np.pi * p.K * tau)
    gw, gv = np.linalg.eigh(p.eta * (phase * a + np.conj(phase) * a.conj().T))
    disp = (gv * np.exp(1j * gw)) @ gv.conj().T
    amp = p.omega_T * envelope_at(pulse, tau) * np.cos(2 * np.pi * p.L * tau)
    return amp * (np.kron(hilbert.JPLUS, disp) + np.kron(hilbert.JMINUS, disp.conj().T))


def _accumulate(acc, key, mat):
    if key in acc:
        acc[key] += mat
    else:
        acc[key] = mat.copy()


def full_space_transfer(params, pulse, up_to):
    """Oracle: the transfer pass on the full space, with its state kept as a
    (power, freq) -> matrix dict (the assembly before the symmetry blocks)."""
    taps, tap_c = hilbert.drive_taps(params, pulse)
    ms = range(-params.m_max, params.m_max + 1)
    ops = [np.kron(hilbert.collective_spin(m), A)
           for m, A in zip(ms, hilbert.sideband_operators(params.eta, params.n_dim, params.m_max))]
    state = {(0, 0): np.eye(4 * params.n_dim, dtype=complex)}
    p_hats = []
    for order in range(1, up_to + 1):
        stack = np.stack(list(state.values()))
        prods = {m: np.matmul(op, stack) for m, op in zip(ms, ops)}
        integrand = {}
        for m in ms:
            for N, c in zip(taps, tap_c):
                for (p, nu), mat in zip(state, c * prods[m]):
                    _accumulate(integrand, (p, nu + int(N) + m * params.K), mat)
        state = {}
        for (p, nu), mat in integrand.items():
            if nu == 0:
                parts = [((p + 1, 0), mat / (p + 1))]
            else:
                parts = []
                for j in range(p, -1, -1):
                    c = ((-1) ** (p - j) * math.factorial(p) / math.factorial(j)
                         * (2j * np.pi * nu) ** (j - p - 1))
                    parts.append(((j, nu), c * mat))
                    if j == 0:
                        parts.append(((0, 0), -c * mat))
            for key, part in parts:
                _accumulate(state, key, part)
        p_hats.append((-1j) ** order * sum(state.values()))
    return p_hats


def guard_band_indices(params):
    """Composite indices whose Fock level lies below the guard band n < n_dim - m_max,
    where the truncated ladder operators are exact."""
    n = np.arange(4 * params.n_dim)
    return n[(n % params.n_dim) < params.n_dim - params.m_max]


def guard_block(A, params):
    """Sub-matrix of A restricted to guard-banded composite indices."""
    idx = guard_band_indices(params)
    return A[np.ix_(idx, idx)]


def unitarity_defect(A):
    return float(np.abs(A.conj().T @ A - np.eye(A.shape[0])).max())


# ---------------------------------------------------------------------------
# Closed forms and a calibration that the package does not use.
# ---------------------------------------------------------------------------

def laguerre_series(a, b, x):
    """Associated Laguerre polynomial L_a^{(b)}(x) from its explicit series
    sum_k (-1)^k C(a+b, a-k) x^k / k!."""
    return sum((-1) ** k * math.comb(a + b, a - k) * x ** k / math.factorial(k)
               for k in range(a + 1))


def form_factor(params, n, parity, pulse=None):
    """Fock-level-resolved coefficient d_x^(n) ('even') or d_y^(n) ('odd') of
    Jx^2 / Jy^2 in Z_2, from the associated-Laguerre closed form.

    The sideband sum is truncated at m_max so the value is directly
    comparable with the assembled Z_2.
    """
    pulse = pulse if pulse is not None else rectangular()
    eta2 = params.eta ** 2
    if parity == "even":
        ms = [m for m in range(-params.m_max, params.m_max + 1) if m % 2 == 0]
        sign = +1.0
    elif parity == "odd":
        ms = [m for m in range(-params.m_max, params.m_max + 1) if m % 2 != 0]
        sign = -1.0
    else:
        raise ValueError("parity must be 'even' or 'odd'")
    acc = 0.0
    for m in ms:
        lo = min(n, n - m)
        if lo < 0:
            continue
        hi = max(n, n - m)
        weight = ((-eta2) ** abs(m)
                  * laguerre_series(lo, abs(m), eta2) ** 2
                  * math.factorial(lo) / math.factorial(hi))
        for M, mu in itertools.product(pulse.support, (-1, 1)):
            N = beat_note(M, m, mu, params)
            if N == 0:
                raise ValueError(f"beat note N=0 at M={M}, m={m}, mu={mu}")
            acc += abs(pulse.c(M)) ** 2 * weight / N
    return sign * params.omega_T ** 2 / (2 * np.pi) * math.exp(-eta2) * acc


def fock_offdiagonal_max(Z, params):
    """Largest entry of the block form Z with a Fock-level change below the guard band."""
    keep = range(params.n_dim - params.m_max)
    return max((float(np.abs(hilbert.level_block(Z, params.n_dim, r, c)).max())
                for r in keep for c in keep if r != c), default=0.0)


@dataclass(frozen=True)
class Sin2Forms:
    """The printed sin^2-pulse closed forms at params.omega_T: the polynomials of the
    second (p_y / q_y) and third order (p_3), the leading-order pi/2 amplitude, the
    composite Jy^2 coefficient of Z_2 at Fock level 0 and the Jy(a+a+) one of Z_3."""

    p_y: int
    q_y: int
    p_3: int
    omega_ld: float
    z2_y: float
    z3: float


def sin2_forms(params):
    """The printed sin^2 forms at params.  They describe the two-lobe pulse sin^2(2 pi tau)
    = {0: 1/2, +/-2: -1/4}: at eta = 1e-3, z2_y / (1 - eta^2) is -1 times that pulse's
    leading Jy^2 coefficient of Z_2 at level 0, to 1e-6 relative at (K, L) = (28, 25),
    (100, 97), (41, 7) and (50, 13).  msgate's ``sin_squared`` is sin^2(pi tau), with the
    harmonics +/-1, and the Z2 form misses it by 17% at (28, 25) (ratio -0.830) and by
    less than 0.1% at (41, 7) and (50, 13).  z3 is 1/4 of the two-lobe pulse's Jy
    coefficient of Z_3 on <1|.|0> with m_max = 1: at eta = 3e-3, n_dim = 6 and the same four
    (K, L), that coefficient over z3 reads 4 to 2e-5 relative."""
    K, L, eta, W = params.K, params.L, params.eta, params.omega_T
    KK, LL = K * K, L * L
    p_y = 3 * (KK - LL) ** 2 - 4 * (5 * KK + 3 * LL - 8)
    q_y = 8 * (KK - LL) * ((K - L) ** 2 - 4) * ((K + L) ** 2 - 4)
    p_3 = (KK + 3 * LL - 4) * (3 * (KK - LL) ** 2 - 4 * (5 * KK + 3 * LL - 8))
    q_3 = 8 * (KK - LL) ** 2 * ((K - L) ** 2 - 4) ** 2 * ((K + L) ** 2 - 4) ** 2
    return Sin2Forms(p_y=p_y, q_y=q_y, p_3=p_3,
                     omega_ld=(math.pi / (eta * math.sqrt(2 * K))) * math.sqrt(q_y / p_y),
                     z2_y=K * W ** 2 * eta ** 2 / math.pi * (p_y / q_y) * (1 - eta ** 2),
                     z3=(KK * W ** 3 * eta ** 5 / math.pi ** 2) * (p_3 / q_3))


def calibrate_omega(params, pulse, bracket, tol=1e-4):
    """The omega_T in ``bracket`` that minimises the average infidelity of U4, by a
    bounded scalar minimiser to within ``tol``."""
    weights = fidelity.ThermalWeights(params.nbar, params.n_dim)

    def infid(w):
        U = magnus.propagators_upto(params.replace(omega_T=w), pulse, max_order=4)[4]
        return 1.0 - fidelity.average_fidelity(U, weights)

    return float(minimize_scalar(infid, bounds=bracket, method="bounded", options={"xatol": tol}).x)


def _decimal_pi() -> Decimal:
    """pi to the precision of the current context (the series of the ``decimal`` docs)."""
    with localcontext() as ctx:
        ctx.prec += 2
        last, t, s, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
        while s != last:
            last = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def budget_at_o4_decimal(K: int, L: int, eta: float, n: int = 0) -> tuple[float, dict[str, float]]:
    """Omega_4 and the Omega_4 column of ``budget.table_rows`` at Fock level n, from the
    printed forms, subtractions included, in 80-digit arithmetic at the exact eta of the
    float, by row label; NaN and no cells when s^2 < K^2 - L^2."""
    with localcontext() as ctx:
        ctx.prec = 80
        pi, e, KK, LL, m = _decimal_pi(), Decimal(eta), Decimal(K * K), Decimal(L * L), 2 * n + 1
        s = (2 * Decimal(K)).sqrt() * L * e * (1 - e * e)
        disc = s * s - (KK - LL)
        if disc < 0:
            return math.nan, {}
        rt = disc.sqrt()
        D = s - rt
        r2K, K125, L15 = (2 * Decimal(K)).sqrt(), Decimal(K) ** Decimal("1.25"), Decimal(L) ** Decimal("1.5")
        omega4 = (2 ** Decimal("0.5") * pi ** 2 * L * D / (Decimal(K).sqrt() * e)).sqrt()
        cells = {
            "Gate": -r2K * pi * L * e * D / (KK - LL),
            "Z2_m1": r2K * pi * L * e ** 3 * m * D / (KK - LL),
            "Z2_m2": -r2K * pi * L * e ** 3 * m * D / (4 * KK - LL),
            "Z3_m1": -(2 ** Decimal("1.75")) * pi * K125 * L15 * e ** Decimal("3.5") * D ** Decimal("1.5")
                     / (KK - LL) ** 2,
            "Z3_m2": -(2 ** Decimal("0.75")) * pi * K125 * L15 * e ** Decimal("2.5") * D ** Decimal("1.5")
                     / ((4 * KK - LL) * (KK - LL)),
            "Z4_m1_Jxy": 2 * pi * LL * e * D ** 2 / ((KK - LL) * (KK - 4 * Decimal(L) ** 4)),
            "Z4_m1_Jz2": pi * (KK - LL - 2 * s * s + 2 * s * rt) / (2 * (KK - 4 * LL)),
            "Z4_m1_Jy2": -pi / 2 + pi * s * D / (KK - LL),
        }
        return float(omega4), {label: float(v) for label, v in cells.items()}


# ---------------------------------------------------------------------------
# Resonance-integral oracles.
# ---------------------------------------------------------------------------

def may_be_resonant(Ns) -> np.ndarray:
    """Cheap necessary condition for a nonzero integral when all N_j != 0, for each
    tuple along the last axis: some contiguous block must sum to zero (a repeated
    prefix sum)."""
    sums = np.cumsum(Ns, axis=-1)
    sums = np.sort(np.concatenate([np.zeros_like(sums[..., :1]), sums], axis=-1), axis=-1)
    return (np.diff(sums, axis=-1) == 0).any(axis=-1)


def is_resonant(Ns) -> bool:
    """True iff the exact integral is nonzero."""
    Ns = resint._integer_tuple(Ns)
    if all(N != 0 for N in Ns) and not may_be_resonant(Ns):
        return False
    return not resint.resonance_integral(Ns).is_zero


def order2_closed_form(N1: int, N2: int) -> complex:
    """Case table for k = 2 with integer beat notes."""
    if N1 == 0 and N2 == 0:
        return 0.5 + 0j
    if N1 == 0:
        return 1j / (2 * math.pi * N2)
    if N2 == 0:
        return -1j / (2 * math.pi * N1)
    if N1 + N2 == 0:
        return -1j / (2 * math.pi * N2)
    return 0j


def order3_closed_form(N1: int, N2: int, N3: int) -> complex:
    """Closed form for k = 3 with nonzero integer beat notes:

        (delta_{N1+N2} / N2  -  delta_{N2+N3} / N1) / (4 pi^2 N3).

    The minus sign on the second branch follows from direct integration by
    parts and is confirmed by quadrature (tabulated versions sometimes print
    both branches positive).  Valid when no *total* cancellation
    N1+N2+N3 = 0 occurs without one of the adjacent pairs vanishing;
    gate-valid parameter sets never produce that case, but arbitrary tuples
    (e.g. (1, 1, -2)) do and then the closed form is incomplete.
    """
    val = 0.0
    if N1 + N2 == 0:
        val += 1.0 / N2
    if N2 + N3 == 0:
        val -= 1.0 / N1
    return val / (4 * math.pi ** 2 * N3)


# ---------------------------------------------------------------------------
# The Fraction reference of ``msgate.resint``: the same integration by parts with
# one ``Fraction`` per term, normalised by every operation.
# ---------------------------------------------------------------------------

class FractionSum(dict):
    """{(p, nu, g): r} for the sum of r / (i pi)^g * tau^p * exp(i 2 pi nu tau), one
    ``Fraction`` r per key, with what the tuple route reads of a ``resint.OscSum``."""

    @property
    def terms(self) -> dict:
        return dict(self)

    @property
    def is_zero(self) -> bool:
        return not self

    def add(self, key, r) -> None:
        """Merge r into key; a key whose sum cancels is removed."""
        r += self.get(key, 0)
        if r == 0:
            self.pop(key, None)
        else:
            self[key] = r

    def as_complex(self) -> complex:
        out = 0j
        for (_p, _nu, g), r in self.items():  # r / (i pi)^g = r (-i)^g / pi^g
            re, im = ((r, 0), (0, -r), (-r, 0), (0, r))[g % 4]
            out += complex(re, im) / math.pi ** g
        return out

    __complex__ = as_complex


def fraction_step(f: FractionSum, N: int) -> FractionSum:
    """int_0^tau e^{i 2 pi N s} f(s) ds term by term: the power raised where the
    shifted frequency vanishes, else ``resint.parts_table`` and the s = 0 boundary."""
    out = FractionSum()
    for (p, nu, g), r in f.items():
        nu2 = nu + N
        if nu2 == 0:
            out.add((p + 1, 0, g), r / (p + 1))
            continue
        for j, q, a in resint.parts_table(p):
            c = r * Fraction(a, (2 * nu2) ** q)
            out.add((j, nu2, g + q), c)
            if j == 0:
                out.add((0, 0, g + q), -c)
    return out


def fraction_to_one(f: FractionSum, N: int) -> FractionSum:
    """int_0^1 e^{i 2 pi N s} f(s) ds: the parts j >= 1 of ``resint.parts_table``."""
    acc: dict[int, Fraction] = {}
    for (p, nu, g), r in f.items():
        nu2 = nu + N
        if nu2 == 0:
            acc[g] = acc.get(g, 0) + r / (p + 1)
            continue
        for _j, q, a in resint.parts_table(p)[:-1]:
            acc[g + q] = acc.get(g + q, 0) + r * Fraction(a, (2 * nu2) ** q)
    return FractionSum({(0, 0, g): r for g, r in acc.items() if r})


def fraction_antiderivative(Ns) -> FractionSum:
    """The antiderivative of the nested integral over Ns, N_k innermost."""
    f = FractionSum({(0, 0, 0): Fraction(1)})
    for N in reversed(tuple(Ns)):
        f = fraction_step(f, N)
    return f


def fraction_integral(Ns) -> FractionSum:
    """The nested integral over an integer tuple Ns, as ``resint.resonance_integral``
    computes it, one ``Fraction`` at a time and without caches."""
    Ns = resint._integer_tuple(Ns)
    if not Ns:
        return FractionSum({(0, 0, 0): Fraction(1)})
    return fraction_to_one(fraction_antiderivative(Ns[1:]), Ns[0])


def sequence_weights(params, pulse, k):
    """Yields (the sequence as indices into m = -m_max..m_max, (re, im)) with the exact
    weight of every sideband sequence, m_k slowest: the depth-first walk of
    ``magnus._sequences`` over all n^k sequences, one sideband at a time: each child's
    drive carries the taps N_g + m K at the single shift 0, both parts are integrated
    and evaluated at every node, empty or not, and no mirror identity is used."""
    taps, tap_c = hilbert.drive_taps(params, pulse)
    drives = []
    for m in range(-params.m_max, params.m_max + 1):
        a, b = ([(int(N) + m * params.K, Fraction(part(c))) for N, c in zip(taps, tap_c) if part(c)]
                for part in (np.real, np.imag))
        drives.append((a, b, [(N, -c) for N, c in b]))

    def walk(re, im, suffix):
        for i, (a, b, minus_b) in enumerate(drives):
            parts = ((re, a), (im, minus_b)), ((re, b), (im, a))
            if len(suffix) == k - 1:
                yield (i, *suffix), tuple(resint.integrate_product_to_one(part, [0])[0] for part in parts)
            else:
                yield from walk(*(resint.integrate_product(part, [0])[0] for part in parts), (i, *suffix))

    yield from walk(resint.OscSum.unit(), resint.OscSum(), ())


# ---------------------------------------------------------------------------
# Spectral quadrature oracle of the nested integrals (independent of the
# integration-by-parts path in ``msgate.resint``).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _cheb_nodes_tau(n: int) -> np.ndarray:
    x = np.cos(np.pi * np.arange(n + 1) / n)
    return 0.5 * (x + 1.0)


def _cheb_coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through Lobatto-node values."""
    n = values.size - 1
    ext = np.concatenate([values, values[-2:0:-1]])
    spec = np.fft.fft(ext) / n
    coeffs = spec[: n + 1].copy()
    coeffs[0] *= 0.5
    coeffs[n] *= 0.5
    return coeffs


def _cheb_values(coeffs: np.ndarray) -> np.ndarray:
    """Values at the Lobatto nodes of a Chebyshev coefficient array."""
    n = coeffs.size - 1
    ext = np.concatenate([coeffs, coeffs[-2:0:-1]])
    vals = np.fft.ifft(ext) * n
    vals = vals[: n + 1]
    sign = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
    return vals + 0.5 * coeffs[0] + 0.5 * coeffs[n] * sign


def _cheb_integral(coeffs: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the antiderivative in tau = (x + 1)/2 that vanishes at
    tau = 0: with c scaled by dx/dtau = 1/2, b_k = (c_{k-1} - c_{k+1}) / 2k for k >= 1,
    counting c_0 twice at k = 1, and b_0 = -sum_k (-1)^k b_k.  The values of
    ``numpy.polynomial.chebyshev.chebint(coeffs, lbnd=-1, scl=0.5)``, without its Python
    loop over the coefficients."""
    c = 0.5 * np.concatenate([coeffs, np.zeros(2)])
    k = np.arange(1, len(coeffs) + 1)
    anti = np.empty(len(coeffs) + 1, dtype=c.dtype)
    anti[1:] = (c[k - 1] - c[k + 1]) / (2 * k)
    anti[1] += c[0] / 2
    anti[0] = -np.sum(anti[1:] * (-1.0) ** k)  # T_k(-1) = (-1)^k
    return anti


def quadrature_integral(Ns, n: int = 2048) -> complex:
    """Numerical value of the nested integral via spectral cumulative
    quadrature on a Chebyshev grid; independent of the symbolic path."""
    Ns = resint._integer_tuple(Ns)
    tau = _cheb_nodes_tau(n)
    vals = np.ones(n + 1, dtype=complex)
    for N in reversed(Ns):
        vals = vals * np.exp(2j * np.pi * N * tau)
        coeffs = _cheb_coeffs(vals)
        vals = _cheb_values(_cheb_integral(coeffs)[: n + 1])
    return complex(vals[0])  # node 0 is tau = 1


# ---------------------------------------------------------------------------
# The sparse-matrix forms of the transfer pass (``magnus._plan``), whose products
# round each sum in the order that the numpy pass adds in.
# ---------------------------------------------------------------------------

def csc_map(rows, cols, data, n, n_cols):
    """A map of ``magnus._plan`` as the ``scipy.sparse.csc_array`` that holds its entries in
    their order (a map's entries run column by column): its product adds in that order."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n_cols))])
    return scipy.sparse.csc_array((data, rows, indptr), shape=(n, n_cols))


def sparse_drive_step(parts, tinv, tap_c, n_keys):
    """``magnus._drive_step`` as the CSR product of the transposed drive (row s holds c_g
    on column tinv[g, s]) and parts^T, parts the CSC array of ``magnus._antiderivative``'s
    entries: (row pointers, new keys, values), each row by key."""
    ptr, rows, coef = parts
    n_s = tinv.shape[1]
    drive_t = scipy.sparse.csr_array((np.tile(tap_c, n_s), tinv.T.ravel(), np.arange(0, tinv.size + 1, len(tap_c))),
                                     shape=(n_s, len(ptr) - 1))
    step = drive_t @ scipy.sparse.csc_array((coef, rows, ptr), shape=(n_keys, len(ptr) - 1)).T
    step.sort_indices()
    return step.indptr, step.indices, step.data


# ---------------------------------------------------------------------------
# A second numeric route to ``Unum``: piecewise Magnus with exact oscillatory
# integrals, which takes no rotating frame, fold, period power or splitting.
# ---------------------------------------------------------------------------

def _phi1(x):
    """phi_1(x) = int_0^1 e^{i 2 pi x s} ds = (e^{i 2 pi x} - 1)/(i 2 pi x), as e^{i pi x} sinc(x):
    no cancellation as x -> 0, and 1 at x = 0."""
    return np.exp(1j * np.pi * x) * np.sinc(x)


def _moments(x, top):
    """M_j(x) = int_0^1 s^j e^{i 2 pi x s} ds for j = 0..top, stacked on a new first axis: by the
    power series sum_n z^n / (n! (j + n + 1)), z = i 2 pi x, where |z| <= top + 1, else upward by
    parts, M_j = (e^z - j M_{j-1}) / z, which shrinks its rounding there (j < |z|)."""
    z = 2j * np.pi * np.asarray(x, dtype=float)
    M = np.empty((top + 1,) + z.shape, dtype=complex)
    small = np.abs(z) <= top + 1
    n = np.arange(64)[:, None]
    terms = z[small] ** n / np.array([float(math.factorial(k)) for k in range(64)])[:, None]
    zb = z[~small]
    ez = np.exp(zb)
    for j in range(top + 1):
        M[j][small] = (terms / (j + n + 1)).sum(axis=0)
        M[j][~small] = (ez - (j * M[j - 1][~small] if j else 1)) / zb
    return M


def magnus_psi(x, y):
    """psi(x, y) = int_0^1 ds int_0^s dt e^{i 2 pi (x s + y t)} = (phi_1(x + y) - phi_1(x)) / (i 2 pi y),
    elementwise.  That difference cancels as y -> 0, so where |y| < 1e-2 psi is its Taylor series
    in y, sum_k (i 2 pi y)^k M_{k+1}(x) / (k + 1)!, to k = 8 (the next term is below 1e-17)."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = np.empty(x.shape, dtype=complex)
    near = np.abs(y) < 1e-2
    xf, yf = x[~near], y[~near]
    out[~near] = (_phi1(xf + yf) - _phi1(xf)) / (2j * np.pi * yf)
    M, w = _moments(x[near], 9), 2j * np.pi * y[near]
    out[near] = sum(w ** k * M[k + 1] / math.factorial(k + 1) for k in range(9))
    return out


def piecewise_magnus(params, pulse, S):
    """U in block form (U_+, U_-) from S equal steps of the Magnus integrator with exact
    quadrature (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).  H(tau) =
    omega_T sum_{g,m} c_g e^{i 2 pi nu tau} Op_m, nu = N_g + m K, is a finite trigonometric sum
    of the taps (N_g, c_g) of ``hilbert.drive_taps`` and the blocks Op_m of J_m (x) A_m
    (``hilbert.hamiltonian_terms``), so on the step [a, a + h], h = 1/S, the first two Magnus
    terms integrate in closed form:
        Omega_1 = -i omega_T sum_m alpha_m Op_m,  alpha_m = h sum_g c_g e^{i 2 pi nu a} phi_1(nu h),
        Omega_2 = -omega_T^2 / 2 sum_{m,m'} beta_mm' Op_m Op_m',
        beta_mm' = h^2 sum_{g,g'} c_g c_g' e^{i 2 pi (nu + nu') a} (psi(nu h, nu' h) - psi(nu' h, nu h)),
    and U = exp(Omega_{S-1}) ... exp(Omega_0), fourth order in h.  It reads nothing of
    ``trotter``: no rotating frame, fold, period power or splitting."""
    taps, coeffs = hilbert.drive_taps(params, pulse)
    n_m = 2 * params.m_max + 1
    nu = (np.array([int(N) for N in taps])[:, None] + np.arange(-params.m_max, params.m_max + 1) * params.K).ravel()
    # c_g e^{i 2 pi nu a} at a = k/S, its phase reduced mod 1 in integers; columns (g, m), g slowest
    u = np.repeat(coeffs, n_m) * np.exp(2j * np.pi * (np.outer(np.arange(S), nu) % S) / S)
    x = nu / S
    alpha = (u * _phi1(x)).reshape(S, -1, n_m).sum(axis=1) / S
    psi = magnus_psi(x[:, None], x[None, :])
    pairs = (psi - psi.T).reshape(len(taps), n_m, len(taps), n_m)
    u = u.reshape(S, -1, n_m)
    beta = np.einsum("sgm,gmkn,skn->smn", u, pairs, u, optimize=True) / S ** 2
    blocks = []
    for ops in hilbert.hamiltonian_terms(params.eta, params.n_dim, params.m_max):
        d = ops.shape[-1]
        # the Hermitian i Omega of every step: omega_T alpha.Op - (i/2) omega_T^2 beta.Op Op
        gen = (params.omega_T * alpha @ ops.reshape(n_m, -1)
               - 0.5j * params.omega_T ** 2 * beta.reshape(S, -1) @ (ops[:, None] @ ops[None]).reshape(n_m ** 2, -1))
        lam, V = np.linalg.eigh(gen.reshape(S, d, d))
        U = np.eye(d, dtype=complex)
        for step in (V * np.exp(-1j * lam)[:, None, :]) @ np.swapaxes(V, -1, -2).conj():
            U = step @ U
        blocks.append(U)
    return tuple(blocks)
