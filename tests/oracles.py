"""Independent full-space oracles, built with ``np.kron`` from the building blocks
(``collective_spin``, ``sideband_operator``, the ladder operators) and never through
the symmetry blocks or ``hilbert.embed``, and the composite-index helpers the tests
measure full-space matrices with, and the closed forms and spectral quadrature that
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
  * ``calibrate_omega``, a bounded minimiser of the U4 infidelity over omega_T."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar

from msgate import fidelity, hilbert, magnus, resint
from msgate.params import beat_note
from msgate.pulses import PulseShape, envelope_at, rectangular

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
    blocks = frame_blocks(hilbert.sideband_hamiltonian(params), params, pulse, np.array([tau]))
    return hilbert.embed([H[0] for H in blocks], params.n_dim, 0.0)


def displacement_hamiltonian_at(tau, params, pulse):
    """The exact-displacement Hamiltonian at one instant."""
    blocks = frame_blocks(hilbert.displacement_hamiltonian(params), params, pulse, np.array([tau]))
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
    return sum(p.omega_T * pulse.c(M) * np.exp(2j * np.pi * beat_note(M, m, mu, p) * tau)
               * np.kron(hilbert.collective_spin(m), hilbert.sideband_operator(m, p.eta, p.n_dim))
               for M in pulse.support for m in range(-p.m_max, p.m_max + 1) for mu in (-1, 1))


def per_tau_displacement(p, pulse, tau):
    """omega_T f(tau) cos(2 pi L tau) (J+ (x) D + J- (x) D^H), with D(tau) from one
    eigh of the generator eta (a e^{-i 2 pi K tau} + a+ e^{i 2 pi K tau})."""
    J = hilbert.collective_spins()
    a = hilbert.destroy(p.n_dim)
    phase = np.exp(-2j * np.pi * p.K * tau)
    gw, gv = np.linalg.eigh(p.eta * (phase * a + np.conj(phase) * a.conj().T))
    disp = (gv * np.exp(1j * gw)) @ gv.conj().T
    amp = p.omega_T * envelope_at(pulse, tau) * np.cos(2 * np.pi * p.L * tau)
    return amp * (np.kron(J.Jplus, disp) + np.kron(J.Jminus, disp.conj().T))


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
    ops = [np.kron(hilbert.collective_spin(m), hilbert.sideband_operator(m, params.eta, params.n_dim))
           for m in ms]
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
    less than 0.1% at (41, 7) and (50, 13)."""
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
