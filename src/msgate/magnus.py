"""Dyson terms, effective-Hamiltonian orders Z_2..Z_5 and truncated propagators.

The k-th Dyson term is assembled as

    P_k = (-i)^k (Omega*T)^k  sum over label tuples  [prod_j c_{M_j}]
          * I(N_1, ..., N_k) * Op(1) Op(2) ... Op(k),

where Op(j) = J_{m_j} (x) A_{m_j}, N_1 rides the outermost (latest) time and
its operator stands leftmost.  With every first-order beat note a nonzero
integer the first order vanishes and the effective-Hamiltonian orders follow
from the Dyson ones as Z_2 = i P_2, Z_3 = i P_3, Z_4 = i(P_4 - P_2^2/2),
Z_5 = i(P_5 - (P_2 P_3 + P_3 P_2)/2).

Two assembly routes are provided.  The default ("transfer") performs the
nested integration once with matrix-valued coefficients, tracking terms
tau^p * e^{i 2 pi nu tau} keyed by integer frequency; its cost grows with the
number of distinct partial beat-note sums instead of the raw tuple count
(which exceeds 1e8 at order 5 for a three-harmonic pulse).  The "tuples"
route enumerates label tuples against the exact integral engine and is kept
as a cross-check for low orders.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import hilbert, resint
from .params import GateParams
from .pulses import PulseShape, rectangular


def _assembly_key(params: GateParams, pulse: PulseShape, up_to: int) -> tuple:
    return (params.eta, params.K, params.L, params.n_dim, params.m_max,
            pulse.cache_key(), up_to)


_DYSON_CACHE: dict[tuple, list[np.ndarray]] = {}


def dyson_hat_terms(params: GateParams, pulse: PulseShape, up_to: int) -> list[np.ndarray]:
    """P_k / (Omega*T)^k for k = 1..up_to, from one transfer pass (cached)."""
    key = _assembly_key(params, pulse, up_to)
    cached = _DYSON_CACHE.get(key)
    if cached is None:
        cached = _transfer_dyson(params, pulse, up_to)
        _DYSON_CACHE[key] = cached
    return cached


def _transfer_dyson(params: GateParams, pulse: PulseShape, up_to: int) -> list[np.ndarray]:
    terms = hilbert.hamiltonian_terms(params, pulse)
    labels = [(t.N, t.coeff, t.op) for t in terms]
    dim = params.dim
    # state: (power, freq) -> matrix coefficient of tau^p e^{i 2 pi freq tau}
    state: dict[tuple[int, int], np.ndarray] = {(0, 0): np.eye(dim, dtype=complex)}
    p_hats = []
    for order in range(1, up_to + 1):
        keys = list(state.keys())
        stack = np.stack([state[k] for k in keys])
        integrand: dict[tuple[int, int], np.ndarray] = {}
        for N, coeff, op in labels:
            shifted = coeff * np.matmul(op, stack)
            for idx, (p, nu) in enumerate(keys):
                key2 = (p, nu + N)
                acc = integrand.get(key2)
                if acc is None:
                    integrand[key2] = shifted[idx].copy()
                else:
                    acc += shifted[idx]
        state = {}

        def _acc(key, mat):
            cur = state.get(key)
            if cur is None:
                state[key] = mat
            else:
                cur += mat

        for (p, nu), mat in integrand.items():
            if nu == 0:
                _acc((p + 1, 0), mat / (p + 1))
                continue
            iw = 1j * 2 * np.pi * nu
            for j in range(p, -1, -1):
                cj = ((-1) ** (p - j)) * (math.factorial(p) / math.factorial(j)) * iw ** (j - p - 1)
                _acc((j, nu), cj * mat)
                if j == 0:
                    _acc((0, 0), -cj * mat)
        total = np.zeros((dim, dim), dtype=complex)
        for mat in state.values():
            total += mat  # tau = 1, integer freqs: every phase factor is 1
        p_hats.append((-1j) ** order * total)
    return p_hats


def _tuple_dyson(params: GateParams, pulse: PulseShape, k: int) -> np.ndarray:
    """Direct tuple enumeration against the exact integral engine.

    Viable for low orders / narrow pulses only; the transfer route is the
    production path.
    """
    terms = hilbert.hamiltonian_terms(params, pulse)
    labels = [(t.N, t.coeff, t.op) for t in terms]
    dim = params.dim
    total = np.zeros((dim, dim), dtype=complex)
    prod_cache: dict[tuple[int, ...], np.ndarray] = {}

    def product(idx: tuple[int, ...]) -> np.ndarray:
        mat = prod_cache.get(idx)
        if mat is None:
            if len(idx) == 1:
                mat = labels[idx[0]][2]
            else:
                mat = product(idx[:-1]) @ labels[idx[-1]][2]
            prod_cache[idx] = mat
        return mat

    for combo in itertools.product(range(len(labels)), repeat=k):
        Ns = tuple(labels[i][0] for i in combo)
        if not resint.may_be_resonant(Ns):
            continue
        val = resint.resonance_integral(Ns)
        if val.is_zero:
            continue
        coeff = np.prod([labels[i][1] for i in combo]) * val.as_complex()
        total += coeff * product(combo)
    return (-1j) ** k * total


def dyson_term(k: int, params: GateParams, pulse: PulseShape | None = None,
               method: str = "transfer") -> np.ndarray:
    """k-th Dyson term P_k, including the (-i)^k and (Omega*T)^k factors."""
    if not 1 <= k <= 5:
        raise ValueError(f"order k={k} outside [1, 5]")
    pulse = pulse if pulse is not None else rectangular()
    if method == "transfer":
        p_hat = dyson_hat_terms(params, pulse, k)[k - 1]
    elif method == "tuples":
        p_hat = _tuple_dyson(params, pulse, k)
    else:
        raise ValueError(f"unknown method {method!r}")
    return (params.omega_T ** k) * p_hat


def magnus_terms(params: GateParams, pulse: PulseShape | None = None,
                 up_to: int | None = None) -> dict[int, np.ndarray]:
    """Effective-Hamiltonian orders {k: Z_k} for k = 2..up_to."""
    pulse = pulse if pulse is not None else rectangular()
    up_to = up_to if up_to is not None else params.k_max
    if not 2 <= up_to <= 5:
        raise ValueError(f"up_to={up_to} outside [2, 5]")
    p_hat = dyson_hat_terms(params, pulse, up_to)
    w = params.omega_T
    P = [None] + [(w ** (i + 1)) * p_hat[i] for i in range(up_to)]
    Z = {2: 1j * P[2]}
    if up_to >= 3:
        Z[3] = 1j * P[3]
    if up_to >= 4:
        Z[4] = 1j * (P[4] - 0.5 * (P[2] @ P[2]))
    if up_to >= 5:
        Z[5] = 1j * (P[5] - 0.5 * (P[2] @ P[3] + P[3] @ P[2]))
    return Z


def first_order_term(params: GateParams, pulse: PulseShape | None = None) -> np.ndarray:
    """Z_1 evaluated without assuming it vanishes (it must, for integer
    nonzero beat notes)."""
    pulse = pulse if pulse is not None else rectangular()
    return 1j * dyson_term(1, params, pulse)


def propagators_upto(params: GateParams, pulse: PulseShape | None = None,
                     max_order: int = 4) -> dict[int, np.ndarray]:
    """Truncated propagators {n: U_n = exp(-i sum_{k=2}^n Z_k)} for
    n = 2..max_order, from a single assembly."""
    out = {}
    gen = np.zeros((params.dim, params.dim), dtype=complex)
    for n, Z in magnus_terms(params, pulse, up_to=max_order).items():
        gen = gen + Z
        out[n] = hilbert.matrix_exp(-1j * gen)
    return out


# ---------------------------------------------------------------------------
# Closed-form Fock-diagonal coefficients of Z_2 (Laguerre form factors) and
# block-coefficient extraction used to compare assemblies against them.
# ---------------------------------------------------------------------------

def form_factor(params: GateParams, n: int, parity: str,
                pulse: PulseShape | None = None) -> float:
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
                  * hilbert.laguerre(lo, abs(m), eta2) ** 2
                  * math.factorial(lo) / math.factorial(hi))
        for M in pulse.support:
            cM2 = abs(pulse.c(M)) ** 2
            for mu in (-1, 1):
                acc += cM2 * weight / (M + m * params.K + mu * params.L)
    return sign * params.omega_T ** 2 / (2 * np.pi) * math.exp(-eta2) * acc


def _pauli_diag_coeff(block: np.ndarray, sigma: np.ndarray) -> complex:
    """Coefficient of J_alpha^2 = (1 + sigma x sigma)/2 in a 4x4 qubit block."""
    P = np.kron(sigma, sigma)
    return complex(np.trace(P.conj().T @ block)) / 2.0


def fock_diagonal_coeff(Z: np.ndarray, params: GateParams, n: int, which: str) -> complex:
    """Coefficient of Jx^2/Jy^2/Jz^2/Jxy in the <n| . |n> qubit block of Z."""
    block = hilbert.fock_block(Z, params.n_dim, n, n)
    if which == "jx2":
        return _pauli_diag_coeff(block, hilbert.SIGMA_X)
    if which == "jy2":
        return _pauli_diag_coeff(block, hilbert.SIGMA_Y)
    if which == "jz2":
        return _pauli_diag_coeff(block, hilbert.SIGMA_Z)
    if which == "jxy":
        J = hilbert.collective_spins()
        return complex(np.trace(J.Jxy.conj().T @ block)) / 2.0
    raise ValueError(f"unknown diagonal operator {which!r}")


def ladder_block_coeff(Z: np.ndarray, params: GateParams, n: int, dn: int,
                       qubit_op: np.ndarray) -> complex:
    """Project the <n+dn| . |n> qubit block of Z onto qubit_op (Frobenius)."""
    block = hilbert.fock_block(Z, params.n_dim, n + dn, n)
    norm2 = np.trace(qubit_op.conj().T @ qubit_op)
    return complex(np.trace(qubit_op.conj().T @ block) / norm2)


def fock_offdiagonal_max(Z: np.ndarray, params: GateParams) -> float:
    """Largest entry with a Fock-index change, on the guard-banded block."""
    keep = params.n_dim - params.m_max
    worst = 0.0
    for r in range(keep):
        for c in range(keep):
            if r == c:
                continue
            worst = max(worst, float(np.abs(hilbert.fock_block(Z, params.n_dim, r, c)).max()))
    return worst
