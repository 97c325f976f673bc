"""Independent full-space oracles, built with ``np.kron`` from the building blocks
(``collective_spin``, ``sideband_operator``, the ladder operators) and never through
the symmetry blocks or ``hilbert.embed``, and the composite-index helpers the tests
measure full-space matrices with."""

import math

import numpy as np

from msgate import hilbert
from msgate.params import beat_note
from msgate.pulses import envelope_at


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
    state = {(0, 0): np.eye(params.dim, dtype=complex)}
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
    n = np.arange(params.dim)
    return n[(n % params.n_dim) < params.n_dim - params.m_max]


def guard_block(A, params):
    """Sub-matrix of A restricted to guard-banded composite indices."""
    idx = guard_band_indices(params)
    return A[np.ix_(idx, idx)]


def unitarity_defect(A):
    return float(np.abs(A.conj().T @ A - np.eye(A.shape[0])).max())
