"""Numerical ground-truth propagator via a product of short-time exponentials."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import hilbert
from .params import GateParams
from .pulses import PulseShape


# the most steps a product is taken over: its grid arrays take ~40 bytes a step
MAX_STEPS = 2 ** 24


@dataclass(frozen=True)
class TrotterConfig:
    """Step-count policy for the product-formula propagator.

    The step count must resolve the fastest beat note and the drive itself:
    N_t >= ceil(safety * max(2 * pi * max|N_g + m K|, |omega_T| max|g| ||B_0||)) over the
    taps N_g of ``hilbert.drive_taps`` and |m| <= m_max, so that no step turns a phase or
    the state by more than 1/safety.  A bound above MAX_STEPS (a drive so strong that
    no product can resolve it) is an error.  The default N_t is that bound rounded up
    to a multiple of the drive period d (``drive_period``: L for rect, 1 for sin^2), and
    at least d, so the grid is never coarser than the bound and holds d whole periods.
    Each step samples the Hamiltonian at its centre (the exponential midpoint rule,
    second-order accurate).  A config is a valid policy when built, else a ValueError:
    ``safety`` is positive and finite, and ``steps_override``, taken as given, is None
    or an integer >= 1 (numpy's too).

    The policy fixes which steps are taken, not how each is exponentiated:
    every step is exact up to rounding at any norm (one ``eigh`` per symmetry
    block in the rotating frame, see ``_frame``).  Only the first
    period's steps are computed when d divides N_t (else the gate is one
    period), and only the first half of them with a real-coefficient pulse.
    """

    safety: float = 10.0
    steps_override: int | None = None

    def __post_init__(self):
        if not 0 < self.safety < math.inf:  # NaN fails too
            raise ValueError(f"safety {self.safety} is not a positive finite number")
        steps = self.steps_override
        if steps is not None and not (isinstance(steps, (int, np.integer)) and steps >= 1):
            raise ValueError(f"steps_override {steps!r} is not an integer >= 1")

    def num_steps(self, params: GateParams, pulse: PulseShape) -> int:
        if self.steps_override is not None:
            return self.steps_override
        taps, coeffs = hilbert.drive_taps(params, pulse)
        # max|N_g + m K| in ints, and the rate |omega_T| max|g| ||B_0|| at which the drive turns the
        # state by |g| <= sum_g |c_g| and ||B_0|| <= sum_m ||A_m||, as ||J_m|| = 1, in Python floats:
        # an overflow gives inf, and so does a beat note beyond float range.  A_m has one nonzero
        # per row and column, so its norm is its largest entry
        beat = max(abs(int(N)) for N in taps) + params.m_max * params.K
        beat = float(beat) if beat <= sys.float_info.max else math.inf
        A = hilbert.sideband_operators(params.eta, params.n_dim, params.m_max)
        drive = abs(params.omega_T) * sum(map(abs, coeffs.tolist())) * sum(np.abs(A).max(axis=(1, 2)).tolist())
        bound = self.safety * max(2 * math.pi * beat, drive)
        if not bound <= MAX_STEPS:
            raise ValueError(f"resolving the drive takes {bound:.3g} steps, more than {MAX_STEPS} "
                             f"(omega_T {params.omega_T}, pulse {pulse.name})")
        # at least one period: the bound is 0 only with no drive and no beat note, where U = I
        period = drive_period(taps)
        return period * max(1, -(-math.ceil(bound) // period))


def drive_period(taps: np.ndarray) -> int:
    """d = gcd of the beat notes of ``hilbert.drive_taps``: the drive repeats d times
    inside the gate (d = L for rect; 1 for sin^2, whose taps L and L + 1 are coprime,
    and for a constant drive, whose taps are all 0)."""
    return int(np.gcd.reduce(np.abs(taps))) or 1


# pairs of steps per slice of the pair stack: a power of two, so chaining the slice
# products takes the same pairwise products as chaining the whole stack at once
_SLICE = 256


def _newton_schulz(X: np.ndarray) -> np.ndarray:
    """One step X (3 - X^H X) / 2 towards the nearest unitary."""
    return X @ (3 * np.eye(len(X)) - X.conj().T @ X) / 2


def _chain(stack: np.ndarray, spare: np.ndarray | None = None) -> np.ndarray:
    """stack[-1] @ ... @ stack[0] by pairwise batched products; an unpaired latest factor waits.
    Each level is written over the buffer of the level before last, starting with ``spare``
    (at least half as long as ``stack``), so the levels allocate nothing; ``stack`` is
    overwritten."""
    src, dst = stack, spare if spare is not None else np.empty_like(stack[:(len(stack) + 1) // 2])
    while len(src) > 1:
        half, odd = divmod(len(src), 2)
        out = dst[:half + odd]
        np.matmul(src[1::2], src[:-1:2], out=out[:half])
        out[half:] = src[2 * half:]
        src, dst = out, src
    return src[0].copy()


@lru_cache(maxsize=8)
def _frame(builder, eta: float, K: int, n_dim: int, m_max: int, n_steps: int) -> tuple:
    """What ``_steps`` takes besides the drive: (levels, lam, V, W, h) per block of
    ``hilbert.block_basis``, B = V diag(lam) V^H from ``builder``.  None of it depends on
    omega_T or the pulse; the last 8 are kept, read-only.  A non-Hermitian or non-finite
    generator raises here (``hilbert.hermitian_eigh``), on every call (an exception is not cached)."""
    frame = []
    for B, (levels, _) in zip(builder(eta, n_dim, m_max), hilbert.block_basis(n_dim)):
        lam, V = hilbert.hermitian_eigh(B, f"Hamiltonian generator at eta {eta}")
        # W enters every step, so its rounding compounds: build it in extended precision where
        # the platform has it, after one Newton-Schulz step towards a unitary V
        V = _newton_schulz(V.astype(np.clongdouble))
        phases = np.exp(-2j * np.pi * (K * levels % n_steps).astype(np.longdouble) / n_steps)
        W, V = (V.conj().T @ (phases[:, None] * V)).astype(complex), V.astype(complex)
        h = np.exp(-1j * np.pi * (K * levels % (2 * n_steps)) / n_steps)
        frame.append(hilbert.read_only(levels, lam, V, W, h))
    return tuple(frame)


def _slice(lam: np.ndarray, W: np.ndarray, amps: np.ndarray, skip: int) -> np.ndarray:
    """[E_{k-1} W ... E_1 W] E_0 W over the k steps ``amps`` of a slice, without its rightmost W if ``skip``."""
    # E_{2j+1} W E_{2j} by entries, then one GEMM puts W right of all factors but the first.
    # One buffer holds the pairs, their products with W and every level of the chain: freed
    # one by one, these temporaries leave a heap top that glibc trims after every call and
    # the next call faults back in (~1 MB a slice, a third of a sin^2 Unum)
    dim = len(lam)
    E = np.exp(-1j * np.outer(amps, lam))
    pairs, odd = divmod(len(E), 2)
    pair, stack = np.empty((2, pairs + odd, dim, dim), dtype=complex)
    np.multiply(E[1::2, :, None], E[:2 * pairs:2, None, :], out=pair[:pairs])
    pair[:pairs] *= W
    pair[pairs:] = np.eye(dim) * E[2 * pairs:, None, :]
    stack[:skip] = pair[:skip]
    np.matmul(pair[skip:].reshape(-1, dim), W, out=stack[skip:].reshape(-1, dim))
    return _chain(stack, pair)


def _steps(frame: tuple, amps: np.ndarray) -> np.ndarray:
    """Ordered product in one block, latest factor leftmost, of the Strang steps h exp(-i amps_n B) h
    of the frame Hamiltonian omega_T g(tau) B + 2 pi K levels over N steps, h = exp(-i pi K levels / N):
    with B = V diag(lam) V^H, h V [E_{k-1} W ... E_1 W] E_0 V^H h over the k = len(amps) steps given
    (the identity for none), E_n = exp(-i amps_n lam) and W = V^H h^2 V: diagonal phases and, per two
    steps, one row of a GEMM with W and one 12 x 12 product.  ``frame`` is (levels, lam, V, W, h)."""
    _, lam, V, W, h = frame
    if not len(amps):
        return np.eye(len(lam))
    # one slice of the pair stack at a time, each freed on return, so memory does not grow with the steps
    step = 2 * _SLICE
    total = _chain(np.stack([_slice(lam, W, amps[s:s + step], int(s == 0)) for s in range(0, len(amps), step)]))
    return (h[:, None] * (V @ total @ V.conj().T)) * h


def _propagate(builder, params: GateParams, pulse: PulseShape, config: TrotterConfig) -> tuple:
    """Product of exp(-i H(tau_n) dtau), latest factor leftmost, for a ``hilbert``
    Hamiltonian ``builder``, in its rotating frame inside the symmetry blocks: the
    block form (U_+, U_-) of ``hilbert.embed``, the identity on the exchange singlets,
    where H vanishes.  Deterministic for identical inputs: the order is fixed, and the
    drive-free part of each block (``_frame``: B's eigenbasis, W and h) is cached by
    (builder, eta, K, n_dim, m_max, N), so a hit returns the arrays a cold call builds.

    The steps are Strang steps s_k of the frame Hamiltonian H~(tau) = omega_T g(tau) B
    + 2 pi K a+a: B per block from ``builder(eta, n_dim, m_max)``, g from ``hilbert.drive_taps``
    and the Fock levels of the block columns from ``hilbert.block_basis``.  Their product over
    the gate is U, since the frame R(tau) = exp(i 2 pi K tau a+a) is the identity at
    tau = 0 and 1 for integer K.  Let p be the drive period d (``drive_period``) when it
    divides N, else 1: then g(tau + 1/p) = g(tau), and the first period [0, 1/p] holds
    n = N/p steps.  Two symmetries of H~ apply in turn:

    Time-reversal fold: with D = (-1)^{a+a}, D conj(H~(tau)) D = H~(1/p - tau) when
    every c_g is real (D conj(B_0) D = B_0 for both builders).  The midpoint grid is its
    own mirror, so step n-1-k is then D s_k^T D, the first n//2 steps give P_1 per block
    and the period P_b = D_b P_1^T D_b s_mid P_1, with s_mid the middle step when n is
    odd.  Other pulses take every step of the period.

    Period power: H~(tau + 1/p) = H~(tau) and tau_{k+n} = tau_k + 1/p, so U = P^p.
    """
    n_steps = config.num_steps(params, pulse)
    frame = _frame(builder, params.eta, params.K, params.n_dim, params.m_max, n_steps)
    taps, coeffs = hilbert.drive_taps(params, pulse)
    period = drive_period(taps)
    periods = period if n_steps % period == 0 else 1
    n, fold = n_steps // periods, not coeffs.imag.any()
    # the steps the products below multiply: the first half and the middle step of a folded
    # period, all n of another.  The drive repeats every period and a real-coefficient drive
    # is mirror-symmetric on it, g(1/p - tau) = g(tau), so the guard sees every drive value
    taus = (np.arange(n - n // 2 if fold else n) + 0.5) / n_steps
    # exp in place, its buffer freed before the slices: the heap top a call leaves then stays
    # below glibc's trim threshold, and the next call faults no memory back in
    phases = 2j * np.pi * np.outer(taus, taps)
    drive = np.exp(phases, out=phases) @ coeffs
    del phases
    amps = params.omega_T * drive.real / n_steps
    if not np.isfinite(amps).all():
        raise ValueError(f"Hamiltonian not finite: omega_T {params.omega_T}, eta {params.eta}")
    blocks = []
    for block in frame:
        if fold:
            flip = (-1.0) ** block[0]  # D_b: the Fock parity of each column
            first = _steps(block, amps[:n // 2])
            P = (flip[:, None] * first.T * flip) @ _steps(block, amps[n // 2:]) @ first
        else:
            P = _steps(block, amps)
        # the power multiplies the unitarity defect of P by d: one Newton-Schulz step first
        blocks.append(np.linalg.matrix_power(_newton_schulz(P), periods) if periods > 1 else P)
    return tuple(blocks)


def propagate_numeric(params: GateParams, pulse: PulseShape,
                      config: TrotterConfig = TrotterConfig()) -> tuple:
    """Product of exp(-i H(tau_n) dtau) using the sideband-truncated Hamiltonian,
    in block form (U_+, U_-)."""
    return _propagate(hilbert.sideband_hamiltonian, params, pulse, config)


def propagate_numeric_exact_displacement(params: GateParams, pulse: PulseShape,
                                         config: TrotterConfig = TrotterConfig()) -> tuple:
    """Same product formula with the displacement exponential built exactly instead of
    the m_max-truncated sideband series: separates sideband truncation from time steps."""
    return _propagate(hilbert.displacement_hamiltonian, params, pulse, config)
