"""Numerical ground-truth propagator via a product of short-time exponentials."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import hilbert
from .params import GateParams
from .pulses import PulseShape, rectangular


# the most steps a product is taken over: its grid arrays take ~40 bytes a step
MAX_STEPS = 2 ** 24


@dataclass(frozen=True)
class TrotterConfig:
    """Step-count policy for the product-formula propagator.

    The step count must resolve the fastest beat note and the drive itself:
    N_t >= ceil(safety * max(2 * pi * max|N|, omega_T max|g| ||B_0||)) with
    max|N| = max_harmonic + m_max * K + L, so that no step turns a phase or the
    state by more than 1/safety.  A bound above MAX_STEPS (a drive so strong that
    no product can resolve it) is an error.  The default N_t is that bound
    rounded up to a multiple of the drive period d (``drive_period``: L for rect,
    1 for sin^2), so the grid is never coarser than the bound and holds d whole
    periods.
    Each step samples the Hamiltonian at its centre (the exponential midpoint
    rule, second-order accurate).  ``steps_override`` is taken as given: below
    the bound it is rejected unless ``allow_understep`` is set; a step count
    below 1 (``safety <= 0``) is always rejected.

    The policy fixes which steps are taken, not how each is exponentiated:
    every step is exact up to rounding at any norm (one ``eigh`` per symmetry
    block in the rotating frame, see ``_frame``).  Only the first
    period's steps are computed when d divides N_t (else the gate is one
    period), and only the first half of them with a real-coefficient pulse.
    """

    safety: float = 10.0
    steps_override: int | None = None
    allow_understep: bool = False

    def max_beat_note(self, params: GateParams, pulse: PulseShape) -> int:
        return pulse.max_harmonic + params.m_max * params.K + params.L

    def max_drive_angle(self, params: GateParams, pulse: PulseShape) -> float:
        """A bound on omega_T max|g| ||B_0||, the rate at which the drive turns the state:
        |g| <= 2 sum_M |c_M| and ||B_0|| <= sum_m ||A_m|| (``_sideband_norm``).  A Python
        float, so an overflow gives inf."""
        return (params.omega_T * 2 * sum(map(abs, pulse.coefficients.values()))
                * _sideband_norm(params.eta, params.n_dim, params.m_max))

    def num_steps(self, params: GateParams, pulse: PulseShape) -> int:
        bound = self.safety * max(2 * math.pi * self.max_beat_note(params, pulse),
                                  self.max_drive_angle(params, pulse))
        if self.steps_override is None and not bound <= MAX_STEPS:
            raise ValueError(f"resolving the drive takes {bound:.3g} steps, more than {MAX_STEPS} "
                             f"(omega_T {params.omega_T}, pulse {pulse.name})")
        period = drive_period(hilbert.drive_taps(params, pulse)[0])
        steps = period * -(-math.ceil(bound) // period) if self.steps_override is None else self.steps_override
        if steps < 1:  # no step at all would return the identity as the propagator
            raise ValueError(f"step count {steps} < 1 (safety={self.safety}, "
                             f"steps_override={self.steps_override})")
        if steps < bound and not self.allow_understep:
            raise ValueError(
                f"steps_override={self.steps_override} below the resolution "
                f"bound {bound:.6g}; set allow_understep to force"
            )
        return steps


@lru_cache(maxsize=64)
def _sideband_norm(eta: float, n_dim: int, m_max: int) -> float:
    """sum_m ||A_m|| over |m| <= m_max, which bounds ||sum_m J_m (x) A_m|| as ||J_m|| = 1:
    A_m has one nonzero per row and column, so its norm is its largest entry."""
    return sum(float(np.abs(hilbert.sideband_operator(m, eta, n_dim)).max())
               for m in range(-m_max, m_max + 1))


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
    """What ``_block_propagator`` takes besides the drive: (levels, lam, V, W, h) per block of
    ``hilbert.block_basis``, B = V diag(lam) V^H from ``builder``.  None of it depends on
    omega_T or the pulse; the last 8 are kept, read-only.  A non-Hermitian or non-finite
    generator raises here, on every call (an exception is not cached)."""
    # the builders read eta, n_dim and m_max only
    generators = builder(GateParams(eta=eta, K=K, L=0, n_dim=n_dim, m_max=m_max))
    defect = max(hilbert.hermiticity_defect(B) / np.abs(B).max() for B in generators)
    if defect > 1e-12:
        raise ValueError(f"Hamiltonian not Hermitian: relative defect {defect:.3e} of the generator")
    if not all(np.isfinite(B).all() for B in generators):
        raise ValueError(f"Hamiltonian not finite: eta {eta}")
    frame = []
    for B, (levels, _) in zip(generators, hilbert.block_basis(n_dim)):
        lam, V = np.linalg.eigh(B)
        # W enters every step, so its rounding compounds: build it in extended precision where
        # the platform has it, after one Newton-Schulz step towards a unitary V
        V = _newton_schulz(V.astype(np.clongdouble))
        phases = np.exp(-2j * np.pi * (K * levels % n_steps).astype(np.longdouble) / n_steps)
        W, V = (V.conj().T @ (phases[:, None] * V)).astype(complex), V.astype(complex)
        h = np.exp(-1j * np.pi * (K * levels % (2 * n_steps)) / n_steps)
        for a in (levels, lam, V, W, h):
            a.flags.writeable = False
        frame.append((levels, lam, V, W, h))
    return tuple(frame)


def _block_propagator(frame: tuple, amps: np.ndarray, periods: int, fold: bool) -> np.ndarray:
    """Ordered product in one block, latest factor leftmost, of the Strang steps
    h exp(-i amps_n B) h of the rotating-frame Hamiltonian omega_T g(tau) B + 2 pi K levels,
    with the half D-step h = exp(-i pi K levels / N) and N = periods * len(amps).
    With B = V diag(lam) V^H, steps lo..hi-1 give h V [E_{hi-1} W ... E_{lo+1} W] E_lo V^H h,
    with E_n = exp(-i amps_n lam) and the constant W = V^H h^2 V: diagonal phases and, per
    two steps, one row of a GEMM with W and one 12 x 12 product.  ``frame`` is the block's
    (levels, lam, V, W, h) from ``_frame``.  amps holds the first of d = periods periods of
    n = N/d steps; ``fold`` mirrors the first half of that period, and d > 1 then takes its
    d-th power (see ``_propagate``).
    """
    levels, lam, V, W, h = frame
    dim = len(lam)

    def chained_slice(lo: int, hi: int, skip: int) -> np.ndarray:
        # E_{2j+1} W E_{2j} by entries, then one GEMM puts W right of all factors but the first.
        # One buffer holds the pairs, their products with W and every level of the chain: freed
        # one by one, these temporaries leave a heap top that glibc trims after every call and
        # the next call faults back in (~1 MB a slice, a third of a sin^2 Unum)
        E = np.exp(-1j * np.outer(amps[lo:hi], lam))
        pairs, odd = divmod(len(E), 2)
        pair, stack = np.empty((2, pairs + odd, dim, dim), dtype=complex)
        np.multiply(E[1::2, :, None], E[:2 * pairs:2, None, :], out=pair[:pairs])
        pair[:pairs] *= W
        pair[pairs:] = np.eye(dim) * E[2 * pairs:, None, :]
        stack[:skip] = pair[:skip]
        np.matmul(pair[skip:].reshape(-1, dim), W, out=stack[skip:].reshape(-1, dim))
        return _chain(stack, pair)

    def run(lo: int, hi: int) -> np.ndarray:
        if hi == lo:
            return np.eye(dim)
        # one slice of the pair stack at a time, so memory does not grow with the steps
        step = 2 * _SLICE
        total = _chain(np.stack([chained_slice(s, min(s + step, hi), int(s == lo))
                                 for s in range(lo, hi, step)]))
        return (h[:, None] * (V @ total @ V.conj().T)) * h

    if fold:
        half, flip = len(amps) // 2, (-1.0) ** levels  # D_b: the Fock parity of each column
        first = run(0, half)
        P = (flip[:, None] * first.T * flip) @ run(half, len(amps) - half) @ first
    else:
        P = run(0, len(amps))
    # the power multiplies the unitarity defect of P by d: one Newton-Schulz step first
    return np.linalg.matrix_power(_newton_schulz(P), periods) if periods > 1 else P


def _propagate(builder, params: GateParams, pulse: PulseShape | None,
               config: TrotterConfig | None) -> tuple:
    """Product of exp(-i H(tau_n) dtau), latest factor leftmost, for a ``hilbert``
    Hamiltonian ``builder``, in its rotating frame inside the symmetry blocks: the
    block form (U_+, U_-) of ``hilbert.embed``, the identity on the exchange singlets,
    where H vanishes.  Deterministic for identical inputs: the order is fixed, and the
    drive-free part of each block (``_frame``: B's eigenbasis, W and h) is cached by
    (builder, eta, K, n_dim, m_max, N), so a hit returns the arrays a cold call builds.

    The steps are Strang steps s_k of the frame Hamiltonian H~(tau) = omega_T g(tau) B
    + 2 pi K a+a: B per block from ``builder(params)``, g from ``hilbert.drive_taps`` and
    the Fock levels of the block columns from ``hilbert.block_basis``.  Their product over
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
    pulse = pulse if pulse is not None else rectangular()
    config = config if config is not None else TrotterConfig()
    n_steps = config.num_steps(params, pulse)
    frame = _frame(builder, params.eta, params.K, params.n_dim, params.m_max, n_steps)
    taps, coeffs = hilbert.drive_taps(params, pulse)
    period = drive_period(taps)
    periods = period if n_steps % period == 0 else 1
    # the drive is periodic, so the guards below see all of it on the first period's steps
    taus = (np.arange(n_steps // periods) + 0.5) / n_steps
    # exp in place, its buffer freed before the slices: the heap top a call leaves then stays
    # below glibc's trim threshold, and the next call faults no memory back in
    phases = 2j * np.pi * np.outer(taus, taps)
    drive = np.exp(phases, out=phases) @ coeffs
    del phases
    imaginary = np.abs(drive.imag).max() / np.abs(drive).max()
    if imaginary > 1e-12:
        raise ValueError(f"Hamiltonian not Hermitian: relative defect {imaginary:.3e} of the drive")
    amps = params.omega_T * drive.real / n_steps
    if not np.isfinite(amps).all():
        raise ValueError(f"Hamiltonian not finite: omega_T {params.omega_T}, eta {params.eta}")
    fold = not coeffs.imag.any()
    return tuple(_block_propagator(block, amps, periods, fold) for block in frame)


def propagate_numeric(params: GateParams, pulse: PulseShape | None = None,
                      config: TrotterConfig | None = None) -> tuple:
    """Product of exp(-i H(tau_n) dtau) using the sideband-truncated Hamiltonian,
    in block form (U_+, U_-)."""
    return _propagate(hilbert.sideband_hamiltonian, params, pulse, config)


def propagate_numeric_exact_displacement(params: GateParams,
                                         pulse: PulseShape | None = None,
                                         config: TrotterConfig | None = None) -> tuple:
    """Same product formula with the displacement exponential built exactly instead of
    the m_max-truncated sideband series: separates sideband truncation from time steps."""
    return _propagate(hilbert.displacement_hamiltonian, params, pulse, config)
