"""Numerical ground-truth propagator via a product of short-time exponentials."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .params import GateParams
from .pulses import PulseShape, rectangular


@dataclass(frozen=True)
class TrotterConfig:
    """Step-count policy for the product-formula propagator.

    The step count must resolve the fastest beat note:
    N_t >= ceil(2 * pi * safety * max|N|) with max|N| = max_harmonic
    + m_max * K + L.  ``midpoint`` samples the Hamiltonian at the centre of
    each step (second-order accurate); the left-endpoint rule is available
    for comparison.  ``steps_override`` below the bound is rejected unless
    ``allow_understep`` is set; a step count below 1 (``safety <= 0``) is
    always rejected.

    The policy fixes which steps are taken, not how each is exponentiated:
    every step is exact up to rounding at any norm (one ``eigh`` per symmetry
    block in the rotating frame, see ``_block_propagator``), and with a
    real-coefficient pulse only half of the midpoint steps are computed.
    """

    safety: float = 10.0
    midpoint: bool = True
    steps_override: int | None = None
    allow_understep: bool = False

    def max_beat_note(self, params: GateParams, pulse: PulseShape) -> int:
        return pulse.max_harmonic + params.m_max * params.K + params.L

    def num_steps(self, params: GateParams, pulse: PulseShape) -> int:
        bound = math.ceil(2 * math.pi * self.safety * self.max_beat_note(params, pulse))
        steps = bound if self.steps_override is None else self.steps_override
        if steps < 1:  # no step at all would return the identity as the propagator
            raise ValueError(f"step count {steps} < 1 (safety={self.safety}, "
                             f"steps_override={self.steps_override})")
        if steps < bound and not self.allow_understep:
            raise ValueError(
                f"steps_override={self.steps_override} below the resolution "
                f"bound {bound}; set allow_understep to force"
            )
        return steps


def _chain(stack: np.ndarray) -> np.ndarray:
    """stack[-1] @ ... @ stack[0] by pairwise batched products; an unpaired latest factor waits."""
    while len(stack) > 1:
        stack = np.concatenate([stack[1::2] @ stack[:-1:2], stack[len(stack) - len(stack) % 2:]])
    return stack[0]


def _block_propagator(B: np.ndarray, levels: np.ndarray, K: int, amps: np.ndarray,
                      ticks: np.ndarray, fold: bool) -> np.ndarray:
    """Ordered product of the steps exp(-i amps_n r_n B r_n^H) in one block, latest
    factor leftmost, on the grid tau_n = ticks_n / 2N with r_n = exp(i 2 pi K tau_n levels).
    With B = V diag(lam) V^H, steps lo..hi-1 give r_{hi-1} V [E_{hi-1} W ... E_{lo+1} W]
    E_lo V^H r_lo^H, with E_n = exp(-i amps_n lam) and the constant W = V^H r_{n+1}^H r_n V:
    diagonal phases and, per two steps, one row of a GEMM with W and one 12 x 12 product.
    ``fold`` takes the first half of the steps and mirrors it (see ``_propagate``).
    """
    n_steps, d = len(amps), len(B)
    lam, V = np.linalg.eigh(B)
    # W enters every step, so its rounding compounds: build it in extended precision where the
    # platform has it, after one Newton-Schulz step V (3 - V^H V) / 2 towards a unitary V
    V = V.astype(np.clongdouble)
    V = V @ (3 * np.eye(d) - V.conj().T @ V) / 2
    phases = np.exp(-2j * np.pi * (K * levels % n_steps).astype(np.longdouble) / n_steps)
    W, V = (V.conj().T @ (phases[:, None] * V)).astype(complex), V.astype(complex)

    def run(lo: int, hi: int) -> np.ndarray:
        if hi == lo:
            return np.eye(d)
        E = np.exp(-1j * np.outer(amps[lo:hi], lam))
        # E_{2j+1} W E_{2j} by entries, then one GEMM puts W right of all factors but the first
        pairs = len(E) // 2
        stack = np.concatenate([E[1::2, :, None] * E[:2 * pairs:2, None, :] * W,
                                np.eye(d) * E[2 * pairs:, None, :]])
        stack[1:] = (stack[1:].reshape(-1, d) @ W).reshape(-1, d, d)
        r_hi, r_lo = (np.exp(1j * np.pi * (K * levels * ticks[n] % (2 * n_steps)) / n_steps)
                      for n in (hi - 1, lo))
        return (r_hi[:, None] * (V @ _chain(stack) @ V.conj().T)) * r_lo.conj()

    if not fold:
        return run(0, n_steps)
    half, flip = n_steps // 2, (-1.0) ** levels  # D_b: the Fock parity of each column
    first = run(0, half)
    return (flip[:, None] * first.T * flip) @ run(half, n_steps - half) @ first


def _propagate(builder, params: GateParams, pulse: PulseShape | None,
               config: TrotterConfig | None) -> np.ndarray:
    """Product of exp(-i H(tau_n) dtau), latest factor leftmost, for a ``hilbert``
    Hamiltonian ``builder``, in its rotating frame inside the symmetry blocks:
    U = 1 + sum_b Q_b (U_b - 1) Q_b^H is the identity on the exchange singlets,
    where H vanishes.  Deterministic for identical inputs (fixed order, no cache).

    Time-reversal fold: with D = (-1)^{a+a}, D conj(H(tau)) D = H(1 - tau) when
    every pulse coefficient is real (the beat notes are integers, D conj(B_0) D = B_0
    for both builders).  On the mirrored midpoint grid step N-1-n is then D e_n^T D,
    so the first N//2 steps give U_1 per block and U_b = D_b U_1^T D_b e_mid U_1, with
    e_mid the step at tau = 1/2 when N is odd.  Other grids and pulses take every step.
    """
    pulse = pulse if pulse is not None else rectangular()
    config = config if config is not None else TrotterConfig()
    n_steps = config.num_steps(params, pulse)
    ticks = 2 * np.arange(n_steps) + (1 if config.midpoint else 0)
    blocks = hilbert.symmetry_blocks(params.n_dim)
    frame = builder(params, pulse, blocks)
    drive = frame.drive(ticks / (2 * n_steps))
    defect = max(hilbert.hermiticity_defect(B) / np.abs(B).max() for B in frame.generators)
    imaginary = np.abs(drive.imag).max() / np.abs(drive).max()
    if defect > 1e-12 or imaginary > 1e-12:
        raise ValueError(f"Hamiltonian not Hermitian: relative defect {defect:.3e} of the "
                         f"generator, {imaginary:.3e} of the drive")
    amps = params.omega_T * drive.real / n_steps
    if not (np.isfinite(amps).all() and all(np.isfinite(B).all() for B in frame.generators)):
        raise ValueError(f"Hamiltonian not finite: omega_T {params.omega_T}, eta {params.eta}")
    fold = config.midpoint and all(c.imag == 0 for c in pulse.coefficients.values())
    totals = [_block_propagator(B, n, params.K, amps, ticks, fold)
              for B, n in zip(frame.generators, frame.levels)]
    return np.eye(params.dim) + sum(Q @ (total - np.eye(Q.shape[1])) @ Q.conj().T
                                    for Q, total in zip(blocks, totals))


def propagate_numeric(params: GateParams, pulse: PulseShape | None = None,
                      config: TrotterConfig | None = None) -> np.ndarray:
    """Product of exp(-i H(tau_n) dtau) using the sideband-truncated Hamiltonian."""
    return _propagate(hilbert.sideband_hamiltonian, params, pulse, config)


def propagate_numeric_exact_displacement(params: GateParams,
                                         pulse: PulseShape | None = None,
                                         config: TrotterConfig | None = None) -> np.ndarray:
    """Same product formula with the displacement exponential built exactly instead of
    the m_max-truncated sideband series: separates sideband truncation from time steps."""
    return _propagate(hilbert.displacement_hamiltonian, params, pulse, config)
