"""Numerical ground-truth propagator via a product of short-time exponentials."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .params import GateParams
from .pulses import PulseShape, rectangular

_CHUNK = 1024  # steps per batched Hamiltonian build and step-exponential stack
_THETA_MAX = 0.25  # largest step norm the Taylor polynomial takes without squaring


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
    at the default safety a step has norm ||H dtau|| ~ 0.02 and a degree-7
    Taylor polynomial reaches unit roundoff; a step above 1/4
    (``steps_override`` or a low ``safety``) is scaled and squared.  On the
    midpoint grid with a real-coefficient pulse only half of the steps are
    computed (see ``_propagate``).
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


def _step_exponentials(a: np.ndarray) -> np.ndarray:
    """exp(a) for a stack of small matrices by a Horner Taylor polynomial.

    With theta the largest infinity norm in the stack, the degree d is the
    smallest with theta^(d+1)/(d+1)! <= 2^-53 (the truncation error in that
    norm); stacks with theta > 1/4 are scaled by 2^-s first and squared s
    times (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31 (2009) 970).
    """
    theta = float(np.abs(a).sum(axis=-1).max())
    if not theta < math.inf:  # NaN would pass every comparison below
        raise ValueError(f"step exponent not finite: norm {theta}")
    squarings = math.ceil(math.log2(theta / _THETA_MAX)) if theta > _THETA_MAX else 0
    a = a / 2 ** squarings
    theta /= 2 ** squarings
    degree, remainder = 1, theta ** 2 / 2
    while remainder > 2.0 ** -53:
        degree += 1
        remainder *= theta / (degree + 1)
    eye = np.eye(a.shape[-1])
    u = eye + a / degree
    for k in range(degree - 1, 0, -1):
        u = eye + (a @ u) / k
    for _ in range(squarings):
        u = u @ u
    return u


def _ordered_product(build, taus: np.ndarray, n_steps: int, blocks: tuple) -> list[np.ndarray]:
    """Per block, the product of exp(-i H_b(tau) / n_steps) over ``taus``, the
    latest factor leftmost; the identity when ``taus`` is empty."""
    totals = [np.eye(Q.shape[1], dtype=complex) for Q in blocks]
    for lo in range(0, len(taus), _CHUNK):
        h_blocks = build(taus[lo:lo + _CHUNK])
        if lo == 0:  # the polynomial would turn a non-Hermitian H into a non-unitary step
            scale = max(float(np.abs(h).max()) for h in h_blocks)
            defect = max(hilbert.hermiticity_defect(h) for h in h_blocks)
            if defect > 1e-12 * scale:
                raise ValueError(f"Hamiltonian not Hermitian: defect {defect:.3e}, max|H| {scale:.3e}")
        for b, h in enumerate(h_blocks):
            u_steps = _step_exponentials(h * (-1j / n_steps))
            totals[b] = functools.reduce(lambda acc, u: u @ acc, u_steps, totals[b])
    return totals


def _propagate(builder, params: GateParams, pulse: PulseShape | None,
               config: TrotterConfig | None) -> np.ndarray:
    """Product of exp(-i H(tau_n) dtau), latest factor leftmost, for a batched
    Hamiltonian ``builder`` of ``hilbert``, run inside the symmetry blocks:
    U = 1 + sum_b Q_b (U_b - 1) Q_b^H is the identity on the exchange singlets,
    where H vanishes.  Deterministic for identical inputs (fixed order).

    Time-reversal fold: with D = (-1)^{a+a}, D conj(H(tau)) D = H(1 - tau)
    when every pulse coefficient is real (all beat notes are integers, and
    conj(J_m (x) A_m) = (-1)^m J_m (x) A_m); the exact-displacement builder
    has the same symmetry.  On the mirrored midpoint grid step N-1-n is then
    D e_n^T D, so only the first N//2 steps are computed, giving U_1 per
    block, and U_b = D_b U_1^T D_b e_mid U_1, where e_mid is the self-mirrored
    step at tau = 1/2 when N is odd.  The left-endpoint rule and complex
    coefficients take every step.
    """
    pulse = pulse if pulse is not None else rectangular()
    config = config if config is not None else TrotterConfig()
    n_steps = config.num_steps(params, pulse)
    taus = (np.arange(n_steps) + (0.5 if config.midpoint else 0.0)) / n_steps
    blocks = hilbert.symmetry_blocks(params.n_dim)
    build = builder(params, pulse, blocks)
    if config.midpoint and all(c.imag == 0 for c in pulse.coefficients.values()):
        half = n_steps // 2
        firsts = _ordered_product(build, taus[:half], n_steps, blocks)
        mids = _ordered_product(build, taus[half:n_steps - half], n_steps, blocks)
        # D_b: the Fock parity (-1)^n of each column of the real isometry Q_b
        fock_parity = np.tile((-1.0) ** np.arange(params.n_dim), 4)
        flips = [fock_parity @ np.abs(Q) ** 2 for Q in blocks]
        totals = [(d[:, None] * u.T * d) @ mid @ u for d, u, mid in zip(flips, firsts, mids)]
    else:
        totals = _ordered_product(build, taus, n_steps, blocks)
    return np.eye(params.dim) + sum(Q @ (total - np.eye(Q.shape[1])) @ Q.conj().T
                                    for Q, total in zip(blocks, totals))


def propagate_numeric(params: GateParams, pulse: PulseShape | None = None,
                      config: TrotterConfig | None = None) -> np.ndarray:
    """Product of exp(-i H(tau_n) dtau) using the sideband-truncated Hamiltonian."""
    return _propagate(hilbert.sideband_hamiltonian, params, pulse, config)


def propagate_numeric_exact_displacement(params: GateParams,
                                         pulse: PulseShape | None = None,
                                         config: TrotterConfig | None = None) -> np.ndarray:
    """Same product formula with the displacement exponential built exactly
    (matrix exponential) instead of the m_max-truncated sideband series.

    Quantifies how much of any discrepancy is sideband truncation rather
    than time discretization.
    """
    return _propagate(hilbert.displacement_hamiltonian, params, pulse, config)
