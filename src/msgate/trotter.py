"""Numerical ground-truth propagator via a product of short-time exponentials."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .params import GateParams
from .pulses import PulseShape, rectangular

_CHUNK = 1024  # batched-eigh chunk size


@dataclass(frozen=True)
class TrotterConfig:
    """Step-count policy for the product-formula propagator.

    The step count must resolve the fastest beat note:
    N_t >= ceil(2 * pi * safety * max|N|) with max|N| = max_harmonic
    + m_max * K + L.  ``midpoint`` samples the Hamiltonian at the centre of
    each step (second-order accurate); the left-endpoint rule is available
    for comparison.  ``steps_override`` below the bound is rejected unless
    ``allow_understep`` is set.
    """

    safety: float = 10.0
    midpoint: bool = True
    steps_override: int | None = None
    allow_understep: bool = False

    def max_beat_note(self, params: GateParams, pulse: PulseShape) -> int:
        return pulse.max_harmonic + params.m_max * params.K + params.L

    def num_steps(self, params: GateParams, pulse: PulseShape) -> int:
        bound = math.ceil(2 * math.pi * self.safety * self.max_beat_note(params, pulse))
        if self.steps_override is None:
            return bound
        if self.steps_override < bound and not self.allow_understep:
            raise ValueError(
                f"steps_override={self.steps_override} below the resolution "
                f"bound {bound}; set allow_understep to force"
            )
        return self.steps_override


def _propagate(builder, params: GateParams, pulse: PulseShape | None,
               config: TrotterConfig | None) -> np.ndarray:
    """Product of exp(-i H(tau_n) dtau), latest factor leftmost, for a batched
    Hamiltonian ``builder`` of ``hilbert``, run inside the symmetry blocks:
    U = 1 + sum_b Q_b (U_b - 1) Q_b^H is the identity on the exchange singlets,
    where H vanishes.  Deterministic for identical inputs (fixed order).
    """
    pulse = pulse if pulse is not None else rectangular()
    config = config if config is not None else TrotterConfig()
    n_steps = config.num_steps(params, pulse)
    taus = (np.arange(n_steps) + (0.5 if config.midpoint else 0.0)) / n_steps
    blocks = hilbert.symmetry_blocks(params.n_dim)
    build = builder(params, pulse, blocks)
    totals = [np.eye(Q.shape[1], dtype=complex) for Q in blocks]
    for lo in range(0, n_steps, _CHUNK):
        h_blocks = build(taus[lo:lo + _CHUNK])
        if lo == 0:  # eigh reads one triangle, so a non-Hermitian H would pass silently
            scale = max(float(np.abs(h).max()) for h in h_blocks)
            defect = max(hilbert.hermiticity_defect(h) for h in h_blocks)
            if defect > 1e-12 * scale:
                raise ValueError(f"Hamiltonian not Hermitian: defect {defect:.3e}, max|H| {scale:.3e}")
        for b, h in enumerate(h_blocks):
            w, v = np.linalg.eigh(h)
            u_steps = (v * np.exp(-1j * w / n_steps)[:, None, :]) @ v.conj().transpose(0, 2, 1)
            totals[b] = functools.reduce(lambda acc, u: u @ acc, u_steps, totals[b])
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
