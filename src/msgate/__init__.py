"""Simulation and calibration toolkit for strongly driven two-qubit
entangling gates on a shared motional mode."""

from .params import GateParams, beat_note, validate
from .pulses import PulseShape, envelope_at, rectangular, sin_squared
from .hilbert import collective_spin, matrix_exp
from .resint import resonance_integral
from .magnus import dyson_term, magnus_terms, propagators_upto
from .trotter import TrotterConfig, propagate_numeric, propagate_numeric_exact_displacement
from .fidelity import ThermalWeights, average_fidelity, bell_fidelity
from .budget import AmplitudeSet, BudgetRow, amplitude_set, omega_2, omega_4, omega_ld, table_rows

__version__ = "0.1.0"
