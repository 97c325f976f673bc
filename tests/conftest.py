import numpy as np
import pytest

from msgate import budget, fidelity, magnus, trotter
from msgate.params import GateParams
from msgate.pulses import rectangular, sin_squared


@pytest.fixture(scope="session")
def base_params():
    """Baseline configuration used throughout the figure reproductions."""
    return GateParams(eta=0.18, K=28, L=25, nbar=0.02, n_dim=8, m_max=3, k_max=4)


@pytest.fixture(scope="session")
def rect():
    return rectangular()


@pytest.fixture(scope="session")
def sin2():
    return sin_squared()


@pytest.fixture(scope="session")
def weights(base_params):
    return fidelity.ThermalWeights(base_params.nbar, base_params.n_dim)


@pytest.fixture(scope="session")
def params_omega2(base_params):
    return base_params.replace(omega_T=budget.omega_2(base_params))


@pytest.fixture(scope="session")
def params_omega4(base_params):
    return base_params.replace(omega_T=budget.omega_4(base_params))


@pytest.fixture(scope="session")
def magnus_terms_omega2(params_omega2, rect):
    return magnus.magnus_terms(params_omega2, rect, up_to=5)


@pytest.fixture(scope="session")
def unum_omega2(params_omega2, rect):
    return trotter.propagate_numeric(params_omega2, rect)


@pytest.fixture(scope="session")
def unum_omega4(params_omega4, rect):
    return trotter.propagate_numeric(params_omega4, rect)


@pytest.fixture
def clear_transfer():
    """Call to empty the Dyson cache and the transfer plan, so that the next pass builds both."""
    def clear():
        magnus._transfer_dyson.cache_clear()
        magnus._plan.cache_clear()
    return clear


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
