import pytest

from wickshe.coefficients import CoefficientQuadrature
from wickshe.kernels import build_line_grid


@pytest.fixture(scope="session")
def line_grid():
    return build_line_grid(12.0, panels=30)


@pytest.fixture(scope="session")
def wide_grid():
    return build_line_grid(14.0, panels=56)


@pytest.fixture(scope="session")
def coeff_quad():
    # shared across tests: grid assembly dominates the per-test cost
    return CoefficientQuadrature()
