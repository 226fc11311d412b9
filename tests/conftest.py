import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dqw.functionals import MatrixLambdaPoly, check_positivity, star_squares
from dqw.starspec import (make_constant_theta_star, make_linear_poisson_2d_star,
                          make_zero_star)
from dqw.taubuild import ClosedFormTau, build_tau

SCENARIO_DIR = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def positivity_verdict(functional, spec, tests):
    """The positivity verdict on `tests`, labelled test_0, test_1, ...; a
    lam-series test is taken as a 1 x 1 matrix."""
    tests = [f if isinstance(f, MatrixLambdaPoly) else MatrixLambdaPoly([[f]])
             for f in tests]
    return check_positivity(functional, star_squares(spec, tests),
                            [f"test_{i}" for i in range(len(tests))])


@pytest.fixture(scope="session")
def moyal_r2():
    return make_constant_theta_star([[0, 1], [-1, 0]], K=4)


@pytest.fixture(scope="session")
def moyal_r2_k6():
    return make_constant_theta_star([[0, 1], [-1, 0]], K=6)


@pytest.fixture(scope="session")
def moyal_r3_rank2():
    return make_constant_theta_star([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], K=4)


@pytest.fixture(scope="session")
def zero_star():
    return make_zero_star(2, 3)


@pytest.fixture(scope="session")
def linear_2d():
    return make_linear_poisson_2d_star(K=3)


@pytest.fixture(scope="session")
def tau_moyal_r2(moyal_r2):
    tau, report = build_tau(moyal_r2, 4)
    return tau


@pytest.fixture(scope="session")
def tau_moyal_r3(moyal_r3_rank2):
    tau, report = build_tau(moyal_r3_rank2, 4)
    return tau


@pytest.fixture(scope="session")
def tau_linear(linear_2d):
    tau, report = build_tau(linear_2d, 3)
    return tau


@pytest.fixture(scope="session")
def fixture_tau_r2():
    return ClosedFormTau([[0, 1], [-1, 0]], 8)
