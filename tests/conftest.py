import pytest

from locband.calibration import PlanParams, derive_plan
from locband.kernels import make_rectangular


@pytest.fixture(scope="session")
def rect():
    return make_rectangular()


@pytest.fixture(scope="session")
def plan_1k(rect):
    # n = 2048 so n~ = 1024, matching the worked constants in the tests
    return derive_plan(PlanParams(n=2048), rect)


@pytest.fixture(scope="session")
def plan_16k(rect):
    return derive_plan(PlanParams(n=2 ** 14), rect)
