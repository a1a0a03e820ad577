import pytest

from locband import forked
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


@pytest.fixture
def cpus(monkeypatch):
    """cpus(count) makes count CPUs usable and sends work of any size to
    fork_map, so that count >= 2 runs every pool and count = 1 none."""
    monkeypatch.setattr(forked, "_POOL_MIN_POINTS", 0)

    def use(count):
        monkeypatch.setattr(forked.os, "sched_getaffinity", lambda pid: set(range(count)))

    return use
