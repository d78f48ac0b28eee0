import os
from pathlib import Path

import numpy as np
import pytest

import disklab
from disklab import quadrature
from disklab import (
    build_model,
    grid_for_weight,
    harmonic_boundary,
    log_green,
    make_disk_grid,
    uniform_weight,
)

# Tests that run `python -m disklab` in a child process need the package
# under test on the child's path too, also when pytest found it through
# its own `pythonpath` setting.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(disklab.__file__).parents[1]), os.environ.get("PYTHONPATH")))
)

# Default verification-suite orders. Session-scoped: grids and models are
# immutable, so sharing them across tests is safe and saves real time.

@pytest.fixture(scope="session")
def disk_grid():
    return make_disk_grid(120, 256)


@pytest.fixture(scope="session")
def coarse_disk_grid():
    return make_disk_grid(40, 64)


@pytest.fixture(scope="session")
def harm_weight():
    return harmonic_boundary(1.0)


@pytest.fixture(scope="session")
def log0_weight():
    return log_green(0.0)


@pytest.fixture(scope="session")
def log04_weight():
    return log_green(0.4)


@pytest.fixture(scope="session")
def log04_grid(log04_weight):
    return grid_for_weight(log04_weight, 120, 256)


@pytest.fixture(scope="session")
def uniform():
    return uniform_weight()


@pytest.fixture(scope="session")
def harm_model(harm_weight, disk_grid):
    return build_model(harm_weight, disk_grid, order=64)


@pytest.fixture(scope="session")
def log0_model(log0_weight, disk_grid):
    return build_model(log0_weight.scaled(2.0), disk_grid, order=64)


@pytest.fixture
def small_gauss_rules_only(monkeypatch):
    """Fail any Gauss-Legendre rule above order 10^4: without the early node
    bound, the radial orders of the budget tests take minutes or fail."""
    real = quadrature._legendre_rule

    def bounded(n):
        assert n <= 10**4, f"Gauss-Legendre rule of order {n} built"
        return real(n)

    monkeypatch.setattr(quadrature, "_legendre_rule", bounded)


def random_disk_points(rng: np.random.Generator, count: int, radius: float):
    r = radius * np.sqrt(rng.uniform(0.05, 1.0, count))
    t = rng.uniform(0.0, 2.0 * np.pi, count)
    return r * np.exp(1j * t)
