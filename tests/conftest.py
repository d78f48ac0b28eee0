import os
from pathlib import Path

import numpy as np
import pytest

import disklab
from disklab import (
    HarmonicBoundary,
    LogGreen,
    Scaled,
    build_model,
    grid_for_weight,
    make_circle_grid,
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
def circle_grid():
    return make_circle_grid(256)


@pytest.fixture(scope="session")
def harm_weight():
    return HarmonicBoundary(1.0)


@pytest.fixture(scope="session")
def log0_weight():
    return LogGreen(0.0)


@pytest.fixture(scope="session")
def log04_weight():
    return LogGreen(0.4)


@pytest.fixture(scope="session")
def log04_grid(log04_weight):
    return grid_for_weight(log04_weight, 120, 256)


@pytest.fixture(scope="session")
def uniform():
    return uniform_weight()


@pytest.fixture(scope="session")
def harm_model(harm_weight, disk_grid):
    return build_model(harm_weight, disk_grid, boundary_order=32768, order=64)


@pytest.fixture(scope="session")
def log0_model(log0_weight, disk_grid):
    return build_model(
        Scaled(2.0, log0_weight), disk_grid, boundary_order=32768, order=64
    )


def random_disk_points(rng: np.random.Generator, count: int, radius: float):
    r = radius * np.sqrt(rng.uniform(0.05, 1.0, count))
    t = rng.uniform(0.0, 2.0 * np.pi, count)
    return r * np.exp(1j * t)
