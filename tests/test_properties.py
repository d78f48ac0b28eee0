"""Property tests of the weighted Dirichlet energy over random series."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disklab import (
    HarmonicBoundary,
    LogGreen,
    TaylorSeries,
    energy,
    grid_for_weight,
    integrate,
    uniform_weight,
)

_WEIGHTS = [HarmonicBoundary(np.exp(1.3j)), LogGreen(-0.2 + 0.3j), uniform_weight()]
_GRIDS = [grid_for_weight(w, 30, 48) for w in _WEIGHTS]

_reals = st.floats(-4.0, 4.0, allow_subnormal=False)
_coeffs = st.lists(st.complex_numbers(max_magnitude=4.0, allow_subnormal=False),
                   min_size=2, max_size=65)
_scales = st.builds(complex, _reals, _reals).filter(lambda a: abs(a) >= 1e-3)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coeffs=_coeffs, alpha=_scales, which=st.integers(0, len(_WEIGHTS) - 1))
def test_energy_is_the_nonnegative_quadratic_quadrature_value(coeffs, alpha, which):
    w, grid = _WEIGHTS[which], _GRIDS[which]
    f = TaylorSeries(coeffs)
    fp = f.derivative()
    ref = integrate(grid, lambda z: np.abs(fp.evaluate_many(z)) ** 2 * w.eval_many(z))
    e = energy(f, w, grid)
    assert e >= 0.0
    assert e == pytest.approx(ref, rel=1e-13, abs=1e-300)
    assert energy(f.scale(alpha), w, grid) == pytest.approx(
        abs(alpha) ** 2 * e, rel=1e-12, abs=1e-300
    )
