"""Property tests of the weighted Dirichlet energy and of the series kernels.

The series kernels are array expressions; the scalar loops they replaced
are kept below as the reference.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disklab import (
    HarmonicBoundary,
    LogGreen,
    TaylorSeries,
    energy,
    exp_series,
    geometric_series,
    grid_for_weight,
    integrate,
    kernel_series,
    uniform_weight,
)
from disklab.moments import disk_moments

from reference import atoms_moment_matrix, hermitian_form

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
    # the grid route is the quadrature value; a weight with atoms takes the
    # closed form, whose reference is its diagonal-sum moment matrix
    form = hermitian_form(f, disk_moments(w, grid, f.order - 1))
    assert form == pytest.approx(ref, rel=1e-13, abs=1e-300)
    if w.atoms is not None:
        ref = hermitian_form(f, atoms_moment_matrix(w.atoms, f.order - 1))
    e = energy(f, w, grid)
    assert e >= 0.0
    assert e == pytest.approx(ref, rel=1e-13, abs=1e-300)
    assert energy(f.scale(alpha), w, grid) == pytest.approx(
        abs(alpha) ** 2 * e, rel=1e-12, abs=1e-300
    )


# ---------------------------------------------------------------- series kernels

# Products sum up to 257 terms in a different order than the scalar loop;
# float64 bounds either sum's error by about 257 * 2.2e-16 * sum |a_i||b_j|.
_PRODUCT_RTOL = 1e-13


def _mul_reference(a: TaylorSeries, b: TaylorSeries) -> list[complex]:
    """The scalar Cauchy product loop, truncated to the smaller order."""
    a, b = a.coeffs, b.coeffs
    n = min(len(a), len(b)) - 1
    out = [0j] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x == 0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += x * b[j]
    return out


def _exp_reference(g: TaylorSeries) -> list[complex]:
    """The scalar recurrence E_m = (1/m) sum_k k g_k E_{m-k}."""
    g = g.coeffs
    n = len(g) - 1
    e = [0j] * (n + 1)
    e[0] = complex(np.exp(g[0]))
    for m in range(1, n + 1):
        acc = 0j
        for k in range(1, m + 1):
            acc += k * g[k] * e[m - k]
        e[m] = acc / m
    return e


def _kernel_series_reference(b: TaylorSeries, v: complex, order: int) -> list[complex]:
    bv = np.conj(b.evaluate(v))
    coeffs = [-bv * c for c in b.coeffs]
    coeffs[0] += 1.0
    return _mul_reference(TaylorSeries(coeffs), geometric_series(np.conj(v), order))


def _geometric_reference(ratio: complex, order: int) -> list[complex]:
    """The scalar loop: each coefficient is the previous one times the ratio."""
    out = [1.0 + 0j]
    for _ in range(order):
        out.append(out[-1] * ratio)
    return out


def _random_series(seed: int, order: int, decay: float) -> TaylorSeries:
    rng = np.random.default_rng(seed)
    c = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
    c *= decay ** np.arange(order + 1)
    c[rng.random(order + 1) < 0.2] = 0  # zeros, which the scalar product skips
    return TaylorSeries(c)


def _assert_product_close(got: TaylorSeries, ref: list[complex], a, b) -> None:
    n = got.order
    scale = np.convolve(np.abs(a[: n + 1]), np.abs(b[: n + 1]))[: n + 1]
    assert len(ref) == n + 1
    assert np.all(np.abs(got.array - np.array(ref)) <= _PRODUCT_RTOL * scale)


_orders = st.integers(1, 256)
_seeds = st.integers(0, 2**32 - 1)
_series_settings = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@_series_settings
@given(order_a=_orders, order_b=_orders, seed=_seeds)
def test_product_matches_the_scalar_loop(order_a, order_b, seed):
    a = _random_series(seed, order_a, 1.0)
    b = _random_series(seed + 1, order_b, 1.0)
    got = a * b
    assert got.order == min(order_a, order_b)
    _assert_product_close(got, _mul_reference(a, b), a.array, b.array)


@_series_settings
@given(order=_orders, seed=_seeds, radius=st.floats(0.0, 0.9), angle=st.floats(0.0, 6.3))
def test_kernel_series_matches_the_scalar_loop(order, seed, radius, angle):
    b = _random_series(seed, order, 0.97)
    v = radius * complex(math.cos(angle), math.sin(angle))
    got = kernel_series(SimpleNamespace(b=b, order=order), v)
    numerator = -np.conj(b.evaluate(v)) * b.array
    numerator[0] += 1.0
    geometric = geometric_series(np.conj(v), order).array
    _assert_product_close(got, _kernel_series_reference(b, v, order), numerator, geometric)


@_series_settings
@given(order=st.integers(0, 512), radius=st.floats(0.0, 1.5), angle=st.floats(0.0, 6.3))
def test_geometric_series_equals_the_scalar_loop(order, radius, angle):
    ratio = radius * complex(math.cos(angle), math.sin(angle))
    for r in (ratio, np.conj(ratio)):  # kernel_series passes a numpy scalar
        got = geometric_series(r, order).array
        assert np.array_equal(got, np.array(_geometric_reference(r, order)))


@_series_settings
@given(order=_orders, seed=_seeds, size=st.floats(0.0, 3.0))
def test_exp_series_equals_the_scalar_recurrence(order, seed, size):
    g = _random_series(seed, order, 0.9).scale(size)
    assert exp_series(g).coeffs == tuple(_exp_reference(g))


@_series_settings
@given(order=_orders, seed=_seeds, r=st.floats(0.0, 1.0), c=st.complex_numbers(max_magnitude=4.0))
def test_array_expressions_equal_the_scalar_forms(order, seed, r, c):
    s = _random_series(seed, order, 1.0)
    t = _random_series(seed + 1, order, 1.0)
    cs, ts = s.coeffs, t.coeffs
    assert s.derivative().coeffs == tuple((k + 1) * a for k, a in enumerate(cs[1:]))
    assert s.dilate(r).coeffs == tuple(a * r**k for k, a in enumerate(cs))
    assert s.scale(c).coeffs == tuple(c * a for a in cs)
    assert s.shift().coeffs == (0j,) + cs[:-1]
    assert (s + t).coeffs == tuple(x + y for x, y in zip(cs, ts))
    assert (s - t).coeffs == tuple(x - y for x, y in zip(cs, ts))
    assert s.h2_norm_sq() == math.fsum(abs(a) ** 2 for a in cs)
