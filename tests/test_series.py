import math
from fractions import Fraction

import numpy as np
import pytest

from disklab import (
    DomainError,
    TaylorSeries,
    exp_series,
    geometric_series,
)

from reference import constant_series, exp_reference


def test_evaluate_identity_function():
    s = TaylorSeries([0, 1])
    assert s.evaluate(0.5) == 0.5


def test_evaluate_constant():
    s = constant_series(1.0, 10)
    for z in (0.3, -0.7j, 0.2 + 0.4j):
        assert s.evaluate(z) == 1.0


def test_evaluate_exp_series_matches_scalar_exponential():
    s = exp_reference(20)
    assert s.evaluate(0.3) == pytest.approx(math.exp(0.3), abs=1e-12)


def test_evaluate_at_zero_is_constant_coefficient():
    s = TaylorSeries([2.5 + 1j, 3, 4, 5])
    assert s.evaluate(0.0) == 2.5 + 1j


def test_derivative_of_identity():
    assert TaylorSeries([0, 1]).derivative().coeffs == (1 + 0j,)


def test_derivative_of_square():
    assert TaylorSeries([0, 0, 1]).derivative().coeffs == (0j, 2 + 0j)


def test_derivative_of_constant_is_zero_series():
    d = TaylorSeries([7.0]).derivative()
    assert d.order == 0 and d.coeffs == (0j,)


def test_derivative_of_exp_series_is_exp_series():
    d = exp_reference(10).derivative()
    expected = exp_reference(9)
    assert np.allclose(d.coeffs, expected.coeffs)


def test_dilate_r_equals_one_is_identity():
    s = TaylorSeries([1, 2, 3])
    assert s.dilate(1.0) == s


def test_dilate_identity_function():
    assert TaylorSeries([0, 1]).dilate(0.5).coeffs == (0j, 0.5 + 0j)


def test_dilate_definitional_property():
    rng = np.random.default_rng(42)
    coeffs = rng.normal(size=8) + 1j * rng.normal(size=8)
    s = TaylorSeries(coeffs)
    for _ in range(10):
        r = rng.uniform(0, 1)
        z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        assert s.dilate(r).evaluate(z) == pytest.approx(s.evaluate(r * z), abs=1e-13)


def test_dilate_rejects_radius_outside_unit_interval():
    s = TaylorSeries([1, 2])
    with pytest.raises(DomainError):
        s.dilate(1.5)
    with pytest.raises(DomainError):
        s.dilate(-0.1)


def test_h2_norm_identity_function():
    assert TaylorSeries([0, 1]).h2_norm_sq() == 1.0


def test_h2_norm_two_coefficients():
    assert TaylorSeries([1, 0.5]).h2_norm_sq() == 1.25


def test_h2_norm_exp_series_against_direct_sum():
    # oracle: sum over k <= 20 of (1/k!)^2 in exact arithmetic
    expected = float(sum(Fraction(1, math.factorial(k)) ** 2 for k in range(21)))
    assert exp_reference(20).h2_norm_sq() == pytest.approx(expected, abs=1e-14)


def test_h2_norm_monotone_under_dilation():
    rng = np.random.default_rng(7)
    s = TaylorSeries(rng.normal(size=12) + 1j * rng.normal(size=12))
    norms = [s.dilate(r).h2_norm_sq() for r in (0.2, 0.5, 0.8, 1.0)]
    assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))


def test_evaluate_is_linear_in_series():
    rng = np.random.default_rng(3)
    a = TaylorSeries(rng.normal(size=6))
    b = TaylorSeries(rng.normal(size=6))
    z = 0.4 + 0.3j
    assert (a + b).evaluate(z) == pytest.approx(
        a.evaluate(z) + b.evaluate(z), abs=1e-14
    )
    assert a.scale(2j).evaluate(z) == pytest.approx(2j * a.evaluate(z), abs=1e-14)


def test_product_truncates_to_min_order():
    a = TaylorSeries([1, 1, 1, 1, 1])
    b = TaylorSeries([1, -1])
    assert (a * b).order == 1
    assert (a * b).coeffs == (1 + 0j, 0j)


def test_product_of_geometric_with_one_minus_z():
    # (1 + z + z^2 + ...) * (1 - z) telescopes to 1
    g = geometric_series(1.0, 10)
    one_minus = TaylorSeries([1, -1] + [0] * 9)
    prod = g * one_minus
    assert prod.coeffs[0] == 1
    assert np.allclose(prod.coeffs[1:], 0)


def test_exp_series_of_log_of_geometric():
    # exp(-sum z^k/k) = 1 - z
    n = 16
    log_series = TaylorSeries([0] + [-1.0 / k for k in range(1, n + 1)])
    e = exp_series(log_series)
    expected = [1.0, -1.0] + [0.0] * (n - 1)
    assert np.allclose(e.coeffs, expected, atol=1e-14)


def test_monomial_and_shift():
    m = TaylorSeries([0, 0, 1, 0, 0, 0])  # z^2 at order 5
    assert m.evaluate(0.5) == 0.25
    shifted = m.shift()
    assert shifted.evaluate(0.5) == pytest.approx(0.125)
    assert shifted.order == 5


def test_evaluate_many_matches_scalar_loop():
    s = TaylorSeries([1, 2j, -0.5, 0.25])
    zs = np.array([0.1, 0.2 + 0.3j, -0.5j, 0.9])
    np.testing.assert_allclose(
        s.evaluate_many(zs), [s.evaluate(z) for z in zs], atol=1e-15
    )


def test_empty_series_rejected():
    with pytest.raises(DomainError):
        TaylorSeries([])
