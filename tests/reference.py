"""Helpers the tests build their cases and expectations from.

None of these is part of the package's API: each is a small construction
on top of it (a Dirac table, an outer-product coefficient matrix, a
best-effort h of a table that has no model, reference series), kept here
beside the tests that use them.
"""

import math

from disklab import MomentTable, PointDistribution, TaylorSeries, point_moments
from disklab.moments import _centered, _entries, _is_exact, _outer, _parts
from disklab.quadrature import _disk_rings


def constant_series(value: complex, order: int) -> TaylorSeries:
    return TaylorSeries([complex(value)] + [0j] * order)


def exp_reference(order: int) -> TaylorSeries:
    """Coefficients 1/k! of the scalar exponential."""
    out = [1.0 + 0j]
    for k in range(1, order + 1):
        out.append(out[-1] / k)
    return TaylorSeries(out)


def centered_moments(d: PointDistribution, order: int) -> list[list]:
    """Pairings <u, (z-a)^m conj(z-a)^n> = (-1)^{m+n} m! n! c_{mn}."""
    return [list(row) for row in _entries(*_centered(d, order), d.denom)]


def disk_grid_size(radial_order: int, angular_order: int, singular_radii=()) -> int:
    """Node count ``make_disk_grid`` would allocate, from the ring table alone:
    a grid over the node budget is counted without being built."""
    _, rings = _disk_rings(radial_order, angular_order, singular_radii)
    return sum(m for _, _, m in rings)


def dirac_table(point, order: int) -> MomentTable:
    """Moments of a unit Dirac mass: M[j][k] = a^j conj(a)^k."""
    return point_moments(PointDistribution(point, [[1]]), order)


def rank_one_coeffs(p, q) -> list[list]:
    """Outer-product coefficient matrix c_{jk} = p_j q_k, exact when all values are."""
    p, q = list(p), list(q)
    exact = _is_exact(p + q)
    (pr, pi, dp), (qr, qi, dq) = _parts(p, exact), _parts(q, exact)
    return [list(row) for row in _entries(*_outer(pr, pi, qr, qi), dp * dq)]


def rank_one_fit(M: MomentTable) -> TaylorSeries:
    """Best-effort h from a possibly non-rank-one table (no rank test).

    Used to demonstrate that no h can satisfy the radial-expansion
    identity for weights whose table has higher rank.
    """
    arr = M.to_complex_array()
    m00 = arr[0][0].real
    scale = math.sqrt(m00) if m00 > 0 else 1.0
    return TaylorSeries(arr[0] / scale)
