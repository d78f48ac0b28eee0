"""Helpers the tests build their cases and expectations from.

None of these is part of the package's API: each is a small construction
on top of it (a Dirac table, an outer-product coefficient matrix, a
best-effort h of a table that has no model, reference series), kept here
beside the tests that use them.
"""

import math

import numpy as np

from disklab import MomentTable, PointDistribution, TaylorSeries, atoms_table, point_moments
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


def atoms_moment_matrix(atoms, order: int) -> np.ndarray:
    """Closed-form W[j][k] = integral z^j conj(z)^k w dA of a weight with atoms.

    The quartic-kernel expansion M[j][k] = (j+1)(k+1) W[j][k] - j k W[j-1][k-1]
    inverted along diagonals, W[j][k] = sum_{i <= min(j,k)} M[j-i][k-i] /
    ((j+1)(k+1)), with M = atoms_table(atoms, order): for a harmonic atom z
    W[j][k] = z^(j-k)/(max(j,k)+1), for an interior atom the Richter-Sundberg
    local Dirichlet integral in matrix form.
    """
    V = atoms_table(atoms, order).to_complex_array()
    for j in range(1, order + 1):  # V[j][k] = M[j][k] + V[j-1][k-1]
        V[j, 1:] += V[j - 1, :-1]
    n = np.arange(1, order + 2)
    return V / np.outer(n, n)


def hermitian_form(f: TaylorSeries, W: np.ndarray) -> float:
    """sum_{j,k} c_j conj(c_k) W[j][k], c the coefficients of f', as ``energy`` forms it."""
    c = f.derivative().array
    return float(np.sum(c[:, None] * np.conj(c)[None, :] * W[: c.size, : c.size]).real)
