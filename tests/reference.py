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
from disklab.quadrature import NODE_BLOCK, _disk_blocks, _disk_rings, _node_moduli


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


def kept_values(w, grid) -> np.ndarray:
    """w at every node of a disk grid in one array, evaluated one ``NODE_BLOCK``
    block at a time in node order, as the grid passes evaluate it."""
    return np.concatenate([w.eval_many(z) for _, z, _ in _disk_blocks(grid)])


def kept_mass(vals: np.ndarray, grid) -> float:
    """The mass from kept values: each block's weighted sum, added in node order."""
    total = 0.0
    for start, _, wts in _disk_blocks(grid, nodes=False):
        total += np.sum(wts * vals[start : start + wts.size])
    return float(total)


def kept_circle_sums(x: np.ndarray, order: int) -> np.ndarray:
    """A ring's sums S(d) = sum_t x_t u_t^d from its kept values x, by the column
    DFTs of ``quadrature._circle_sums`` read as slices of the (L, m/L) array."""
    m = x.size
    split = next(n for n in range(min(m, NODE_BLOCK), 0, -1) if m % n == 0)
    d = np.arange(order + 1)
    idx = d % split
    half, conj = np.minimum(idx, split - idx), idx <= split // 2
    columns = x.reshape(split, m // split)
    step = max(1, NODE_BLOCK // split)
    S = np.zeros(order + 1, dtype=complex)
    for lo in range(0, columns.shape[1], step):
        F = np.fft.rfft(columns[:, lo : lo + step], axis=0)
        for b in range(lo, lo + F.shape[1]):
            Y = F[half, b - lo]
            np.conjugate(Y, out=Y, where=conj)
            Y *= np.exp(1j * np.pi * (d * (2 * b + 1) % (2 * m)) / m)
            S += Y
    return S


def kept_moments(vals: np.ndarray, grid, order: int) -> np.ndarray:
    """``moments.disk_moments`` from kept values, ring by ring in ring order."""
    n = np.arange(order + 1)
    g_re, g_im = np.zeros((order + 1, order + 1)), np.zeros((order + 1, order + 1))
    start = 0
    for modulus, weight, m in zip(_node_moduli(grid), grid.ring_weights, grid.ring_counts):
        S = kept_circle_sums(vals[start : start + m], order)
        rp = modulus ** n
        S *= rp
        ring = weight * rp * rp
        g_re += np.multiply.outer(ring, S.real)
        g_im += np.multiply.outer(ring, S.imag)
        start += m
    low, gap = np.minimum.outer(n, n), np.abs(np.subtract.outer(n, n))
    W = np.empty((order + 1, order + 1), dtype=complex)
    W.real, W.imag = g_re[low, gap], g_im[low, gap]
    np.negative(W.imag, out=W.imag, where=np.less.outer(n, n))
    return W


def expanded_berezin(W: np.ndarray, points, orders) -> np.ndarray:
    """Berezin transforms from a moment matrix W, point by point:
    (1-|v|^2)^2 sum_{j,k <= N} (j+1)(k+1) W[j][k] conj(v)^j v^k on the corner
    of W at the point's order N, formed as p^H W p with p_k = (k+1) v^k, the
    rows summed first."""
    out = []
    for v, n in zip(points, orders):
        v = complex(v)
        p = np.arange(1, n + 2) * v ** np.arange(n + 1)
        rows = np.sum(W[: n + 1, : n + 1] * p, axis=1)
        out.append((1.0 - abs(v) ** 2) ** 2 * np.sum(np.conj(p) * rows).real)
    return np.array(out)


def kept_berezin(vals: np.ndarray, grid, points) -> np.ndarray:
    """Berezin transforms from kept values by the direct kernel sum: each
    point's block sums of omega w / |1 - z conj(v)|^4, added in node order."""
    v = np.array([complex(p) for p in points])
    sums = []
    for a, b in zip(v.real.tolist(), v.imag.tolist()):
        total = []
        for start, z, wts in _disk_blocks(grid):
            xs, ys = z.real, z.imag
            re = 1.0 - (xs * a + ys * b)
            im = ys * a - xs * b
            total.append(np.sum((wts * vals[start : start + z.size]) / (re * re + im * im) ** 2))
        sums.append(total)
    return (1.0 - np.abs(v) ** 2) ** 2 * np.sum(np.array(sums), axis=1)
