"""Weighted Dirichlet energy of truncated series and its dilation behavior.

The energy of f against a weight w is the integral of |f'|^2 w over the
disk in normalized area measure. It has two routes:

* a weight with atoms (``Weight.atoms``, scaled weights included) is a sum of
  local Dirichlet integrals (Richter-Sundberg), D(f) = sum m D_p(f) over
  its atoms (p, m), with D_p(f) = ||(f - f(p))/(z - p)||^2 in H^2: one
  Horner pass per atom, O(N) memory and no moment matrix;
* any other weight takes the Hermitian form sum_{j,k} c_j conj(c_k) W[j][k],
  c the coefficients of f', on its kept moment matrix W
  (``moments.disk_moments``), read from the grid.

For harmonic weights the energy of the dilation f_r(z) = f(rz) is
nondecreasing in r; ``dilation_report`` measures that monotonicity.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, SingularIntegrandError
from .moments import disk_moments
from .quadrature import DiskGrid
from .series import TaylorSeries
from .weights import Weight


def energy(f: TaylorSeries, w: Weight, grid: DiskGrid) -> float:
    """Dirichlet integral of |f'|^2 against the weight (no BLAS).

    A weight with atoms takes the closed form: with c of order N the
    coefficients of f', the coefficients of (f - f(p))/(z - p) are
    T_N = c_N/(N+1), T_i = c_i/(i+1) + p T_{i+1}, and D(f) is
    sum_atoms m sum_i |T_i|^2; the grid is not read. Any other weight
    takes the Hermitian form on ``disk_moments`` at order N, on the grid's
    rule. A non-finite energy raises SingularIntegrandError.
    """
    c = f.derivative().array
    if w.atoms is not None:
        e = float(sum(m * _local_dirichlet(c, p) for p, m in w.atoms))
    else:
        W = disk_moments(w, grid, c.size - 1)
        e = float(np.sum(c[:, None] * np.conj(c)[None, :] * W).real)
    if not np.isfinite(e):
        raise SingularIntegrandError(f"energy of {f!r} is not finite")
    return e


def _local_dirichlet(c: np.ndarray, p: complex) -> float:
    """sum_i |T_i|^2 of the Horner pass T_i = c_i/(i+1) + p T_{i+1} (T_{N+1} = 0)."""
    t, total = 0j, 0.0
    for k, ck in zip(range(c.size, 0, -1), reversed(c.tolist())):
        t = ck / k + p * t
        total += t.real * t.real + t.imag * t.imag
    return total


class DilationReport(NamedTuple):
    entries: tuple[tuple[float, float], ...]  # (r, energy of f_r)
    max_violation: float  # largest drop e(r_i) - e(r_{i+1}), 0 when nondecreasing


def dilation_report(
    f: TaylorSeries,
    w: Weight,
    radii: Sequence[float],
    grid: DiskGrid,
) -> DilationReport:
    """Energies of the dilations f_r for strictly increasing radii.

    The largest drop between consecutive energies is reported, not
    judged: the inequality is only guaranteed for harmonic weights.
    """
    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError("radii must be strictly increasing")
    if any(not 0.0 < r < 1.0 for r in radii):
        raise DomainError("dilation radii must lie in (0, 1)")
    entries = tuple((r, energy(f.dilate(r), w, grid)) for r in radii)
    violation = 0.0
    for (_, e1), (_, e2) in zip(entries, entries[1:]):
        violation = max(violation, e1 - e2)
    return DilationReport(entries=entries, max_violation=violation)
