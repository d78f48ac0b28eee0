"""Reproducing-kernel model attached to a unit-mass weight.

Pipeline: a unit-mass weight w induces, through the quartic boundary
kernel, the radial-expansion identity

    integral (1 - |v|^2) / |1 - z conj(v)|^4 w(z) dA(z) = |h(v)|^2,

whose double expansion in (v, conj(v)) has coefficients
<u, z^j conj(z)^k> = conj(h_j) h_k for the distribution u carried by the
weight. For catalog weights u is a single atom: a unit Dirac mass at the
boundary pole for the harmonic family, and at the interior pole (after
unit-mass normalization) for the logarithmic family; its moment table is
rank one and yields h directly (h_k = M[0][k], h_0 = 1). For other
weights the table follows exactly from the weight's measure moments W by
expanding the quartic kernel, M[j][k] = (j+1)(k+1) W[j][k] - j k
W[j-1][k-1], and the rank-one test decides whether a model exists at all.

From h the symbol is assembled as b = (z h) * a, where a is the outer
function with a(0) > 0 whose boundary modulus satisfies
|a|^2 = 1 / (1 + |phi|^2) with phi(v) = v h(v). The model's kernel is
(1 - b(z) conj(b(v))) / (1 - z conj(v)), and ``verify_isometry`` checks,
on finite kernel spans, that the Gram norm equals the Hardy norm plus the
weighted Dirichlet energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dirichlet import energy
from .errors import (
    DegenerateNodeSetError,
    DegenerateWeightError,
    DomainError,
    NotDbrWeightError,
    SingularBoundaryDataError,
)
from .moments import MomentTable, atoms_table, measure_moments, weight_values
from .quadrature import CircleGrid, DiskGrid, integrate, make_circle_grid
from .series import TaylorSeries, exp_series, geometric_series
from .weights import Custom, HarmonicBoundary, LogGreen, Scaled, Weight, normalize

_H0_TOL = 1e-6
_RANK_TOL = 1e-6


def berezin_transform(weight: Weight, v: complex, grid: DiskGrid) -> float:
    """Berezin transform of the weight at v.

    Average of the weight against the modulus-squared normalized Bergman
    kernel (1-|v|^2)^2 / |1 - z conj(v)|^4. The weight's node values are
    read from ``moments.weight_values``, so every point on one grid shares
    one evaluation of the weight.
    """
    v = complex(v)
    if abs(v) >= 1.0:
        raise DomainError(f"Berezin transform needs |v| < 1, got {abs(v)}")
    lead = (1.0 - abs(v) ** 2) ** 2
    vals = weight_values(weight, grid)

    def integrand(z: np.ndarray) -> np.ndarray:  # integrate passes grid.nodes
        return lead / np.abs(1.0 - z * np.conj(v)) ** 4 * vals

    return float(integrate(grid, integrand))


def phi_modulus_sq(v: complex, weight: Weight, grid: DiskGrid) -> float:
    """|phi(v)|^2 = (1-|v|^2) integral |v|^2 / |1 - z conj(v)|^4 w dA."""
    v = complex(v)
    if v == 0:
        return 0.0
    return abs(v) ** 2 * berezin_transform(weight, v, grid) / (1.0 - abs(v) ** 2)


def riesz_atoms(weight: Weight) -> Optional[tuple[tuple[complex, float], ...]]:
    """Atoms (point, mass) of the distribution carried by the weight.

    Catalog weights carry a single atom: the boundary pole with the
    weight's mass for the harmonic family, the interior pole with mass
    (1-|zeta|^2)/2 for the logarithmic family. Scaling multiplies masses;
    synthesized weights carry their decomposition's atoms. Returns None
    when no atomic realization is known (e.g. a generic Custom weight).
    """
    if isinstance(weight, HarmonicBoundary):
        return ((weight.zeta, 1.0),)
    if isinstance(weight, LogGreen):
        return ((weight.zeta, (1.0 - abs(weight.zeta) ** 2) / 2.0),)
    if isinstance(weight, Scaled):
        inner = riesz_atoms(weight.inner)
        if inner is None:
            return None
        return tuple((p, weight.c * m) for p, m in inner)
    if isinstance(weight, Custom) and weight.decomposition is not None:
        d = weight.decomposition
        return tuple(d.interior) + tuple(d.boundary)
    return None


def charge_moment_table(weight: Weight, order: int) -> Optional[MomentTable]:
    """Moment table of the weight's atomic distribution, when known."""
    atoms = riesz_atoms(weight)
    if atoms is None:
        return None
    return atoms_table(atoms, order)


def unit_mass_atoms(
    weight: Weight,
) -> Optional[tuple[Weight, tuple[tuple[complex, float], ...]]]:
    """The weight rescaled to unit mass, with its atoms rescaled alike.

    Returns None when no atomic realization is known. The atom masses are
    closed forms, so the rescaled masses sum to 1 to roundoff; a weight
    already of unit mass is returned as it is.
    """
    atoms = riesz_atoms(weight)
    if atoms is None:
        return None
    total = math.fsum(m for _, m in atoms)
    if total <= 0:
        raise DegenerateWeightError("atomic weight has nonpositive mass")
    scale = 1.0 / total
    norm_weight = weight if abs(total - 1.0) < 1e-15 else Scaled(scale, weight)
    return norm_weight, tuple((p, m * scale) for p, m in atoms)


def moment_table_from_berezin(
    weight: Weight, grid: DiskGrid, order: int
) -> MomentTable:
    """Coefficients <u, z^j conj(z)^k> of the Berezin expansion, exactly.

    G(v) = B(w)(v)/(1-|v|^2) = (1-|v|^2) integral w / |1 - z conj(v)|^4 dA
    expands as sum_{j,k} M[j][k] conj(v)^j v^k. Expanding the quartic
    kernel as sum (j+1)(k+1) z^j conj(z)^k conj(v)^j v^k gives each entry
    from the weight's own measure moments W:

        M[j][k] = (j+1)(k+1) W[j][k] - j k W[j-1][k-1].
    """
    W = measure_moments(weight, grid, order).to_complex_array()
    n = np.arange(order + 1)
    M = np.outer(n + 1, n + 1) * W
    M[1:, 1:] -= np.outer(n[1:], n[1:]) * W[:-1, :-1]
    return MomentTable(
        entries=tuple(tuple(complex(v) for v in row) for row in M),
        order=order,
        provenance=f"berezin:r{grid.radial_order}a{grid.angular_order}",
    )


@dataclass(frozen=True)
class TableFactorization:
    h: TaylorSeries
    rank_ratio: float  # second singular value over first
    residual: float  # worst |M[j][k] - conj(h_j) h_k|


def factor_table(M: MomentTable, residual_tol: float) -> TableFactorization:
    """h, sigma2/sigma1 and residual of a table, checked as ``h_from_moments`` states."""
    arr = M.to_complex_array()
    svals = np.linalg.svd(arr, compute_uv=False)
    rank_ratio = float(svals[1] / svals[0]) if svals.size > 1 and svals[0] > 0 else 0.0
    h = arr[0].copy()
    outer = np.conj(h)[:, None] * h[None, :]
    residual = float(np.max(np.abs(arr - outer)))
    h0_deviation = float(abs(arr[0][0] - 1.0))
    if h0_deviation > _H0_TOL:
        raise NotDbrWeightError(
            f"table is not unit-normalized: |M[0][0] - 1| = {h0_deviation:.3e}"
        )
    if rank_ratio > _RANK_TOL:
        raise NotDbrWeightError(
            f"table is not rank one: sigma2/sigma1 = {rank_ratio:.3e}"
        )
    scale = max(1.0, float(np.max(np.abs(arr))))
    if residual > residual_tol * scale:
        raise NotDbrWeightError(
            f"factorization residual {residual:.3e} exceeds tolerance"
        )
    return TableFactorization(h=TaylorSeries(h), rank_ratio=rank_ratio, residual=residual)


def h_from_moments(M: MomentTable, residual_tol: float = 1e-4) -> TaylorSeries:
    """Extract h from a rank-one moment table (h_k = M[0][k], h_0 = 1).

    Raises NotDbrWeightError when the table is not numerically rank one
    or fails the factorization residual; the constant entry must equal 1
    within ``_H0_TOL`` (unit-mass normalization).
    """
    return factor_table(M, residual_tol).h


def rank_one_fit(M: MomentTable) -> TaylorSeries:
    """Best-effort h from a possibly non-rank-one table (no rank test).

    Used to demonstrate that no h can satisfy the radial-expansion
    identity for weights whose table has higher rank.
    """
    arr = M.to_complex_array()
    m00 = arr[0][0].real
    scale = math.sqrt(m00) if m00 > 0 else 1.0
    return TaylorSeries(arr[0] / scale)


@dataclass(frozen=True)
class HIdentityReport:
    passes: bool
    worst_error: float
    worst_point: complex
    tolerance: float


def verify_h_identity(
    weight: Weight,
    h: TaylorSeries,
    test_points: Sequence[complex],
    grid: DiskGrid,
    tol: float,
) -> HIdentityReport:
    """Compare the quartic-kernel integral against |h(v)|^2 pointwise."""
    worst = -1.0
    worst_pt = 0j
    for v in test_points:
        v = complex(v)
        lhs = berezin_transform(weight, v, grid) / (1.0 - abs(v) ** 2)
        rhs = abs(h.evaluate(v)) ** 2
        err = abs(lhs - rhs)
        if err > worst:
            worst = err
            worst_pt = v
    return HIdentityReport(
        passes=worst <= tol, worst_error=worst, worst_point=worst_pt, tolerance=tol
    )


def laplacian_identity_check(z0: complex, w0: complex, step: float) -> float:
    """Relative error of the five-point Laplacian of the boundary kernel.

    The function (1-|z|^2)/|1 - z conj(w0)|^2 has Laplacian in z equal to
    -4 (1-|w0|^2)/|1 - z conj(w0)|^4; the centered stencil of spacing
    ``step`` must stay inside the disk.
    """
    z0 = complex(z0)
    w0 = complex(w0)
    if abs(z0) + step >= 1.0:
        raise DomainError("stencil leaves the unit disk")
    if abs(w0) >= 1.0:
        raise DomainError("kernel point must be inside the disk")

    def F(z: complex) -> float:
        return (1.0 - abs(z) ** 2) / abs(1.0 - z * np.conj(w0)) ** 2

    fd = (
        F(z0 + step) + F(z0 - step) + F(z0 + 1j * step) + F(z0 - 1j * step) - 4.0 * F(z0)
    ) / step**2
    rhs = -4.0 * (1.0 - abs(w0) ** 2) / abs(1.0 - z0 * np.conj(w0)) ** 4
    return abs(fd - rhs) / abs(rhs)


def outer_function(
    samples: np.ndarray, circle_grid: CircleGrid, order: int
) -> TaylorSeries:
    """Outer function with prescribed boundary log-modulus samples.

    Given real samples T of log |a| on the circle grid, the analytic
    completion log a = c_0 + 2 sum_{k>=1} c_k z^k is formed from the
    discrete Fourier coefficients c_k of T and exponentiated as a formal
    series; a(0) = exp(c_0) > 0 by construction.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != circle_grid.nodes.shape:
        raise DomainError("samples must align with the circle grid nodes")
    if not np.isfinite(samples).all():
        i = int(np.argmin(np.isfinite(samples)))
        raise SingularBoundaryDataError(
            f"boundary sample at node {circle_grid.nodes[i]!r} is not finite"
        )
    m = circle_grid.size
    if m < 2 * (order + 1):
        raise DomainError("circle grid too coarse for the requested order")
    ks = np.arange(order + 1)
    fft = np.fft.fft(samples)[: order + 1] / m
    # grid nodes sit at angles 2 pi (j + offset)/m; remove the offset phase
    coeffs = fft * np.exp(-2j * np.pi * ks * circle_grid.offset / m)
    log_a = np.zeros(order + 1, dtype=complex)
    log_a[0] = coeffs[0].real
    log_a[1:] = 2.0 * coeffs[1:]
    return exp_series(TaylorSeries(log_a))


@dataclass(frozen=True)
class DbrModel:
    """Bundle (weight, h, a, b) realizing the kernel model of a weight."""

    weight: Weight
    weight_spec: str
    order: int
    h: TaylorSeries
    a: TaylorSeries
    b: TaylorSeries
    phi_samples: tuple[tuple[complex, complex], ...]
    boundary_modulus: np.ndarray
    boundary_order: int
    diagnostics: dict = field(compare=False)

    def to_json_dict(self) -> dict:
        def parts(s: TaylorSeries) -> dict:
            return {
                "re": [c.real for c in s.coeffs],
                "im": [c.imag for c in s.coeffs],
            }

        return {
            "weight": self.weight_spec,
            "order": self.order,
            "h": parts(self.h),
            "a": parts(self.a),
            "b": parts(self.b),
            "diagnostics": {k: float(v) for k, v in self.diagnostics.items()},
        }


_PHI_SAMPLE_RADII = (0.3, 0.6, 0.8)


def _phi_sample_points() -> list[complex]:
    pts = [0j]
    for r in _PHI_SAMPLE_RADII:
        for t in range(8):
            pts.append(r * np.exp(2j * np.pi * (t + 0.5) / 8))
    return pts


def build_model(
    weight: Weight,
    disk_grid: DiskGrid,
    boundary_order: int = 32768,
    order: int = 64,
) -> DbrModel:
    """Construct the kernel model of a weight, normalizing to unit mass.

    Catalog weights go through their exact atomic table (the atom's mass
    is known in closed form, so normalization is exact and h_0 = 1 to
    roundoff). Weights without an atomic realization are normalized by
    quadrature and must pass the rank-one test on the table computed from
    their measure moments (``moment_table_from_berezin``); by the
    classification only a weight whose charge is a single atom passes,
    and every other weight is rejected with NotDbrWeightError.

    Boundary data for the outer factor is taken in closed form from the
    atom (the truncated h does not converge on the boundary when the pole
    sits there) and sampled on a half-offset circle grid so no node hits
    the pole of the harmonic family.
    """
    unit = unit_mass_atoms(weight)
    bgrid = make_circle_grid(boundary_order, offset=0.5)

    if unit is not None:
        norm_weight, norm_atoms = unit
        fac = factor_table(atoms_table(norm_atoms, order), residual_tol=1e-9)
        h = fac.h
        # |phi| on the boundary, in closed form from the atoms:
        # phi(v) = v sum m_i / (1 - conj(p_i) v) continues to |v| = 1.
        e = bgrid.nodes
        phi_boundary = e * sum(
            m / (1.0 - np.conj(p) * e) for p, m in norm_atoms
        )
    else:
        norm_weight = normalize(weight, disk_grid)
        table = moment_table_from_berezin(norm_weight, disk_grid, order=8)
        fac = factor_table(table, residual_tol=1e-4)
        h = fac.h
        if h.order < order:
            h = TaylorSeries(tuple(h.coeffs) + (0j,) * (order - h.order))
        phi_boundary = bgrid.nodes * h.evaluate_many(bgrid.nodes)

    target = -0.5 * np.log1p(np.abs(phi_boundary) ** 2)
    a = outer_function(target, bgrid, order)
    phi_series = h.shift()
    b = phi_series * a

    sample_pts = _phi_sample_points()
    phi_samples = tuple((w, phi_series.evaluate(w)) for w in sample_pts)
    b_samples = [
        abs(b.evaluate(0.9 * np.exp(2j * np.pi * (t + 0.5) / 16))) for t in range(16)
    ] + [abs(b.evaluate(w)) for w in sample_pts]
    diagnostics = {
        "rank_ratio": fac.rank_ratio,
        "factor_residual": fac.residual,
        "h0_deviation": abs(h.coeffs[0] - 1.0),
        "b_max_sample": max(b_samples),
        "a0": a.coeffs[0].real,
    }
    return DbrModel(
        weight=norm_weight,
        weight_spec=weight.label,
        order=order,
        h=h,
        a=a,
        b=b,
        phi_samples=phi_samples,
        boundary_modulus=np.exp(target),
        boundary_order=boundary_order,
        diagnostics=diagnostics,
    )


def kernel(model: DbrModel, z: complex, v: complex) -> complex:
    """Reproducing kernel (1 - b(z) conj(b(v))) / (1 - z conj(v))."""
    z = complex(z)
    v = complex(v)
    bz = model.b.evaluate(z)
    bv = model.b.evaluate(v)
    return (1.0 - bz * bv.conjugate()) / (1.0 - z * v.conjugate())


def kernel_series(model: DbrModel, v: complex) -> TaylorSeries:
    """Taylor expansion in z of the kernel section at v."""
    v = complex(v)
    bv = np.conj(model.b.evaluate(v))
    coeffs = [-bv * c for c in model.b.coeffs]
    coeffs[0] += 1.0
    return TaylorSeries(coeffs) * geometric_series(np.conj(v), model.order)


@dataclass(frozen=True)
class IsometryReport:
    passes: bool
    relative_gap: float
    gram_norm_sq: float
    h2_part: float
    energy_part: float
    min_gram_eigenvalue: float
    tolerance: float


def verify_isometry(
    model: DbrModel,
    nodes: Sequence[complex],
    coefficients: Sequence[complex],
    disk_grid: DiskGrid,
    tol: float = 1e-2,
) -> IsometryReport:
    """Gram norm of a kernel combination vs Hardy norm plus energy.

    For f = sum c_i k_{w_i} the squared model norm is c* G c with
    G[i][j] = kernel(w_i, w_j); the claim under test equates it with
    ||f||_{H2}^2 + D_w(f). The Gram matrix must be numerically positive
    definite (smallest eigenvalue above 1e-10), otherwise the node set is
    rejected.
    """
    pts = [complex(w) for w in nodes]
    cs = np.asarray([complex(c) for c in coefficients])
    if len(pts) != cs.size or not pts:
        raise DomainError("need matching nonempty nodes and coefficients")
    if any(abs(w) >= 1.0 for w in pts):
        raise DomainError("kernel nodes must be inside the disk")
    n = len(pts)
    # <k_{w_j}, k_{w_i}> = k_{w_j}(w_i) = kernel(w_i, w_j), so c* G c with
    # this orientation is the squared model norm of sum_i c_i k_{w_i}
    G = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            G[i][j] = kernel(model, pts[i], pts[j])
    eigs = np.linalg.eigvalsh((G + G.conj().T) / 2.0)
    if eigs.min() <= 1e-10:
        raise DegenerateNodeSetError(
            f"kernel Gram matrix is numerically singular (min eig {eigs.min():.3e})"
        )
    lhs = float(np.real(cs.conj() @ G @ cs))
    f = kernel_series(model, pts[0]).scale(cs[0])
    for w, c in zip(pts[1:], cs[1:]):
        f = f + kernel_series(model, w).scale(c)
    h2 = f.h2_norm_sq()
    en = energy(f, model.weight, disk_grid)
    rhs = h2 + en
    gap = abs(lhs - rhs) / lhs if lhs > 0 else (0.0 if abs(rhs) < 1e-14 else math.inf)
    return IsometryReport(
        passes=gap <= tol,
        relative_gap=gap,
        gram_norm_sq=lhs,
        h2_part=h2,
        energy_part=en,
        min_gram_eigenvalue=float(eigs.min()),
        tolerance=tol,
    )


def szego_model(reference: DbrModel) -> DbrModel:
    """The b = 0 model over the same weight (Hardy-space kernel).

    Deliberately wrong for any weight with nonzero energy; used to show
    the isometry check is falsifiable.
    """
    zero = TaylorSeries([0j] * (reference.order + 1))
    one = TaylorSeries([1.0 + 0j] + [0j] * reference.order)
    return DbrModel(
        weight=reference.weight,
        weight_spec=reference.weight_spec + "|b=0",
        order=reference.order,
        h=one,
        a=one,
        b=zero,
        phi_samples=(),
        boundary_modulus=np.ones_like(reference.boundary_modulus),
        boundary_order=reference.boundary_order,
        diagnostics={"rank_ratio": 0.0, "factor_residual": 0.0,
                     "h0_deviation": 0.0, "b_max_sample": 0.0, "a0": 1.0},
    )
