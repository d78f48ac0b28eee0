"""Reproducing-kernel model attached to a unit-mass weight.

Pipeline: a unit-mass weight w induces, through the quartic boundary
kernel, the radial-expansion identity

    integral (1 - |v|^2) / |1 - z conj(v)|^4 w(z) dA(z) = |h(v)|^2,

whose double expansion in (v, conj(v)) has coefficients
<u, z^j conj(z)^k> = conj(h_j) h_k for the distribution u carried by the
weight. The symbol is b = phi a, phi(v) = v h(v), where a is the outer
function with a(0) > 0 and |a|^2 = 1 / (1 + |phi|^2) on the circle. The
model's kernel is (1 - b(z) conj(b(v))) / (1 - z conj(v)), and
``verify_isometry`` measures, on finite kernel spans, how far the Gram
norm is from the Hardy norm plus the weighted Dirichlet energy.

The table takes one of two routes:

* A weight with atoms (every catalog weight) carries u itself: its atoms
  after unit-mass normalization. Its table is ``atoms_table`` (rank one
  for one atom, h_k = M[0][k], h_0 = 1), read row by row without being
  formed, and its rank test reads the r atoms.
* Any other weight is normalized by its mass W[0][0], its table follows
  from its measure moments W by expanding the quartic kernel, M[j][k] =
  (j+1)(k+1) W[j][k] - j k W[j-1][k-1], and one SVD decides whether the
  table is rank one; its h continues h_1 geometrically, as one atom's does.

The factors take one route. By the classification a table that passes
the rank test belongs to one atom p = conj(h_1), so a = (1 - conj(p) z)/
(alpha - (conj(p)/alpha) z) and b = z/(alpha - (conj(p)/alpha) z) in
closed form (``_one_atom_factors``; Sarason's for p = 1), with no boundary
grid, and a weight with atoms takes its energy from the closed form of
``dirichlet.energy``. ``_factor_identities`` judges the model's own a and
b by two exact coefficient identities, b = z h a and |a|^2 + |b|^2 = 1 on
the circle, with no nodes and no FFT (the verify suite's
``outer-consistency``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .dirichlet import energy
from .errors import (
    DegenerateNodeSetError,
    DegenerateWeightError,
    DomainError,
    NotDbrWeightError,
    SingularIntegrandError,
)
from .moments import MomentTable, _atom_rows, _unit_scale, disk_moments, normalize
from .quadrature import MAX_RING_ORDER, NODE_BLOCK, DiskGrid
from .series import TaylorSeries, geometric_series
from .weights import Weight

_H0_TOL = 1e-6
_RANK_TOL = 1e-6


def berezin_transforms(
    weight: Weight, points: Sequence[complex], grid: DiskGrid
) -> np.ndarray:
    """Berezin transforms of the weight at each point, read from its moment matrix W.

    Expanding the quartic kernel on the grid's rule, B(w)(v) = (1-|v|^2)^2
    sum_{j,k <= N} (j+1)(k+1) W[j][k] conj(v)^j v^k, W = ``disk_moments(weight,
    grid, N)``, within 2^-53 of the rule's value at N = N(v) (``_berezin_order``).
    W is read once, to the batch's largest N(v); each point sums its own
    corner, bit-identical to a build at that order, as p^H W p, p_k = (k+1)
    v^k, a few rows at a time in elementwise numpy (no BLAS), so a value is
    bit-identical alone or in any batch. A point with |v| >= 1 or N(v) past
    ``MAX_RING_ORDER`` raises DomainError, a non-finite one
    SingularIntegrandError, before the weight is evaluated; so does a
    non-finite result, after.
    """
    v = [complex(p) for p in points]
    orders = [_berezin_order(p) for p in v]
    W = disk_moments(weight, grid, max(orders)) if v else None  # no pass for no point
    values = np.empty(len(v))
    for i, (p, n) in enumerate(zip(v, orders)):
        powers = np.arange(1, n + 2) * p ** np.arange(n + 1)  # (k+1) v^k
        step = max(1, NODE_BLOCK // (n + 1))  # rows of W p formed at a time
        rows = np.concatenate([np.sum(W[lo : min(lo + step, n + 1), : n + 1] * powers, axis=1)
                               for lo in range(0, n + 1, step)])
        values[i] = (1.0 - abs(p) ** 2) ** 2 * np.sum(np.conj(powers) * rows).real
        if not math.isfinite(values[i]):
            raise SingularIntegrandError(f"Berezin transform at v = {p!r} is not finite")
    return values


def _berezin_order(v: complex) -> int:
    """N(v): the least N whose truncation is within 2^-53 of B(w)(v) for
    every nonnegative weight: 34 at |v| = 0.3, 193 at 0.8, 418 at 0.9.

    With a = z conj(v) the kernel is K = |s(a)|^2, s(a) = sum (j+1) a^j =
    (1-a)^-2, and its truncation is K_N = |s(a) (1 - e)|^2 with e = a^(N+1)
    (N+2 - (N+1) a), so |K - K_N| <= (2E + E^2) K at every node of the
    closed disk, E = |v|^(N+1) (N+2 + (N+1)|v|). Each node's term omega w K
    is nonnegative, so the sum over the rule keeps the bound; at z = -v/|v|
    it is met to within E^2, so no lower N holds for every weight. Raises
    DomainError for |v| >= 1 or N(v) past ``MAX_RING_ORDER`` (|v| above
    about 0.915), SingularIntegrandError for a non-finite v.
    """
    x = abs(v)
    if x >= 1.0:
        raise DomainError(f"Berezin transform needs |v| < 1, got {x}")
    if not math.isfinite(x):
        raise SingularIntegrandError(f"Berezin transform at v = {v!r} is not finite")
    for n in range(MAX_RING_ORDER + 1):
        e = x ** (n + 1) * (n + 2 + (n + 1) * x)
        if e * (2.0 + e) <= 2.0**-53:
            return n
    raise DomainError(f"Berezin transform at |v| = {x} needs W past order {MAX_RING_ORDER}")


def berezin_transform(weight: Weight, v: complex, grid: DiskGrid) -> float:
    """Berezin transform of the weight at v: ``berezin_transforms`` at one point."""
    return float(berezin_transforms(weight, [v], grid)[0])


def unit_mass_atoms(
    weight: Weight,
) -> Optional[tuple[Weight, tuple[tuple[complex, float], ...]]]:
    """The weight rescaled to unit mass, with its atoms rescaled alike.

    Returns None when no atomic realization is known. The atom masses are
    closed forms, so the rescaled masses sum to 1 to roundoff; a weight
    already of unit mass is returned as it is. A mass that is not positive,
    or has no finite reciprocal, raises DegenerateWeightError.
    """
    atoms = weight.atoms
    if atoms is None:
        return None
    total = math.fsum(m for _, m in atoms)
    if total <= 0:
        raise DegenerateWeightError("atomic weight has nonpositive mass")
    scale = _unit_scale(total)
    norm_weight = weight if abs(total - 1.0) < 1e-15 else weight.scaled(scale)
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

    ``berezin_transforms`` sums the same expansion of W at a point.
    """
    W = disk_moments(weight, grid, order)
    n = np.arange(order + 1)
    M = np.outer(n + 1, n + 1) * W
    M[1:, 1:] -= np.outer(n[1:], n[1:]) * W[:-1, :-1]
    return MomentTable._from_parts(
        M.real, M.imag, 1, f"berezin:r{grid.radial_order}a{grid.angular_order}"
    )


class TableFactorization(NamedTuple):
    h: TaylorSeries
    rank_ratio: float  # second singular value over first
    residual: float  # worst |M[j][k] - conj(h_j) h_k|


def atoms_singular_values(
    atoms: Sequence[tuple[complex, float]], order: int
) -> np.ndarray:
    """Nonzero singular values of ``atoms_table(atoms, order)``, from the atoms.

    The table is M = A D A^H with A[j][i] = p_i^j and D = diag(m_i). With
    A = QR, M = Q (R D R^H) Q^H and Q has orthonormal columns, so the
    nonzero singular values of M are those of the r x r Hermitian matrix
    R D R^H, r the number of atoms: the moduli of its eigenvalues, returned
    in decreasing order. One atom gives exactly one singular value, m sum_j
    |p|^(2j), with no LAPACK call.
    """
    if len(atoms) == 1:
        ((p, m),) = atoms
        return np.array([m * math.fsum(abs(complex(p)) ** (2 * j) for j in range(order + 1))])
    p = np.array([complex(p) for p, _ in atoms])
    m = np.array([float(m) for _, m in atoms])
    R = np.linalg.qr(p[None, :] ** np.arange(order + 1)[:, None], mode="r")
    return np.sort(np.abs(np.linalg.eigvalsh((R * m) @ R.conj().T)))[::-1]


def factor_table(
    rows: Iterable[np.ndarray], singular_values: np.ndarray, residual_tol: float
) -> TableFactorization:
    """h, sigma2/sigma1 and residual of a rank-one table (h_k = M[0][k], h_0 = 1).

    Raises NotDbrWeightError when the table is not numerically rank one
    (sigma2/sigma1 above ``_RANK_TOL``), when |M[0][0] - 1| exceeds
    ``_H0_TOL`` (unit-mass normalization), or when the residual exceeds
    ``residual_tol`` times max(1, max |M|).

    ``rows`` are the table's rows as complex arrays, row 0 first, read once:
    ``build_model`` passes the rows ``atoms_table`` fills its table from,
    so it forms no table, or a small table's array. ``singular_values`` are
    the table's, in decreasing order: ``atoms_singular_values`` for a table
    known to be ``atoms_table(atoms, order)``, an SVD of the array
    otherwise. h, the h_0 check, the residual max |M[j][k] - conj(h_j) h_k|
    and max |M| are read one row at a time, so no table-sized temporary is
    built.
    """
    for j, row in enumerate(rows):
        if j == 0:
            h = row.copy()
            residuals, moduli = np.empty((2, h.size))
        moduli[j] = np.max(np.abs(row))
        residuals[j] = np.max(np.abs(row - np.conj(h[j]) * h))
    rank_ratio = (float(singular_values[1] / singular_values[0])
                  if singular_values.size > 1 and singular_values[0] > 0 else 0.0)
    residual = float(np.max(residuals))
    h0_deviation = float(abs(h[0] - 1.0))
    if h0_deviation > _H0_TOL:
        raise NotDbrWeightError(
            f"table is not unit-normalized: |M[0][0] - 1| = {h0_deviation:.3e}"
        )
    if rank_ratio > _RANK_TOL:
        raise NotDbrWeightError(
            f"table is not rank one: sigma2/sigma1 = {rank_ratio:.3e}"
        )
    scale = max(1.0, float(np.max(moduli)))
    if residual > residual_tol * scale:
        raise NotDbrWeightError(
            f"factorization residual {residual:.3e} exceeds tolerance"
        )
    return TableFactorization(h=TaylorSeries(h), rank_ratio=rank_ratio, residual=residual)


class HIdentityReport(NamedTuple):
    worst_error: float
    worst_point: complex


def verify_h_identity(
    weight: Weight,
    h: TaylorSeries,
    test_points: Sequence[complex],
    grid: DiskGrid,
) -> HIdentityReport:
    """Compare the quartic-kernel integral against |h(v)|^2 pointwise.

    The integrals are one ``berezin_transforms`` batch, read from one moment matrix W.
    """
    points = [complex(v) for v in test_points]
    worst = -1.0
    worst_pt = 0j
    for v, b in zip(points, berezin_transforms(weight, points, grid).tolist()):
        lhs = b / (1.0 - abs(v) ** 2)
        rhs = abs(h.evaluate(v)) ** 2
        err = abs(lhs - rhs)
        if err > worst:
            worst = err
            worst_pt = v
    return HIdentityReport(worst_error=worst, worst_point=worst_pt)


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


@dataclass(frozen=True)
class DbrModel:
    """Bundle (weight, h, a, b) realizing the kernel model of a weight."""

    weight: Weight
    weight_spec: str
    order: int
    h: TaylorSeries
    a: TaylorSeries
    b: TaylorSeries
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


def _one_atom_factors(p: complex, order: int) -> tuple[TaylorSeries, TaylorSeries]:
    """a and b of a unit atom at p, in closed form (Sarason's for p = 1).

    On the circle |1 - conj(p) z|^2 + 1 = |alpha - (conj(p)/alpha) z|^2 with
    alpha^2 = (2 + |p|^2 + sqrt((2 + |p|^2)^2 - 4 |p|^2)) / 2, so the outer
    a = (1 - conj(p) z)/(alpha - (conj(p)/alpha) z) has |a|^2 = 1/(1 + |phi|^2)
    for phi = z/(1 - conj(p) z), and b = phi a = z/(alpha - (conj(p)/alpha) z).
    With q = conj(p)/alpha^2: a_0 = 1/alpha, a_k = (q^k - conj(p) q^(k-1))/alpha
    and b_k = q^(k-1)/alpha for k >= 1.
    """
    p = complex(p)
    s = 2.0 + abs(p) ** 2
    alpha = math.sqrt((s + math.sqrt(s * s - 4.0 * abs(p) ** 2)) / 2.0)
    q = p.conjugate() / alpha**2
    qk = q ** np.arange(order + 1) / alpha  # q^k / alpha
    a = np.empty(order + 1, dtype=complex)
    a[0] = qk[0]
    a[1:] = qk[1:] - p.conjugate() * qk[:-1]
    b = np.zeros(order + 1, dtype=complex)
    b[1:] = qk[:-1]
    return TaylorSeries(a), TaylorSeries(b)


def _factor_identities(model: DbrModel) -> tuple[float, float]:
    """(product, pythagorean): how far the model's a and b are from b = z h a
    and |a|^2 + |b|^2 = 1 on the circle, read from their coefficients.

    ``product`` is max_k |(a z h)_k - b_k|, one truncated series product.
    ``pythagorean`` is max over lags k of |sum_j a_{j+k} conj(a_j) +
    b_{j+k} conj(b_j) - delta_k|, the Fourier coefficients of |a|^2 + |b|^2
    on the circle: no nodes, no FFT. Both are exact identities of the
    closed forms, so they read roundoff plus the truncation of a and b,
    which decays like |q|^N (q = conj(p)/alpha^2, ``_one_atom_factors``).
    """
    a, b = model.a.array, model.b.array
    product = float(np.max(np.abs((model.h.shift() * model.a).array - b)))
    lags = np.correlate(a, a, "full") + np.correlate(b, b, "full")
    lags[a.size - 1] -= 1.0
    return product, float(np.max(np.abs(lags)))


_PHI_SAMPLE_RADII = (0.3, 0.6, 0.8)


def _phi_sample_points() -> list[complex]:
    pts = [0j]
    for r in _PHI_SAMPLE_RADII:
        for t in range(8):
            pts.append(r * np.exp(2j * np.pi * (t + 0.5) / 8))
    return pts


def build_model(
    weight: Weight,
    disk_grid: Optional[DiskGrid],
    order: int = 64,
) -> DbrModel:
    """Construct the kernel model of a weight, normalizing to unit mass.

    The table has two routes. A weight with atoms (every catalog weight)
    takes its exact atomic table, read one row at a time and never formed
    whole, so normalization is exact and h_0 = 1 to roundoff, and its rank
    test reads sigma2/sigma1 from the r atoms (``atoms_singular_values``),
    with no SVD of the (order+1)^2 table. A
    weight without atoms is normalized by W[0][0] of one order-8 ring pass
    on ``disk_grid`` (None will do otherwise), and its rank test is one SVD
    of the 9 x 9 table of its measure moments (``moment_table_from_berezin``);
    its h is h_1^k to ``order``, and ``h0_deviation`` reads the table's h_0.

    The factors have one route. By the classification a table that passes
    the rank test belongs to one atom p = conj(h_1) (h_1 = sum m conj(p)),
    and a and b are its closed forms (``_one_atom_factors``), with no FFT.
    A weight with exactly one atom takes p from the atom, bit for bit; any
    other weight takes conj(h_1) from its table, so atoms closer together
    than the rank test resolves give their barycenter.
    """
    if order < 1:
        raise DomainError(f"series order must be at least 1, got {order}")
    unit = unit_mass_atoms(weight)
    if unit is not None:
        norm_weight, norm_atoms = unit
        fac = factor_table(_atom_rows(norm_atoms, order),
                           atoms_singular_values(norm_atoms, order), residual_tol=1e-9)
        h = fac.h
    else:
        if disk_grid is None:
            raise DomainError(f"{weight.label} has no known atoms: its model needs a grid")
        disk_moments(weight, disk_grid, 8)  # the one ring pass; the mass is its corner
        norm_weight = normalize(weight, disk_grid)
        M = moment_table_from_berezin(norm_weight, disk_grid, order=8).to_complex_array()
        fac = factor_table(M, np.linalg.svd(M, compute_uv=False), residual_tol=1e-4)
        h = geometric_series(fac.h.coeffs[1], order)  # the one atom's own series
    one_atom = unit is not None and len(norm_atoms) == 1
    a, b = _one_atom_factors(norm_atoms[0][0] if one_atom else h.coeffs[1].conjugate(),
                             order)

    b_samples = [
        abs(b.evaluate(0.9 * np.exp(2j * np.pi * (t + 0.5) / 16))) for t in range(16)
    ] + [abs(b.evaluate(w)) for w in _phi_sample_points()]
    diagnostics = {
        "rank_ratio": fac.rank_ratio,
        "factor_residual": fac.residual,
        "h0_deviation": abs(fac.h.coeffs[0] - 1.0),
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
    return _kernel_section(model, v, model.b.evaluate(v))


def _kernel_section(model: DbrModel, v: complex, bv: complex) -> TaylorSeries:
    """``kernel_series`` at v given bv = b(v): (1 - conj(bv) b) / (1 - conj(v) z)."""
    numerator = -np.conj(bv) * model.b.array  # 1 - conj(b(v)) b
    numerator[0] += 1.0
    return TaylorSeries(numerator) * geometric_series(np.conj(v), model.order)


class IsometryReport(NamedTuple):
    relative_gap: float
    gram_norm_sq: float
    h2_part: float
    energy_part: float
    min_gram_eigenvalue: float


def verify_isometry(
    model: DbrModel,
    nodes: Sequence[complex],
    coefficients: Sequence[complex],
    disk_grid: DiskGrid,
) -> IsometryReport:
    """Gram norm of a kernel combination vs Hardy norm plus energy.

    For f = sum c_i k_{w_i} the squared model norm is c* G c with
    G[i][j] = kernel(w_i, w_j); the claim under test equates it with
    ||f||_{H2}^2 + D_w(f). The Gram matrix must be numerically positive
    definite (smallest eigenvalue above 1e-10), otherwise the node set is
    rejected. b is evaluated once per node: G's entries are ``kernel``'s
    expression on those values, and each kernel section reuses its node's.
    """
    pts = [complex(w) for w in nodes]
    cs = np.asarray([complex(c) for c in coefficients])
    if len(pts) != cs.size or not pts:
        raise DomainError("need matching nonempty nodes and coefficients")
    if any(abs(w) >= 1.0 for w in pts):
        raise DomainError("kernel nodes must be inside the disk")
    n = len(pts)
    bs = [model.b.evaluate(w) for w in pts]
    # <k_{w_j}, k_{w_i}> = k_{w_j}(w_i) = kernel(w_i, w_j), so c* G c with
    # this orientation is the squared model norm of sum_i c_i k_{w_i}
    G = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            G[i][j] = (1.0 - bs[i] * bs[j].conjugate()) / (1.0 - pts[i] * pts[j].conjugate())
    eigs = np.linalg.eigvalsh((G + G.conj().T) / 2.0)
    if eigs.min() <= 1e-10:
        raise DegenerateNodeSetError(
            f"kernel Gram matrix is numerically singular (min eig {eigs.min():.3e})"
        )
    lhs = float(np.real(cs.conj() @ G @ cs))
    f = _kernel_section(model, pts[0], bs[0]).scale(cs[0])
    for w, bw, c in zip(pts[1:], bs[1:], cs[1:]):
        f = f + _kernel_section(model, w, bw).scale(c)
    h2 = f.h2_norm_sq()
    en = energy(f, model.weight, disk_grid)
    rhs = h2 + en
    gap = abs(lhs - rhs) / lhs if lhs > 0 else (0.0 if abs(rhs) < 1e-14 else math.inf)
    return IsometryReport(
        relative_gap=gap,
        gram_norm_sq=lhs,
        h2_part=h2,
        energy_part=en,
        min_gram_eigenvalue=float(eigs.min()),
    )


def szego_model(reference: DbrModel) -> DbrModel:
    """The b = 0 model over the same weight (Hardy-space kernel).

    Deliberately wrong for any weight with nonzero energy; used to show
    the isometry check is falsifiable.
    """
    zero = TaylorSeries([0j] * (reference.order + 1))
    one = TaylorSeries([1.0 + 0j] + [0j] * reference.order)
    return replace(
        reference,
        weight_spec=reference.weight_spec + "|b=0",
        h=one,
        a=one,
        b=zero,
        diagnostics={"rank_ratio": 0.0, "factor_residual": 0.0,
                     "h0_deviation": 0.0, "b_max_sample": 0.0, "a0": 1.0},
    )
