"""Moment tables of compactly supported distributions and their
multiplicative structure.

A point distribution is a finite combination sum c_{jk} D^j Dbar^k delta_a
of Wirtinger derivatives of a Dirac mass. Pairing it against the centered
power (z-a)^m conj(z-a)^n gives (-1)^{m+n} m! n! c_{mn}; raw moments
<u, z^j conj(z)^k> follow by binomial expansion around the support point.

The multiplicative factorization M[j][k] = M[j][0] M[0][k] holds exactly
when the coefficient matrix factors as c_{jk} = c_{j0} c_{0k} with
c_{00} = 1, and fails for every table of rank two or more. The same
rank-one structure makes the antisymmetrized two-variable expression

    E(j,k,m,n) = M[j+1][m] M[k][n] + M[k+1][m] M[j][n]
               - M[j][m] M[k+1][n] - M[k][m] M[j+1][n]

vanish identically; ``tensor_diag_check`` sweeps it over all index tuples.

When the support point and every coefficient are rational (including
rational real and imaginary parts), all tables are exact and the checks
certify exact zeros instead of small residuals; otherwise double
precision is used throughout. A ``PointDistribution`` and a
``MomentTable`` hold real and imaginary numerator arrays over one
denominator: float64 over 1, or Python ints over a common integer
denominator, so exact arithmetic runs on Gaussian integers with no
per-operation gcd reduction. ``point_moments``, ``factorize`` and both
checks are the same array sweeps on either kind; ``GaussianRational``,
which has no arithmetic, is the exact type of inputs and of the views.

A weight's moment matrix W on a grid (``disk_moments``) is one ring pass,
kept per weight and grid; its corner W[0][0] is the mass (``l1_norm``).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    DegenerateWeightError,
    DomainError,
    InconsistentTableError,
    NotWeaklyMultiplicativeError,
    SingularIntegrandError,
    SingularPointError,
)
from .quadrature import DiskGrid, _circle_sums, _node_moduli, integrate
from .weights import Scaled, Weight, _on_grid

_C00_SNAP_TOL = 1e-9
_FACTOR_TOL = 1e-12


class GaussianRational:
    """Exact complex number with rational real and imaginary parts.

    The boundary type of exact data: inputs may use it, and the ``point``,
    ``coeffs`` and ``entries`` views return it, while all arithmetic runs
    on integer numerator arrays, so the type carries no operators.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        return other is not None and self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value equals its int or Fraction, so it must hash like one
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


Entry = Union[complex, GaussianRational]


def _coerce(v) -> Optional[GaussianRational]:
    """Exact view of v, or None when v is not exactly representable."""
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussianRational(v)
    return None


def _is_exact(values) -> bool:
    return all(_coerce(v) is not None for v in values)


def _parts(values, exact: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """Numbers (a list, or rectangular rows) as real and imaginary numerator
    arrays of the same shape over one denominator.

    With ``_entries``, the one conversion between the boundary types and
    the array layout: exact values become Python ints over their least
    common denominator, any other values float64 over 1.
    """
    values = np.array(values, dtype=object)
    if not exact:
        z = np.array([complex(v) for v in values.flat], dtype=complex)
        return z.real.reshape(values.shape), z.imag.reshape(values.shape), 1
    exact_values = [_coerce(v) for v in values.flat]
    denom = math.lcm(1, *(f.denominator for v in exact_values for f in (v.re, v.im)))
    re = [v.re.numerator * (denom // v.re.denominator) for v in exact_values]
    im = [v.im.numerator * (denom // v.im.denominator) for v in exact_values]
    return (np.array(re, dtype=object).reshape(values.shape),
            np.array(im, dtype=object).reshape(values.shape), denom)


def _entries(re: np.ndarray, im: np.ndarray, denom: int) -> tuple:
    """Boundary view of 1-D or 2-D numerator arrays, as (nested) tuples.

    Python-int numerators give reduced GaussianRationals, floats complex.
    """
    if re.ndim == 2:
        return tuple(_entries(r, i, denom) for r, i in zip(re, im))
    if re.dtype != object:
        return tuple(_complex(re, im, denom).tolist())
    return tuple(
        GaussianRational(Fraction(a, denom), Fraction(b, denom))
        for a, b in zip(re.tolist(), im.tolist())
    )


def _complex(re: np.ndarray, im: np.ndarray, denom: int) -> np.ndarray:
    # int / int rounds once, as float(Fraction) does
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re / denom, im / denom
    return out


def _outer(pr, pi, qr, qi) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the outer product p q^T, numerators alike."""
    mul = np.multiply.outer
    return mul(pr, qr) - mul(pi, qi), mul(pr, qi) + mul(pi, qr)


def _factor_defect(re: np.ndarray, im: np.ndarray, d) -> tuple[np.ndarray, np.ndarray]:
    """Numerators over d^2 of X[j][k] - X[j][0] X[0][k] for X = (re + i im) / d.

    Each real product is rounded on its own, as Python's complex product
    does (numpy's complex multiply may fuse one into the following
    addition); on Python ints the parts are exact.
    """
    cr, ci, rr, ri = re[:, :1], im[:, :1], re[:1], im[:1]  # X[j][0], X[0][k]
    return re * d - (cr * rr - ci * ri), im * d - (cr * ri + ci * rr)


def _magnitude(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Entrywise re^2 + im^2 on Python ints, np.hypot(re, im) on floats.

    Either orders entries by modulus and vanishes exactly at zero; float
    parts take np.hypot, as Python's complex abs does.
    """
    return re * re + im * im if re.dtype == object else np.hypot(re, im)


class PointDistribution:
    """Support point a and coefficient matrix c of a point distribution.

    Stored in the layout of a ``MomentTable``: ``a`` holds the point as
    one-entry numerator arrays over its own denominator, (re, im, denom),
    and ``re``, ``im`` the coefficients as read-only numerator arrays over
    ``denom``. When the point and every coefficient are int, Fraction or
    GaussianRational the numerators are Python ints over common integer
    denominators and every derived table stays exact; otherwise all data
    is float64 over 1 (mixed data degrades uniformly), and a non-finite
    point or coefficient raises DomainError. ``point`` and ``coeffs`` are
    the GaussianRational/complex views.
    """

    __slots__ = ("a", "re", "im", "denom")

    def __init__(self, point, coeffs: Sequence[Sequence]):
        rows = [list(row) for row in coeffs]
        if not rows or not rows[0]:
            raise DomainError("coefficient matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DomainError("coefficient matrix must be rectangular")
        exact = _is_exact([point, *(v for row in rows for v in row)])
        a, (re, im, denom) = _parts([point], exact), _parts(rows, exact)
        if not exact and not all(np.isfinite(x).all() for x in (a[0], a[1], re, im)):
            raise DomainError("point and coefficients must be finite")
        self._init(a, re, im, denom)

    @classmethod
    def _from_parts(cls, a, re, im, denom: int) -> "PointDistribution":
        """The distribution of point a = (re, im, denom) and coefficients (re + i im) / denom."""
        d = object.__new__(cls)
        d._init(a, re, im, denom)
        return d

    def _init(self, a, re, im, denom):
        for part in (a[0], a[1], re, im):
            part.setflags(write=False)
        self.a, self.re, self.im, self.denom = a, re, im, denom

    @property
    def point(self) -> Entry:
        return _entries(*self.a)[0]

    @property
    def coeffs(self) -> tuple[tuple[Entry, ...], ...]:
        return _entries(self.re, self.im, self.denom)

    @property
    def is_exact(self) -> bool:
        return self.re.dtype == object

    @property
    def degree(self) -> tuple[int, int]:
        return (self.re.shape[0] - 1, self.re.shape[1] - 1)

    @property
    def is_zero(self) -> bool:
        return not (self.re.any() or self.im.any())


class MomentTable:
    """Square table M[j][k] = <u, z^j conj(z)^k> for j, k <= order.

    Stored as read-only numerator arrays over one denominator, M = (re + i
    im) / denom: float64 arrays over 1 for a floating table, object arrays
    of Python ints over a common integer denominator, in lowest terms, for
    an exact one.
    ``entries`` is the boundary view, rows of GaussianRational or complex;
    the constructor takes such rows, and the table is exact only when every
    entry is exact (int, Fraction or GaussianRational; mixed rows become
    complex).
    """

    __slots__ = ("re", "im", "denom", "order", "provenance")

    def __init__(self, entries, order: int, provenance: str):
        rows = [list(row) for row in entries]
        if order < 0 or len(rows) != order + 1 or any(len(row) != order + 1 for row in rows):
            raise DomainError("moment table shape does not match its order")
        self._init(*_parts(rows, _is_exact(v for row in rows for v in row)), provenance)

    @classmethod
    def _from_parts(cls, re, im, denom: int, provenance: str) -> "MomentTable":
        """The table (re + i im) / denom, kept read-only (exact parts in lowest terms)."""
        table = object.__new__(cls)
        table._init(re, im, denom, provenance)
        return table

    def _init(self, re, im, denom, provenance):
        if re.ndim != 2 or re.shape[0] != re.shape[1] or im.shape != re.shape:
            raise DomainError("moment table must be a nonempty square array")
        if re.dtype == object:  # lowest terms keep the checks' integer products small
            g = math.gcd(denom, *re.flat, *im.flat)
            re, im, denom = re // g, im // g, denom // g
        re.setflags(write=False)
        im.setflags(write=False)
        self.re, self.im, self.denom = re, im, denom
        self.order, self.provenance = re.shape[0] - 1, provenance

    @property
    def entries(self) -> tuple[tuple[Entry, ...], ...]:
        return _entries(self.re, self.im, self.denom)

    @property
    def is_exact(self) -> bool:
        return self.re.dtype == object

    def to_complex_array(self) -> np.ndarray:
        return _complex(self.re, self.im, self.denom)

    def to_json_dict(self) -> dict:
        arr = self.to_complex_array()
        return {
            "order": self.order,
            "re": arr.real.tolist(),
            "im": arr.imag.tolist(),
            "provenance": self.provenance,
        }


def _centered(d: PointDistribution, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerators over d.denom of Cen[m][n] = (-1)^(m+n) m! n! c_mn, m, n <= order.

    One elementwise product of the coefficients with the outer product of
    the (-1)^m m! and (-1)^n n! vectors, formed in integers and cast to the
    data's dtype once, so a float entry's factor is rounded once.
    """
    rows, cols = (min(g, order) + 1 for g in d.degree)
    s = np.array([(-1) ** m * math.factorial(m) for m in range(max(rows, cols))], dtype=object)
    f = np.multiply.outer(s[:rows], s[:cols]).astype(d.re.dtype)
    cr, ci = np.zeros((2, order + 1, order + 1), dtype=d.re.dtype)
    cr[:rows, :cols], ci[:rows, :cols] = f * d.re[:rows, :cols], f * d.im[:rows, :cols]
    return cr, ci


def point_moments(d: PointDistribution, order: int) -> MomentTable:
    """Raw moments of a point distribution by binomial recentering.

    M[j][k] = sum_{m,n} C(j,m) a^(j-m) Cen[m][n] C(k,n) conj(a)^(k-n) is
    M = P Cen conj(P)^T with the lower-triangular P[j][m] = C(j,m) a^(j-m)
    and Cen the centered pairings: two matrix products, O(order^3).
    One route for both kinds of data: with a = A / D_a and Cen = Cen' / D_c
    on numerators, P'[j][m] = C(j,m) A^(j-m) D_a^(order-j+m) gives
    M = P' Cen' conj(P')^T / (D_c D_a^(2 order)). Exact data runs the
    products on Python ints (Gaussian integers); float data has D_a = D_c
    = 1, so P' = P and the same products run in float64.
    """
    if order < 0:
        raise DomainError("order must be nonnegative")
    (ar,), (ai,), da = d.a
    apow = [(1, 0)]
    for _ in range(order):
        zr, zi = apow[-1]
        apow.append((zr * ar - zi * ai, zr * ai + zi * ar))
    pr, pi = np.zeros((2, order + 1, order + 1), dtype=d.re.dtype)
    for j in range(order + 1):
        for m in range(j + 1):
            c = math.comb(j, m) * da ** (order - j + m)
            pr[j, m], pi[j, m] = c * apow[j - m][0], c * apow[j - m][1]
    mr, mi = _recenter(pr, pi, *_centered(d, order))
    return MomentTable._from_parts(mr, mi, d.denom * da ** (2 * order), "point")


def _recenter(pr, pi, cr, ci) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of P C conj(P)^T, as T = P C then T conj(P)^T.

    Each complex product is four real ``np.einsum`` contractions, without
    ``optimize``, so no BLAS and no threads. The parts are float arrays or
    object arrays of Python ints alike: exact sums keep every bit.
    """
    def product(ar, ai, br, bi):  # (ar + i ai)(br + i bi), matrix by matrix
        e = "jm,mn->jn"
        return (np.einsum(e, ar, br) - np.einsum(e, ai, bi),
                np.einsum(e, ar, bi) + np.einsum(e, ai, br))

    return product(*product(pr, pi, cr, ci), pr.T, -pi.T)


def atoms_table(atoms: Sequence[tuple[complex, float]], order: int) -> MomentTable:
    """Moments of a finite positive combination of Dirac masses.

    The table is filled from ``_atom_rows``, so the build holds the table
    and O(order) rows, never a second table.
    """
    if order < 0:
        raise DomainError("order must be nonnegative")
    total = np.empty((order + 1, order + 1), dtype=complex)
    for j, row in enumerate(_atom_rows(atoms, order)):
        total[j] = row
    return MomentTable._from_parts(total.real, total.imag, 1, "point")


def _atom_rows(atoms: Sequence[tuple[complex, float]], order: int):
    """Rows j = 0..order of ``atoms_table(atoms, order)``, each a new complex array.

    Row j starts at zero and gains, per atom in atom order, m p^j (Python's
    complex power) times conj(p)^k (numpy's). ``dbr.build_model`` reads
    these rows without forming the table, bit for bit the table's rows.
    """
    powers = [
        (np.array([m * complex(p) ** j for j in range(order + 1)]),
         np.array([np.conj(complex(p)) ** k for k in range(order + 1)]))
        for p, m in atoms
    ]
    term = np.empty(order + 1, dtype=complex)
    for j in range(order + 1):
        row = np.zeros(order + 1, dtype=complex)
        for mpj, conj_pk in powers:
            row += np.multiply(mpj[j : j + 1], conj_pk, out=term)
        yield row


def disk_moments(w: Weight, grid: DiskGrid, order: int) -> np.ndarray:
    """W[j][k] = sum_i omega_i w(z_i) z_i^j conj(z_i)^k on the grid, j, k <= order.

    The rule ``integrate`` applies, aliasing included, ring by ring: a ring
    of m nodes r u_t, u_t = exp(2 pi i (t + 1/2) / m), gives S_r(d) =
    sum_t w(r u_t) u_t^d from ``quadrature._circle_sums``: real DFTs of at
    most ``NODE_BLOCK`` values each (the whole ring when m is at most
    ``NODE_BLOCK``; otherwise its columns as an (L, m/L) array, L the
    largest divisor of m not above it), the weight evaluated on each column
    chunk's nodes as the DFT takes it, so no temporary is ring-sized and no
    value is kept. The matrix is Hermitian, W[j][k] = conj(W[k][j]), so
    only d = j - k >= 0 is formed: G[k][d] = sum_r (omega_r / m) r^(2k)
    r^d S_r(d), in the real and imaginary parts of W, each one ``np.einsum``
    contraction over the rings, in ring order (no ``optimize``, so no BLAS
    and no threads), so it is bit-reproducible; then W[j][k] =
    G[min(j,k)][|j-k|] in place, conjugated above the diagonal. G[k][d]
    does not depend on the order, so a lower order is a read-only view
    bit-identical to a fresh build; a higher order than the kept one is a
    new pass. The values agree with a complex ring DFT to roundoff.

    Kept on the weight per grid at the largest order asked for so far, with
    the least and largest node value its pass met (``_value_range``): a
    verify run asks first for the largest order its checks read, the orders
    of its Berezin values among them. A ``Scaled`` weight's matrix is its
    factor times its inner weight's, formed on each call with no pass and
    nothing kept. A non-finite weight value raises SingularIntegrandError
    naming the first such node in grid order, as a pass in node order would.
    """
    if order < 0:
        raise DomainError("order must be nonnegative")
    if isinstance(w, Scaled):  # formed on each call: only its inner weight's is kept
        W = w.c * disk_moments(w.inner, grid, order)
        lo, hi = _value_range(w, grid)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise SingularIntegrandError(f"values of {w.label} are not finite on the grid")
        W.setflags(write=False)
        return W
    data = _on_grid(w, grid)
    if data.W is not None and data.W.shape[0] > order:
        return data.W[: order + 1, : order + 1]
    data.W, data.value_range = _ring_moments(w, grid, order)
    data.W.setflags(write=False)
    return data.W


def _value_range(w: Weight, grid: DiskGrid) -> tuple[float, float]:
    """Least and largest value of w on the grid, as the ring pass of its
    kept W met them; a ``Scaled`` weight's are its factor times its inner
    weight's, rounded as its values are, which are never formed."""
    if isinstance(w, Scaled):
        lo, hi = _value_range(w.inner, grid)
        return w.c * lo, w.c * hi
    return _on_grid(w, grid).value_range


def l1_norm(w: Weight, grid: DiskGrid) -> float:
    """Mass of the weight against normalized area measure on the grid's rule:
    the corner W[0][0] of ``disk_moments``, read from the kept W, or from an
    order-0 ring pass when none is kept. A ``Scaled`` weight's mass is its
    factor times its inner weight's, with no pass of its own."""
    return float(disk_moments(w, grid, 0)[0, 0].real)


def normalize(w: Weight, grid: DiskGrid) -> Scaled:
    """Rescale to unit mass; degenerate (zero) weights are rejected, and so
    is a mass with no finite reciprocal."""
    mass = l1_norm(w, grid)
    if mass <= 0.0:
        raise DegenerateWeightError(f"weight {w.label} has nonpositive mass {mass}")
    return Scaled(_unit_scale(mass), w)


def _unit_scale(mass: float) -> float:
    """1 / mass for a positive mass, or DegenerateWeightError when it is not
    positive and finite (a subnormal mass, say, whose reciprocal overflows)."""
    scale = 1.0 / mass
    if not 0.0 < scale < math.inf:
        raise DegenerateWeightError(
            f"mass {mass:g} has no finite reciprocal, so the weight cannot be normalized"
        )
    return scale


def _ring_moments(w: Weight, grid: DiskGrid, order: int) -> tuple[np.ndarray, tuple[float, float]]:
    """W from the half sums G[k][d] = sum_r (omega_r/m) r^(2k) r^d S_r(d), d >= 0,
    and the least and largest value of w met on the way.

    Each ring's column chunks are evaluated as ``_circle_sums`` asks for
    them, and its sums fill its row of S; the rows are then scaled and
    contracted over the rings all at once. A non-finite value or a singular
    point stops the pass, and the weight is integrated over the grid in node
    order (``integrate``), which raises the error a pass in that order
    raises.
    """
    n = np.arange(order + 1)
    S = np.empty((len(grid.ring_counts), order + 1), dtype=complex)
    lo, hi = math.inf, -math.inf

    def values(u, r):
        nonlocal lo, hi
        u *= r  # the chunk's nodes, in place of its unit nodes
        x = w.eval_many(u)
        x_lo, x_hi = float(x.min()), float(x.max())  # nan if any value is nan
        if not (math.isfinite(x_lo) and math.isfinite(x_hi)):
            raise SingularIntegrandError(f"{w.label} is not finite on the grid")
        lo, hi = min(lo, x_lo), max(hi, x_hi)
        return x

    for i, (r, m) in enumerate(zip(grid.ring_radii, grid.ring_counts)):
        try:
            S[i] = _circle_sums(m, order, lambda u: values(u, r))
        except (SingularIntegrandError, SingularPointError):
            integrate(grid, w.eval_many)
            raise
    rp = np.array(_node_moduli(grid))[:, None] ** n
    S *= rp
    ring = np.array(grid.ring_weights)[:, None] * rp * rp
    W = np.empty((order + 1, order + 1), dtype=complex)
    g_re, g_im = W.real, W.imag  # G is formed in W's own entries
    np.einsum("rk,rd->kd", ring, S.real, out=g_re)
    np.einsum("rk,rd->kd", ring, S.imag, out=g_im)
    # W[j][k] = G[min(j,k)][|j-k|] in place: row k of G moves right by k, onto
    # the diagonal, and is copied down column k, conjugated above the diagonal
    for k in range(1, order + 1):
        W[k, k:] = W[k, : order + 1 - k]
    for k in range(order):
        W[k + 1 :, k] = W[k, k + 1 :]
        np.negative(g_im[k, k + 1 :], out=g_im[k, k + 1 :])
    return W, (lo, hi)


def measure_moments(w: Weight, grid: DiskGrid, order: int) -> MomentTable:
    """Moments integral(z^j conj(z)^k w dA) of the weight: ``disk_moments`` as a table."""
    W = disk_moments(w, grid, order)
    return MomentTable._from_parts(
        W.real, W.imag, 1, f"measure:r{grid.radial_order}a{grid.angular_order}"
    )


class WeakMultReport(NamedTuple):
    worst: tuple[int, int]
    residual: float


def weak_mult_check(M: MomentTable) -> WeakMultReport:
    """Residuals of the factorization M[j][k] = M[j][0] M[0][k].

    One sweep over the numerators: with M = T / D the differences are
    (T D - T[:,0] T[0,:]) / D^2, in integers on an exact table, so a
    residual of 0.0 certifies exact factorization. Ties on the worst
    residual resolve to the lexicographically smallest index pair.
    """
    worst, residual = _worst(*_factor_defect(M.re, M.im, M.denom), M.denom)
    return WeakMultReport(worst, residual)


#: Entry budget of ``tensor_diag_check``'s order^2 (order+1)^2 sweep, refused
#: before it allocates: admits order 31 (~8 MB per float array).
MAX_TENSOR_ENTRIES = 2**20


class TensorDiagReport(NamedTuple):
    worst: tuple[int, int, int, int]
    residual: float


def tensor_diag_check(M: MomentTable) -> TensorDiagReport:
    """Sweep the antisymmetrized rank-one identity over all index tuples.

    E(j,k,m,n) uses entries up to row j+1 and k+1, so j, k range over
    0..order-1 and m, n over 0..order. Requires order >= 1. One sweep on
    either kind of table: P[j][k][m][n] = M[j+1][m] M[k][n] is one outer
    product of the shifted row blocks, and E = ((P + P_jk) - P_jk,mn) -
    P_mn over its index transposes, in the order of the formula above. On
    an exact table the numerators are integers over D^2, so a residual of
    0.0 certifies an exact zero. Ties on the worst residual resolve to the
    lexicographically smallest tuple. Memory grows as order^4, so a table
    whose sweep has more than ``MAX_TENSOR_ENTRIES`` entries is refused
    with DomainError before anything is allocated.
    """
    if M.order < 1:
        raise DomainError("tensor_diag_check needs a table of order >= 1")
    entries = M.order**2 * (M.order + 1) ** 2
    if entries > MAX_TENSOR_ENTRIES:
        raise DomainError(
            f"tensor_diag_check at order {M.order} needs {entries} entries, "
            f"over the budget {MAX_TENSOR_ENTRIES}"
        )
    ar, ai = M.re[1:, None, :, None], M.im[1:, None, :, None]  # M[j+1][m]
    br, bi = M.re[None, :-1, None, :], M.im[None, :-1, None, :]  # M[k][n]

    def antisymmetrized(p):  # the (j,k), (j,k)(m,n) and (m,n) transposes of P
        t2, t3 = p.transpose(1, 0, 2, 3), p.transpose(1, 0, 3, 2)
        return ((p + t2) - t3) - p.transpose(0, 1, 3, 2)

    worst, residual = _worst(
        antisymmetrized(ar * br - ai * bi), antisymmetrized(ar * bi + ai * br), M.denom
    )
    return TensorDiagReport(worst, residual)


def _worst(re: np.ndarray, im: np.ndarray, denom: int) -> tuple[tuple[int, ...], float]:
    """First index in C order of the largest |re + i im| / denom^2, and that value.

    The callers round each real product on its own, as Python's complex
    product does. Integer parts compare re^2 + im^2 exactly and round once,
    at the worst.
    """
    size = _magnitude(re, im)
    flat = int(np.argmax(size))
    if re.dtype == object:
        value = math.sqrt(Fraction(size.flat[flat], denom**4))
    else:
        value = float(size.flat[flat])
    return tuple(int(i) for i in np.unravel_index(flat, re.shape)), value


class FactorizationResult(NamedTuple):
    ok: bool
    p: Optional[tuple[Entry, ...]]
    q: Optional[tuple[Entry, ...]]
    violation: Optional[tuple[int, int, float]]
    zero_distribution: bool = False


def factorize(d: PointDistribution) -> FactorizationResult:
    """Recover p_j = c_{j0} and q_k = c_{0k} from a rank-one table.

    Succeeds iff c_{mn} = c_{m0} c_{0n} holds for every entry, tested on
    the numerator arrays as C D - C[:,0] C[0,:]: exactly on exact data,
    within 1e-12 on floats. On failure the first violating interior index
    pair, in C order, is reported with its residual. c_{00} must be 0 or
    1, exactly on exact data and within 1e-9 on floats (where it snaps to
    1); a vanishing c_{00} with any other nonzero entry is inconsistent,
    while the all-zero matrix is the zero distribution.
    """
    D = d.denom
    snap, tol = (0, 0) if d.is_exact else (_C00_SNAP_TOL, _FACTOR_TOL)
    r00, i00 = d.re[:1, :1], d.im[:1, :1]
    near_one = _magnitude(r00 - D, i00)[0, 0] <= snap
    if not near_one and not _magnitude(r00, i00)[0, 0] <= snap:
        raise NotWeaklyMultiplicativeError(
            f"c_00 = {d.coeffs[0][0]!r} is not 0 or 1 within {snap}"
        )
    if not near_one:
        if d.is_zero:
            return FactorizationResult(
                ok=True, p=(), q=(), violation=None, zero_distribution=True
            )
        raise InconsistentTableError(
            "c_00 = 0 forces the zero distribution, but other entries are nonzero"
        )
    # c_00 snaps to 1, so p_0 = q_0 = 1 and the first row and column
    # factor trivially; only interior entries can violate the identity.
    re, im = _factor_defect(d.re, d.im, D)
    bad = _magnitude(re, im)[1:, 1:] > tol
    if bad.any():
        m, n = (int(i) + 1 for i in np.unravel_index(np.argmax(bad), bad.shape))
        _, res = _worst(re[m : m + 1, n : n + 1], im[m : m + 1, n : n + 1], D)
        return FactorizationResult(ok=False, p=None, q=None, violation=(m, n, res))

    def snapped(re, im):  # p or q with its first entry exactly 1
        re, im = re.copy(), im.copy()
        re[0], im[0] = D, 0
        return _entries(re, im, D)

    return FactorizationResult(
        ok=True,
        p=snapped(d.re[:, 0], d.im[:, 0]),
        q=snapped(d.re[0], d.im[0]),
        violation=None,
    )


#: Denominators of the seeded generators: coefficients n/d with d <= 4
#: are numerators over lcm(1, 2, 3, 4) = 12, points are tenths.
_COEFF_DENOM, _POINT_DENOM = 12, 10


def _random_numerators(rng: random.Random, shape) -> tuple[np.ndarray, np.ndarray]:
    """Random Gaussian rationals (n/d, n in -9..9, d in 1..4; real part
    first, numerator before denominator, in C order) as numerators over 12."""
    re, im = np.empty(shape, dtype=object), np.empty(shape, dtype=object)
    for i in np.ndindex(shape):
        re[i] = rng.randint(-9, 9) * (_COEFF_DENOM // rng.randint(1, 4))
        im[i] = rng.randint(-9, 9) * (_COEFF_DENOM // rng.randint(1, 4))
    return re, im


def _random_point_parts(rng: random.Random):
    """(re, im, 10) of a random point with |a| <= 2 (rejection sampling)."""
    while True:
        x, y = rng.randint(-20, 20), rng.randint(-20, 20)
        if (x * x + y * y) / _POINT_DENOM**2 <= 4.0:
            return np.array([x], dtype=object), np.array([y], dtype=object), _POINT_DENOM


def random_rank_one_distribution(
    rng: random.Random, degree: int = 8
) -> PointDistribution:
    """Rational point distribution with rank-one coefficients, c_00 = 1."""
    def factor():  # 1 followed by degree random entries
        re, im = _random_numerators(rng, degree)
        return np.concatenate(([_COEFF_DENOM], re)), np.concatenate(([0], im))

    (pr, pi), (qr, qi) = factor(), factor()
    a = _random_point_parts(rng)
    return PointDistribution._from_parts(a, *_outer(pr, pi, qr, qi), _COEFF_DENOM**2)


def random_non_rank_one_distribution(
    rng: random.Random, degree: int = 8
) -> PointDistribution:
    """Rational point distribution with c_00 = 1 whose matrix is not rank one."""
    if degree < 1:
        raise DomainError("a non-rank-one matrix needs degree >= 1")
    shape = (degree + 1, degree + 1)
    while True:
        re, im = _random_numerators(rng, shape)
        re[0, 0], im[0, 0] = _COEFF_DENOM, 0
        a = _random_point_parts(rng)
        dr, di = _factor_defect(re, im, _COEFF_DENOM)
        if dr.any() or di.any():
            return PointDistribution._from_parts(a, re, im, _COEFF_DENOM)
