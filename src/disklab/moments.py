"""Moment tables of compactly supported distributions and their
multiplicative structure.

A point distribution is a finite combination sum c_{jk} D^j Dbar^k delta_a
of Wirtinger derivatives of a Dirac mass. Pairing it against the centered
monomial (z-a)^m conj(z-a)^n gives (-1)^{m+n} m! n! c_{mn}; raw moments
<u, z^j conj(z)^k> follow by binomial expansion around the support point.

The multiplicative factorization M[j][k] = M[j][0] M[0][k] holds exactly
when the coefficient matrix factors as c_{jk} = c_{j0} c_{0k} with
c_{00} = 1, and fails for every table of rank two or more. The same
rank-one structure makes the antisymmetrized two-variable expression

    E(j,k,m,n) = M[j+1][m] M[k][n] + M[k+1][m] M[j][n]
               - M[j][m] M[k+1][n] - M[k][m] M[j+1][n]

vanish identically; ``tensor_diag_check`` sweeps it over all index tuples.

When the support point and every coefficient are rational (including
rational real and imaginary parts), all tables are computed over Gaussian
rationals and the checks certify exact zeros instead of small residuals;
otherwise double precision is used throughout.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DomainError,
    InconsistentTableError,
    NotWeaklyMultiplicativeError,
)
from .quadrature import DiskGrid, _check_finite
from .weights import Weight

_C00_SNAP_TOL = 1e-9
_FACTOR_TOL = 1e-12


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers are not needed here")
        acc = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> float:
        return math.sqrt(float(self.abs2()))

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        return other is not None and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

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


def _as_entry(v) -> Entry:
    exact = _coerce(v)
    return exact if exact is not None else complex(v)


def _conj(v: Entry) -> Entry:
    return v.conjugate()


def _abs(v: Entry) -> float:
    return abs(v)


class PointDistribution:
    """Support point a and coefficient matrix c of a point distribution.

    Coefficients may be numbers or (when both the point and every entry
    are int/Fraction/GaussianRational) exact Gaussian rationals, in which
    case all derived moment tables stay exact.
    """

    def __init__(self, point, coeffs: Sequence[Sequence]):
        rows = [list(row) for row in coeffs]
        if not rows or not rows[0]:
            raise DomainError("coefficient matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DomainError("coefficient matrix must be rectangular")
        point = _as_entry(point)
        entries = [[_as_entry(v) for v in row] for row in rows]
        self.is_exact = isinstance(point, GaussianRational) and all(
            isinstance(v, GaussianRational) for row in entries for v in row
        )
        if not self.is_exact:
            # mixed exact/float data degrades uniformly to complex, so all
            # later arithmetic stays within one number type
            point = complex(point)
            entries = [[complex(v) for v in row] for row in entries]
        self.point = point
        self.coeffs = tuple(tuple(row) for row in entries)

    @property
    def degree(self) -> tuple[int, int]:
        return (len(self.coeffs) - 1, len(self.coeffs[0]) - 1)

    @property
    def is_zero(self) -> bool:
        return all(not _nonzero(v) for row in self.coeffs for v in row)


def _nonzero(v: Entry) -> bool:
    if isinstance(v, GaussianRational):
        return bool(v)
    return v != 0


@dataclass(frozen=True)
class MomentTable:
    """Square table M[j][k] = <u, z^j conj(z)^k> for j, k <= order."""

    entries: tuple[tuple[Entry, ...], ...]
    order: int
    provenance: str

    def __post_init__(self):
        if len(self.entries) != self.order + 1 or any(
            len(row) != self.order + 1 for row in self.entries
        ):
            raise DomainError("moment table shape does not match its order")

    @property
    def is_exact(self) -> bool:
        return all(
            isinstance(v, GaussianRational) for row in self.entries for v in row
        )

    def to_complex_array(self) -> np.ndarray:
        return np.array(
            [[complex(v) for v in row] for row in self.entries], dtype=complex
        )

    def to_json_dict(self) -> dict:
        arr = self.to_complex_array()
        return {
            "order": self.order,
            "re": arr.real.tolist(),
            "im": arr.imag.tolist(),
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "MomentTable":
        re = data["re"]
        im = data["im"]
        entries = tuple(
            tuple(complex(a, b) for a, b in zip(rrow, irow))
            for rrow, irow in zip(re, im)
        )
        return cls(entries=entries, order=data["order"], provenance=data["provenance"])


def centered_moments(d: PointDistribution, order: int) -> list[list[Entry]]:
    """Pairings <u, (z-a)^m conj(z-a)^n> = (-1)^{m+n} m! n! c_{mn}."""
    zero: Entry = GaussianRational(0) if d.is_exact else 0j
    dj, dk = d.degree
    out = []
    for m in range(order + 1):
        row = []
        for n in range(order + 1):
            if m <= dj and n <= dk:
                sign = -1 if (m + n) % 2 else 1
                row.append(
                    (sign * math.factorial(m) * math.factorial(n)) * d.coeffs[m][n]
                )
            else:
                row.append(zero)
        out.append(row)
    return out


def point_moments(d: PointDistribution, order: int) -> MomentTable:
    """Raw moments of a point distribution by binomial recentering.

    Exact over Gaussian rationals whenever the distribution data is
    rational; double precision otherwise.
    """
    if order < 0:
        raise DomainError("order must be nonnegative")
    centered = centered_moments(d, order)
    a = d.point
    abar = _conj(a)
    one: Entry = GaussianRational(1) if d.is_exact else 1.0 + 0j
    apow = [one]
    abarpow = [one]
    for _ in range(order):
        apow.append(apow[-1] * a)
        abarpow.append(abarpow[-1] * abar)

    zero: Entry = GaussianRational(0) if d.is_exact else 0j
    rows = []
    for j in range(order + 1):
        row = []
        for k in range(order + 1):
            acc = zero
            for m in range(j + 1):
                cjm = math.comb(j, m)
                for n in range(k + 1):
                    c = centered[m][n]
                    if not _nonzero(c):
                        continue
                    term = apow[j - m] * abarpow[k - n] * c
                    acc = acc + (cjm * math.comb(k, n)) * term
            row.append(acc)
        rows.append(tuple(row))
    return MomentTable(entries=tuple(rows), order=order, provenance="point")


def dirac_table(point, order: int) -> MomentTable:
    """Moments of a unit Dirac mass: M[j][k] = a^j conj(a)^k."""
    return point_moments(PointDistribution(point, [[_one_like(point)]]), order)


def _one_like(point) -> Entry:
    return GaussianRational(1) if _coerce(point) is not None else 1.0 + 0j


def atoms_table(
    atoms: Sequence[tuple[complex, float]], order: int, provenance: str = "point"
) -> MomentTable:
    """Moments of a finite positive combination of Dirac masses."""
    if order < 0:
        raise DomainError("order must be nonnegative")
    rows = []
    for j in range(order + 1):
        row = []
        for k in range(order + 1):
            acc = 0j
            for p, m in atoms:
                p = complex(p)
                acc += m * p**j * np.conj(p) ** k
            row.append(complex(acc))
        rows.append(tuple(row))
    return MomentTable(entries=tuple(rows), order=order, provenance=provenance)


#: Moment matrices ``disk_moments`` keeps (a verify run uses two).
_MOMENT_MEMO_SIZE = 4
_moment_memo: list[tuple[Weight, DiskGrid, np.ndarray]] = []


def disk_moments(w: Weight, grid: DiskGrid, order: int) -> np.ndarray:
    """W[j][k] = sum_i omega_i w(z_i) z_i^j conj(z_i)^k on the grid, j, k <= order.

    The rule ``integrate`` applies, aliasing included, ring by ring: with
    one evaluation of the weight, a ring of m nodes r u_t, u_t =
    exp(2 pi i (t + 1/2) / m), gives S_r(d) = sum_t w(r u_t) u_t^d from one
    DFT, and W[j][k] = sum_r (omega_r / m) r^(j+k) S_r(j - k) accumulates in
    ring order with elementwise numpy (no BLAS), so it is bit-reproducible.
    Memoised per (weight, grid) object pair; a lower order is a read-only
    view. A non-finite weight value raises SingularIntegrandError.
    """
    if order < 0:
        raise DomainError("order must be nonnegative")
    if sum(grid.ring_counts) != grid.size:
        raise DomainError("disk_moments needs the grid's ring layout (ring_counts)")
    for mw, mg, W in _moment_memo:
        if mw is w and mg is grid and W.shape[0] > order:
            return W[: order + 1, : order + 1]
    vals = w.eval_many(grid.nodes)
    _check_finite(vals, grid.nodes)
    n, ds = np.arange(order + 1), np.arange(-order, order + 1)
    toeplitz = n[:, None] - n[None, :] + order  # position of d = j - k in ds
    W = np.zeros((order + 1, order + 1), dtype=complex)
    for start, m in zip(np.cumsum((0,) + grid.ring_counts[:-1]), grid.ring_counts):
        # unnormalised inverse DFT: sum_t w_t exp(2 pi i d t / m)
        S = np.fft.ifft(vals[start : start + m], norm="forward")[ds % m]
        S *= grid.weights[start] * np.exp(1j * np.pi * ds / m)
        rp = abs(grid.nodes[start]) ** n
        W += (rp[:, None] * rp[None, :]) * S[toeplitz]
    W.setflags(write=False)
    others = [e for e in _moment_memo if e[0] is not w or e[1] is not grid]
    _moment_memo[:] = [(w, grid, W)] + others[: _MOMENT_MEMO_SIZE - 1]
    return W


def measure_moments(w: Weight, grid: DiskGrid, order: int) -> MomentTable:
    """Moments integral(z^j conj(z)^k w dA) of the weight: ``disk_moments`` as a table."""
    return MomentTable(
        entries=tuple(map(tuple, disk_moments(w, grid, order).tolist())),
        order=order,
        provenance=f"measure:r{grid.radial_order}a{grid.angular_order}",
    )


@dataclass(frozen=True)
class WeakMultReport:
    passes: bool
    worst: tuple[int, int]
    residual: float
    tolerance: float


def weak_mult_check(M: MomentTable, tol: float = 0.0) -> WeakMultReport:
    """Residuals of the factorization M[j][k] = M[j][0] M[0][k].

    On exact tables the differences are formed in rational arithmetic, so
    a residual of 0.0 certifies exact factorization. Ties on the worst
    residual resolve to the lexicographically smallest index pair.
    """
    worst = (0, 0)
    worst_res = -1.0
    for j in range(M.order + 1):
        for k in range(M.order + 1):
            diff = M.entries[j][k] - M.entries[j][0] * M.entries[0][k]
            res = _abs(diff)
            if res > worst_res:
                worst_res = res
                worst = (j, k)
    return WeakMultReport(
        passes=worst_res <= tol, worst=worst, residual=worst_res, tolerance=tol
    )


@dataclass(frozen=True)
class TensorDiagReport:
    passes: bool
    worst: tuple[int, int, int, int]
    residual: float
    tolerance: float


def tensor_diag_check(M: MomentTable, tol: float = 0.0) -> TensorDiagReport:
    """Sweep the antisymmetrized rank-one identity over all index tuples.

    E(j,k,m,n) uses entries up to row j+1 and k+1, so j, k range over
    0..order-1 and m, n over 0..order. Requires order >= 1. Exact tables
    are swept over common-denominator Gaussian integers (no per-operation
    gcd reduction), which keeps the full order-8 sweep fast while still
    certifying exact zeros.
    """
    if M.order < 1:
        raise DomainError("tensor_diag_check needs a table of order >= 1")
    if M.is_exact:
        return _tensor_diag_exact(M, tol)
    E = M.entries
    worst = (0, 0, 0, 0)
    worst_res = -1.0
    for j in range(M.order):
        for k in range(M.order):
            for m in range(M.order + 1):
                for n in range(M.order + 1):
                    val = (
                        E[j + 1][m] * E[k][n]
                        + E[k + 1][m] * E[j][n]
                        - E[j][m] * E[k + 1][n]
                        - E[k][m] * E[j + 1][n]
                    )
                    res = _abs(val)
                    if res > worst_res:
                        worst_res = res
                        worst = (j, k, m, n)
    return TensorDiagReport(
        passes=worst_res <= tol, worst=worst, residual=worst_res, tolerance=tol
    )


def _tensor_diag_exact(M: MomentTable, tol: float) -> TensorDiagReport:
    n_idx = M.order + 1
    denom = 1
    for row in M.entries:
        for v in row:
            denom = math.lcm(denom, v.re.denominator, v.im.denominator)
    ints = [
        [(int(v.re * denom), int(v.im * denom)) for v in row] for row in M.entries
    ]

    # product pool over Gaussian integers: P[a][m][b][n] = T[a][m] * T[b][n]
    def gmul(u, v):
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    pool: dict[tuple[int, int, int, int], tuple[int, int]] = {}

    def prod(a, m, b, n):
        key = (a, m, b, n)
        got = pool.get(key)
        if got is None:
            got = gmul(ints[a][m], ints[b][n])
            pool[key] = got
        return got

    worst = (0, 0, 0, 0)
    worst_sq = -1
    for j in range(M.order):
        for k in range(M.order):
            for m in range(n_idx):
                for n in range(n_idx):
                    t1 = prod(j + 1, m, k, n)
                    t2 = prod(k + 1, m, j, n)
                    t3 = prod(j, m, k + 1, n)
                    t4 = prod(k, m, j + 1, n)
                    re = t1[0] + t2[0] - t3[0] - t4[0]
                    im = t1[1] + t2[1] - t3[1] - t4[1]
                    sq = re * re + im * im
                    if sq > worst_sq:
                        worst_sq = sq
                        worst = (j, k, m, n)
    residual = math.sqrt(Fraction(worst_sq, denom**4)) if worst_sq else 0.0
    return TensorDiagReport(
        passes=residual <= tol, worst=worst, residual=residual, tolerance=tol
    )


@dataclass(frozen=True)
class FactorizationResult:
    ok: bool
    p: Optional[tuple[Entry, ...]]
    q: Optional[tuple[Entry, ...]]
    violation: Optional[tuple[int, int, float]]
    zero_distribution: bool = False


def factorize(d: PointDistribution) -> FactorizationResult:
    """Recover p_j = c_{j0} and q_k = c_{0k} from a rank-one table.

    Succeeds iff c_{mn} = c_{m0} c_{0n} holds for every entry (exactly in
    rational arithmetic, within 1e-12 otherwise); on failure the first
    violated index pair is reported. c_{00} must snap to 0 or 1 within
    1e-9; a vanishing c_{00} with any other nonzero entry is inconsistent,
    while the all-zero matrix is the zero distribution.
    """
    c = d.coeffs
    c00 = c[0][0]
    near_one = _abs(c00 - _one_entry(d)) <= _C00_SNAP_TOL
    near_zero = _abs(c00) <= _C00_SNAP_TOL
    if not near_one and not near_zero:
        raise NotWeaklyMultiplicativeError(
            f"c_00 = {c00!r} is not 0 or 1 within {_C00_SNAP_TOL}"
        )
    if near_zero:
        if d.is_zero:
            return FactorizationResult(
                ok=True, p=(), q=(), violation=None, zero_distribution=True
            )
        raise InconsistentTableError(
            "c_00 = 0 forces the zero distribution, but other entries are nonzero"
        )
    dj, dk = d.degree
    # c_00 snaps to 1, so p_0 = q_0 = 1 and the first row and column
    # factor trivially; only interior entries can violate the identity.
    for m in range(1, dj + 1):
        for n in range(1, dk + 1):
            diff = c[m][n] - c[m][0] * c[0][n]
            res = _abs(diff)
            exact = isinstance(diff, GaussianRational)
            if (exact and _nonzero(diff)) or (not exact and res > _FACTOR_TOL):
                return FactorizationResult(
                    ok=False, p=None, q=None, violation=(m, n, res)
                )
    one = _one_entry(d)
    p = (one,) + tuple(c[m][0] for m in range(1, dj + 1))
    q = (one,) + tuple(c[0][n] for n in range(1, dk + 1))
    return FactorizationResult(ok=True, p=p, q=q, violation=None)


def _one_entry(d: PointDistribution) -> Entry:
    return GaussianRational(1) if d.is_exact else 1.0 + 0j


def rank_one_coeffs(
    p: Sequence, q: Sequence
) -> list[list[Entry]]:
    """Outer-product coefficient matrix c_{jk} = p_j q_k."""
    ps = [_as_entry(v) for v in p]
    qs = [_as_entry(v) for v in q]
    return [[pj * qk for qk in qs] for pj in ps]


def _random_fraction(rng: random.Random, num_bound: int = 9, den_bound: int = 4) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def _random_gaussian_rational(rng: random.Random) -> GaussianRational:
    return GaussianRational(_random_fraction(rng), _random_fraction(rng))


def random_point(rng: random.Random, modulus_bound: float = 2.0) -> GaussianRational:
    """Rational point with |a| <= modulus_bound (rejection sampling)."""
    while True:
        a = GaussianRational(
            Fraction(rng.randint(-20, 20), 10), Fraction(rng.randint(-20, 20), 10)
        )
        if float(a.abs2()) <= modulus_bound**2:
            return a


def random_rank_one_distribution(
    rng: random.Random, degree: int = 8, modulus_bound: float = 2.0
) -> PointDistribution:
    """Rational point distribution with rank-one coefficients, c_00 = 1."""
    p = [GaussianRational(1)] + [
        _random_gaussian_rational(rng) for _ in range(degree)
    ]
    q = [GaussianRational(1)] + [
        _random_gaussian_rational(rng) for _ in range(degree)
    ]
    return PointDistribution(
        random_point(rng, modulus_bound), rank_one_coeffs(p, q)
    )


def random_non_rank_one_distribution(
    rng: random.Random, degree: int = 8, modulus_bound: float = 2.0
) -> PointDistribution:
    """Rational point distribution with c_00 = 1 whose matrix is not rank one."""
    if degree < 1:
        raise DomainError("a non-rank-one matrix needs degree >= 1")
    while True:
        rows = [
            [_random_gaussian_rational(rng) for _ in range(degree + 1)]
            for _ in range(degree + 1)
        ]
        rows[0][0] = GaussianRational(1)
        d = PointDistribution(random_point(rng, modulus_bound), rows)
        c = d.coeffs
        rank_one = all(
            c[m][n] == c[m][0] * c[0][n]
            for m in range(degree + 1)
            for n in range(degree + 1)
        )
        if not rank_one:
            return d
