"""Deterministic quadrature for normalized area measure on the unit disk
and normalized arclength on the unit circle.

Disk grids
----------
The radial direction uses Gauss-Legendre nodes on [0, 1] weighted to
integrate 2 r dr, so the full rule integrates f against dA with
integral(1 dA) = 1. Radial nodes never include r = 1 or r = 0.

The angular direction uses uniform half-offset angles, but the number of
angular nodes is graded per ring: a ring at radius r resolves angular
frequencies up to m only as long as r^m (or (r/s)^m for a singularity at
radius s) stays negligible. Rings close to the boundary, or close to a
declared singular radius, therefore get their angular count enlarged so
that the worst aliasing factor stays below exp(-ALIAS_GUARD) ~ 1e-8.
A plain tensor rule would stall near 1e-2 absolute error on integrands
with a boundary pole, far short of what the verification suites need;
the graded rule reaches ~1e-9 at the default orders at roughly 10x the
node count.

Determinism
-----------
Node order is fixed (radial-major, each ring listed in angular order) and
reductions use numpy's pairwise summation on that fixed order for disk
grids and exact compensated summation (math.fsum) for circle grids.
Neither reduction is threaded, so results are bit-reproducible across
runs and thread counts. The grid-wide kernels (weight evaluation and
Berezin sums) work in blocks of the fixed ``NODE_BLOCK`` nodes, and the
moment matrix in rings: elementwise values do not depend on the
blocking, and a blocked reduction adds its block sums in the same order
whatever the batch. Their temporaries are sized by a block or a ring,
not by the grid, so no layer builds node-sized arrays beyond the ones
it keeps. Circle grids with an even node count are built antipodally
(second half is the exact negation of the first), so full period sums
of odd integrands cancel exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DomainError, SingularIntegrandError

#: Aliasing guard: per-ring angular counts are chosen so the geometric
#: aliasing factor of a pole at the boundary (or at a declared singular
#: radius) is at most exp(-ALIAS_GUARD) ~ 1e-8.
ALIAS_GUARD = 18.42

#: Node budget of a disk grid: over ten times the largest grid the tests and
#: the default command line build ((240, 512), ~1.2e6 nodes); ~0.4 GiB.
MAX_DISK_NODES = 2**24

#: Entry budget of ``moments.tensor_diag_check``'s order^2 (order+1)^2 sweep,
#: refused before it allocates: admits order 31 (~8 MB per float array).
MAX_TENSOR_ENTRIES = 2**20

#: Nodes per block of the grid-wide kernels (weight evaluation, Berezin
#: sums): a fixed size, so a value never depends on the batch it is part
#: of. At 25 Berezin points a block's two working arrays (0.8 MB each)
#: stay in a 4 MiB L2 cache.
NODE_BLOCK = 4096


@dataclass(frozen=True)
class DiskGrid:
    """Quadrature nodes and weights for normalized area measure on the disk."""

    nodes: np.ndarray
    weights: np.ndarray
    radial_order: int
    angular_order: int
    singular_radii: tuple[float, ...] = ()
    ring_counts: tuple[int, ...] = field(default=(), repr=False)

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def size(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class CircleGrid:
    """Uniform nodes on the unit circle for normalized arclength."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int
    offset: float = 0.0

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def size(self) -> int:
        return self.nodes.size


Grid = Union[DiskGrid, CircleGrid]


def _ring_angles(count: int, offset: float) -> np.ndarray:
    """Unit-modulus nodes at angles 2 pi (j + offset) / count.

    For even counts the second half is the exact negation of the first,
    which makes full-period sums of odd powers cancel without roundoff.
    """
    if count % 2 == 0:
        half = np.exp(2j * np.pi * (np.arange(count // 2) + offset) / count)
        return np.concatenate([half, -half])
    return np.exp(2j * np.pi * (np.arange(count) + offset) / count)


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _disk_rings(
    radial_order: int,
    angular_order: int,
    singular_radii: Sequence[float],
    alias_guard: float,
) -> tuple[list[float], list[tuple[float, float, int]]]:
    """Segment breaks and (radius, radial weight, angular count) per ring."""
    if radial_order < 1:
        raise DomainError(f"radial_order must be >= 1, got {radial_order}")
    if angular_order < 4:
        raise DomainError(f"angular_order must be >= 4, got {angular_order}")
    guarded = [1.0]
    for s in singular_radii:
        if not 0.0 <= s < 1.0:
            raise DomainError(f"singular radius must lie in [0, 1), got {s}")
        if s > 0.0:
            guarded.append(float(s))

    breaks = sorted(set(guarded) - {1.0})
    segments = list(zip([0.0] + breaks, breaks + [1.0]))
    per_segment = max(1, radial_order // len(segments))
    x, w = _gauss_legendre(per_segment)

    rings = []
    for lo, hi in segments:
        r = lo + (hi - lo) * (x + 1.0) / 2.0
        wr = w * (hi - lo) * r  # (w (hi-lo)/2) * (2 r): integrates 2 r dr
        for ri, wi in zip(r, wr):
            log_r = math.log(ri)
            dist = min(abs(log_r - math.log(s)) for s in guarded)
            m = max(angular_order, math.ceil(alias_guard / dist))
            m += m % 2
            rings.append((ri, wi, m))
    return breaks, rings


def disk_grid_size(
    radial_order: int, angular_order: int, singular_radii: Sequence[float] = ()
) -> int:
    """Node count ``make_disk_grid`` would allocate, computed without allocating."""
    _, rings = _disk_rings(radial_order, angular_order, singular_radii, ALIAS_GUARD)
    return sum(m for _, _, m in rings)


def make_disk_grid(
    radial_order: int,
    angular_order: int,
    singular_radii: Sequence[float] = (),
    alias_guard: float = ALIAS_GUARD,
) -> DiskGrid:
    """Build a graded polar grid for the normalized area measure.

    Parameters
    ----------
    radial_order : total radial budget (>= 1): the number of
        Gauss-Legendre rings, split evenly across the segments delimited
        by the interior singular radii.
    angular_order : baseline angular count per ring (>= 4).
    singular_radii : radii in (0, 1) at which integrands may blow up.
        Each one becomes a radial segment boundary (angular means of
        integrands with an interior pole are continuous but kinked
        there, which would degrade a single Gauss rule to low order) and
        a grading target for nearby rings. The boundary radius 1 is
        always guarded.
    alias_guard : log of the reciprocal aliasing tolerance.

    Raises DomainError before allocating when the rule needs more than
    ``MAX_DISK_NODES`` nodes, as a singular radius very close to 1 does.
    """
    breaks, rings = _disk_rings(
        radial_order, angular_order, singular_radii, alias_guard
    )
    size = sum(m for _, _, m in rings)
    if size > MAX_DISK_NODES:
        raise DomainError(f"disk grid needs {size} nodes, over the budget {MAX_DISK_NODES}")
    nodes, weights = np.empty(size, dtype=complex), np.empty(size)
    start = 0
    for r, w, m in rings:  # each ring written in place, no per-ring list
        np.multiply(r, _ring_angles(m, 0.5), out=nodes[start : start + m])
        weights[start : start + m] = w / m
        start += m
    return DiskGrid(
        nodes=nodes,
        weights=weights,
        radial_order=radial_order,
        angular_order=angular_order,
        singular_radii=tuple(breaks),
        ring_counts=tuple(m for _, _, m in rings),
    )


def make_circle_grid(order: int, offset: float = 0.0) -> CircleGrid:
    """Uniform arclength rule with `order` nodes e^{2 pi i (j+offset)/order}."""
    if order < 4:
        raise DomainError(f"circle order must be >= 4, got {order}")
    if not 0.0 <= offset < 1.0:
        raise DomainError(f"offset must lie in [0, 1), got {offset}")
    return CircleGrid(
        nodes=_ring_angles(order, offset),
        weights=np.full(order, 1.0 / order),
        order=order,
        offset=offset,
    )


def _evaluate_on(f: Callable, nodes: np.ndarray) -> np.ndarray:
    """Evaluate f on all nodes, vectorized when f supports arrays."""
    try:
        vals = np.asarray(f(nodes))
        if vals.shape != nodes.shape:
            raise TypeError
    except (TypeError, ValueError, AttributeError):
        vals = np.array([f(z) for z in nodes])
    return vals


def _check_finite(vals: np.ndarray, nodes: np.ndarray) -> None:
    finite = np.isfinite(vals.real)
    if np.iscomplexobj(vals):
        finite &= np.isfinite(vals.imag)
    if not finite.all():
        i = int(np.argmin(finite))
        raise SingularIntegrandError(
            f"integrand is not finite at node {nodes[i]!r} (index {i})"
        )


def integrate(grid: Grid, f: Callable) -> complex | float:
    """Weighted sum of f over the grid nodes, in fixed node order.

    f may be a scalar function of a complex point or accept a complex
    ndarray. Non-finite values raise SingularIntegrandError naming the
    offending node. The reduction is deterministic: numpy pairwise
    summation for disk grids, exact fsum for circle grids.
    """
    vals = _evaluate_on(f, grid.nodes)
    _check_finite(vals, grid.nodes)
    if isinstance(grid, CircleGrid):
        # Uniform weights: sum first, divide once. fsum makes exact
        # cancellations (antipodal node pairs) come out as exact zeros.
        m = grid.size
        if np.iscomplexobj(vals):
            return complex(
                math.fsum(vals.real) / m, math.fsum(vals.imag) / m
            )
        return math.fsum(float(v) for v in vals) / m
    prods = grid.weights * vals
    if np.iscomplexobj(vals):
        return complex(np.sum(prods))
    return float(np.sum(prods))


def richardson_check(
    grid_small: Grid, grid_large: Grid, f: Callable
) -> tuple[complex | float, float]:
    """Fine-grid value together with |fine - coarse| as an error proxy.

    Requires the large grid to at least double every order of the small
    one, so the difference is a meaningful refinement diagnostic.
    """
    if isinstance(grid_small, DiskGrid) != isinstance(grid_large, DiskGrid):
        raise DomainError("richardson_check needs two grids of the same kind")
    if isinstance(grid_small, DiskGrid):
        ok = (
            grid_large.radial_order >= 2 * grid_small.radial_order
            and grid_large.angular_order >= 2 * grid_small.angular_order
        )
    else:
        ok = grid_large.order >= 2 * grid_small.order
    if not ok:
        raise DomainError("large grid must at least double the small grid's orders")
    fine = integrate(grid_large, f)
    coarse = integrate(grid_small, f)
    return fine, abs(fine - coarse)
