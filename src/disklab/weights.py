"""Weight catalog on the unit disk.

Every weight with a known charge is an ``AtomicWeight``: a finite
positive combination of boundary kernels (1 - |z|^2) / |z - zeta|^2 and
scaled logarithmic kernels log |(1 - conj(zeta) z) / (z - zeta)|, one per
atom, interior or boundary. It carries its ``atoms``, which are what the
moment and kernel-model pipelines branch on, and its atoms are its poles.
A point is on the circle when ``_on_circle`` says so; every other pole
inside the disk is interior. The two catalog families are one-atom
subclasses:

* ``HarmonicBoundary(zeta)``: one boundary atom of unit mass at |zeta| = 1.
  Harmonic in the disk, unit mass against dA, singular at zeta.
* ``LogGreen(zeta)``: one interior atom of mass (1 - |zeta|^2)/2 at
  |zeta| < 1. Superharmonic, logarithmic pole at zeta.

``Scaled`` multiplies any weight by a positive constant (and its atoms'
masses alike), and ``Custom`` wraps an arbitrary pointwise function
together with its singular points; its charge is unknown (``atoms`` None).
Its mass is its ring pass's W[0][0]: ``l1_norm`` and ``normalize`` live
in ``moments`` beside ``disk_moments``; ``_on_grid`` keeps what it derives.

Superharmonicity is tested directly through the defining circle-mean
inequality on one fixed lattice of 10 centers and 5 radii
(``superharmonic_test``), each circle mean an exact fsum over 256 nodes.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    SingularIntegrandError,
    SingularPointError,
    WeightSpecError,
)
from .quadrature import NODE_BLOCK, DiskGrid, _check_finite, _unit_nodes, make_disk_grid

_UNIMODULAR_TOL = 1e-12
_UNIT_ROUNDOFF = 4 * 2.0**-52  # |z/|z|| lies within one ulp of 1


def _on_circle(s: complex) -> bool:
    """The one circle test for a pole or atom: ||s| - 1| <= _UNIMODULAR_TOL.
    harm:1,1's pole, |zeta| = 1 - 1.1e-16, is on the circle."""
    return abs(abs(s) - 1.0) <= _UNIMODULAR_TOL


def _interior(points) -> list[complex]:
    """The points inside the disk and off the circle."""
    return [s for s in points if abs(s) < 1.0 and not _on_circle(s)]


def _spec_number(x: float) -> str:
    """x as a label writes it: the short ``:g`` form when it reads back as x."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


class Weight:
    """A nonnegative integrable function on the unit disk.

    Evaluation has two levels: ``eval_many`` walks the flattened input
    once, ``NODE_BLOCK`` nodes at a time, into one float output, and each
    subclass gives only ``_value_block``, its formula on a 1-D complex
    block. ``singularities`` lists the points where the weight blows up; a
    block holding a node equal to one raises SingularPointError before it
    is evaluated, and grids for this weight should guard the corresponding
    radii (see ``singular_radii``). A node near a pole, however near, is
    evaluated: a value that overflows is an inf, which the grid passes refuse.
    """

    label: str = "weight"
    is_harmonic: bool = False
    singularities: tuple[complex, ...] = ()
    analytic_mass: Optional[float] = None  # closed-form L1 norm, when known
    # (point, mass) of each atom of the weight's charge, when known
    atoms: Optional[tuple[tuple[complex, float], ...]] = None

    def _value_block(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        out = np.empty(flat.shape)
        # next to a pole a quotient can overflow to inf, and a complex one to
        # inf + nan*1j: the value is an inf, which callers refuse
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, flat.size, NODE_BLOCK):
                block = flat[start : start + NODE_BLOCK]
                for s in self.singularities:
                    if (block == s).any():
                        raise SingularPointError(f"{self.label} evaluated at singular point {s!r}")
                out[start : start + NODE_BLOCK] = self._value_block(block)
        return out.reshape(z.shape)

    def __call__(self, z: complex) -> float:
        return float(self.eval_many(np.asarray([z]))[0])

    @property
    def singular_radii(self) -> tuple[float, ...]:
        """Moduli of interior singular points, for grid construction."""
        return tuple(sorted({abs(s) for s in _interior(self.singularities)}))


class AtomicWeight(Weight):
    """The weight of a finite positive charge: a sum of one kernel per atom.

    An interior atom (p, m) contributes m * 2/(1-|p|^2) *
    log|(1 - conj(p) z)/(z - p)| and a boundary atom (p, m) contributes
    m * (1-|z|^2)/|z - p|^2, so the mass against dA is the total atom mass.
    Interior atoms lie strictly inside the disk and boundary atoms pass
    ``_on_circle``; every mass is positive and finite. A NaN or infinite
    point or mass fails these tests, so it is a DomainError too.
    ``atoms`` lists (point, mass), interior atoms first; the weight is
    harmonic when no atom is interior. No atoms give the zero weight.
    """

    def __init__(self, *, interior=(), boundary=(), label: str):
        for p, _ in interior:
            if not abs(p) < 1.0:
                raise DomainError(f"interior atom {p!r} is not inside the disk")
        for p, _ in boundary:
            if not _on_circle(p):
                raise DomainError(f"boundary atom {p!r} is not on the circle")
        for _, m in (*interior, *boundary):
            if not 0.0 < m < math.inf:
                raise DomainError(f"atom masses must be positive and finite, got {m!r}")
        interior = tuple((complex(p), float(m)) for p, m in interior)
        boundary = tuple((complex(p), float(m)) for p, m in boundary)
        self.atoms = interior + boundary
        self.singularities = tuple(p for p, _ in self.atoms)
        self.is_harmonic = not interior
        self.analytic_mass = math.fsum(m for _, m in interior) + math.fsum(
            m for _, m in boundary
        )
        self.label = label
        # left to right, m * 2.0 is exact: a LogGreen multiplier is exactly 1.0
        self._log_terms = tuple((p, m * 2.0 / (1.0 - abs(p) ** 2)) for p, m in interior)
        self._boundary = boundary

    def _value_block(self, z: np.ndarray) -> np.ndarray:
        total = np.zeros(z.shape)  # no kernel is -0.0, so 0.0 + it keeps its bits
        for p, c in self._log_terms:
            term = np.log(np.abs((1.0 - np.conj(p) * z) / (z - p)))
            over = ~np.isfinite(term)
            if over.any():  # within about 1e-308 of p the quotient overflows, not its log
                near = z[over]
                term[over] = np.log(np.abs(1.0 - np.conj(p) * near)) - np.log(np.abs(near - p))
            total += c * term
        for p, m in self._boundary:
            total += m * ((1.0 - np.abs(z) ** 2) / np.abs(z - p) ** 2)
        return total


class HarmonicBoundary(AtomicWeight):
    """Boundary-pole harmonic weight (1 - |z|^2) / |z - zeta|^2, |zeta| = 1."""

    def __init__(self, zeta: complex):
        self.zeta = complex(zeta)
        super().__init__(
            boundary=((self.zeta, 1.0),),
            label=f"harm:{_spec_number(self.zeta.real)},{_spec_number(self.zeta.imag)}",
        )


class LogGreen(AtomicWeight):
    """Logarithmic interior-pole weight log |(1 - conj(zeta) z)/(z - zeta)|."""

    def __init__(self, zeta: complex):
        self.zeta = complex(zeta)
        super().__init__(
            interior=((self.zeta, (1.0 - abs(self.zeta) ** 2) / 2.0),),
            label=f"log:{_spec_number(self.zeta.real)},{_spec_number(self.zeta.imag)}",
        )


class Scaled(Weight):
    """A positive multiple c * inner; its atoms are the inner atoms times c."""

    def __init__(self, c: float, inner: Weight):
        c = float(c)
        if not (c > 0.0 and math.isfinite(c)):
            raise DomainError(f"scale factor must be positive and finite, got {c}")
        self.c = c
        self.inner = inner
        self.is_harmonic = inner.is_harmonic
        self.singularities = inner.singularities
        self.label = f"scaled:{_spec_number(c)}:{inner.label}"
        if inner.analytic_mass is not None:
            self.analytic_mass = c * inner.analytic_mass
        if inner.atoms is not None:
            self.atoms = tuple((p, c * m) for p, m in inner.atoms)

    def _value_block(self, z: np.ndarray) -> np.ndarray:
        return self.c * self.inner._value_block(z)


class Custom(Weight):
    """User-supplied pointwise weight with explicit singular points.

    The function gets a 1-D complex array of at most ``NODE_BLOCK`` nodes
    per call, on a grid or not; one that takes no arrays is called node by
    node. No node value is kept, so every ring pass over a grid calls it
    again; the mass is the corner of the pass's moment matrix.
    """

    def __init__(
        self,
        fn: Callable,
        singularities: Sequence[complex] = (),
        label: str = "custom",
        is_harmonic: bool = False,
        analytic_mass: Optional[float] = None,
    ):
        self._fn = fn
        self.singularities = tuple(complex(s) for s in singularities)
        self.label = label
        self.is_harmonic = is_harmonic
        self.analytic_mass = analytic_mass

    def _value_block(self, z: np.ndarray) -> np.ndarray:
        try:
            vals = np.asarray(self._fn(z), dtype=float)
            if vals.shape != z.shape:
                raise TypeError
        except (TypeError, ValueError):
            vals = np.array([float(self._fn(p)) for p in z])
        return vals


def uniform_weight() -> Custom:
    """The constant weight 1 (normalized area measure itself)."""
    return Custom(
        fn=lambda z: np.ones(np.shape(z)),
        label="uniform",
        is_harmonic=True,
        analytic_mass=1.0,
    )


class _GridData:
    """What is derived from one weight on one grid, all of it small: its least
    and largest node value and the largest moment matrix W asked of
    ``disk_moments`` so far, whose corner W[0][0] is its mass and from which
    its Berezin values are read. No node value is kept: the ring pass
    evaluates the weight on the nodes it forms."""

    value_range: Optional[tuple[float, float]] = None
    W: Optional[np.ndarray] = None


def _on_grid(w: Weight, grid: DiskGrid) -> _GridData:
    """The weight's record for the grid, kept on the weight for its lifetime.

    Keyed by the grid's value, not its identity: equal grids share one
    record, which is right because the data depends only on the grid.
    """
    records = vars(w).setdefault("_grid_data", {})
    data = records.get(grid)
    if data is None:
        data = records[grid] = _GridData()
    return data


#: The lattice of ``superharmonic_test``: circles of each radius about each
#: center, all inside the disk (|center| + radius <= 0.8).
_LATTICE_CENTERS = [0j] + [
    complex(0.55 * np.exp(1j * np.pi * (2 * t + 1) / 9)) for t in range(9)
]
_LATTICE_RADII = [0.05, 0.1, 0.15, 0.2, 0.25]
#: A cell whose center or circle comes this close to an interior singularity is skipped.
_LATTICE_CLEARANCE = 0.02


def _circle_mean(w: Weight, center: complex, r: float, u: np.ndarray) -> float:
    """Mean of w over the circle center + r u, u the unit nodes, by exact fsum.

    Antipodal unit nodes cancel exactly, so an odd integrand's mean about
    the origin is an exact zero. A non-finite value raises
    SingularIntegrandError naming its unit node and index; so does a sum
    out of the float range, naming the node count.
    """
    vals = w.eval_many(center + r * u)
    _check_finite(vals, u)
    try:
        return math.fsum(vals) / u.size
    except OverflowError:  # finite values whose sum leaves the float range
        raise SingularIntegrandError(
            f"integrand sum over the {u.size} circle nodes overflows the float range"
        ) from None


def superharmonic_test(w: Weight) -> tuple[float, Optional[tuple[complex, float]]]:
    """The worst margin w(z0) - (mean of w on the circle of radius r about
    z0) over the lattice's cells (z0, r), and the cell where it was found.

    Cells whose center or circle runs into an interior singularity are
    skipped; with no cell left the margin is inf and the cell None. Each
    circle mean is read on 256 nodes (``_circle_mean``), and each center
    is evaluated once, after its first kept circle.
    """
    u = _unit_nodes(256, np.arange(256), 0.0)
    interior = _interior(w.singularities)
    worst_margin, worst_case = math.inf, None
    for c in _LATTICE_CENTERS:
        center = None
        for r in _LATTICE_RADII:
            if any(abs(c - s) <= _LATTICE_CLEARANCE
                   or abs(abs(c - s) - r) <= _LATTICE_CLEARANCE for s in interior):
                continue
            mean = _circle_mean(w, c, r, u)
            if center is None:
                center = w(c)
            margin = center - mean
            if margin < worst_margin:
                worst_margin, worst_case = margin, (c, r)
    return worst_margin, worst_case


def grid_for_weight(
    weight: Weight, radial_order: int, angular_order: int
) -> DiskGrid:
    """Disk grid whose angular grading guards the weight's singular radii."""
    return make_disk_grid(
        radial_order, angular_order, singular_radii=weight.singular_radii
    )


def parse_weight_spec(spec: str) -> Weight:
    """Parse the CLI mini-language for weights.

    Grammar: ``harm:<re>,<im>`` (boundary point, normalized to the circle
    unless it lies on it to roundoff), ``log:<re>,<im>`` (interior point),
    ``scaled:<c>:<spec>``, ``uniform``. The factors of nested ``scaled`` specs
    must multiply, innermost first, to a positive finite number, and a
    ``scaled`` weight's mass must be positive with a finite reciprocal.
    """
    spec = spec.strip()
    if spec == "uniform":
        return uniform_weight()
    head, _, rest = spec.partition(":")
    if head == "harm":
        z = _parse_point(rest, spec)
        if abs(z) == 0.0:
            raise WeightSpecError(f"cannot normalize zero point in {spec!r}")
        # a point on the circle to roundoff (a label's own zeta) is kept as it is
        return HarmonicBoundary(z if abs(abs(z) - 1.0) <= _UNIT_ROUNDOFF else z / abs(z))
    if head == "log":
        z = _parse_point(rest, spec)
        if abs(z) >= 1.0:
            raise WeightSpecError(
                f"log weight point must satisfy |zeta| < 1 in {spec!r}"
            )
        return LogGreen(z)
    if head == "scaled":
        c_str, sep, inner = rest.partition(":")
        if not sep:
            raise WeightSpecError(f"scaled spec needs scaled:<c>:<spec>, got {spec!r}")
        try:
            c = float(c_str)
        except ValueError:
            raise WeightSpecError(f"bad scale factor {c_str!r} in {spec!r}") from None
        if not (c > 0.0 and math.isfinite(c)):
            raise WeightSpecError(
                f"scale factor must be positive and finite in {spec!r}"
            )
        weight = parse_weight_spec(inner)
        # nested factors compose, inner first, into the atoms' masses and the
        # values: 1e308 twice overflows them, 1e-300 twice underflows them to 0
        product = c * _scale_factor(weight)
        if not (product > 0.0 and math.isfinite(product)):
            raise WeightSpecError(
                f"scale factors multiply to {product:g}, not positive and finite, in {spec!r}"
            )
        scaled = Scaled(c, weight)
        # unit-mass normalization multiplies by 1/m: a subnormal factor can
        # round the mass to 0, or leave a mass whose reciprocal overflows
        m = scaled.analytic_mass
        if not (m > 0.0 and math.isfinite(1.0 / m)):
            raise WeightSpecError(
                f"mass {m:g} has no finite reciprocal, so the weight cannot be "
                f"normalized, in {spec!r}"
            )
        return scaled
    raise WeightSpecError(f"unknown weight kind {head!r} in {spec!r}")


def _scale_factor(w: Weight) -> float:
    """Product of the factors of nested ``Scaled`` weights, innermost first."""
    return w.c * _scale_factor(w.inner) if isinstance(w, Scaled) else 1.0


def _parse_point(token: str, spec: str) -> complex:
    parts = token.split(",")
    if len(parts) != 2:
        raise WeightSpecError(f"expected <re>,<im> after kind in {spec!r}")
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise WeightSpecError(f"bad coordinate {token!r} in {spec!r}") from None
    if not math.isfinite(math.hypot(z.real, z.imag)):
        raise WeightSpecError(f"point must have a finite modulus in {spec!r}")
    return z
