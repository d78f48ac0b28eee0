"""Command-line front end: named verification suites and ad-hoc computations.

``verify`` runs one suite (or all) against a weight and emits a report;
``moments``, ``dbr build`` and ``weights info`` emit a weight's moment
table, its kernel model and a summary of its spec. Each command takes only
the flags it reads, and the argparse namespace is the run config: each
flag's ``dest`` is the field the code reads; ``parse_args`` adds the
``weight`` it parsed, once per run, and on ``verify`` the ``tols``. A usage
error prints the usage line of the command it belongs to.

Reports are deterministic: fixed seeds and fixed reduction orders make two
runs of one configuration byte-identical outside the timing fields (each
check's ``elapsed_s`` and the top-level ``timings``). Exit codes: 0 when
every check passes, 1 on any failure, 2 on usage errors, among them an
unwritable ``--out``, a disk grid over the node budget, refused when the
command builds it, and a weight whose values or moment checks overflow
the float range.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
import time
from functools import cached_property
from typing import Callable, NamedTuple, Optional

# hashlib loads OpenSSL (about 3.6 MiB a process) for one 12-character label
# per check; the interpreter's built-in SHA-256 gives the same digests
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import dbr as dbr_mod
from .dirichlet import dilation_report, energy
from .errors import (
    DomainError,
    NotDbrWeightError,
    SingularIntegrandError,
    WeightSpecError,
)
from .moments import (
    atoms_table,
    disk_moments,
    factorize,
    l1_norm,
    measure_moments,
    point_moments,
    random_non_rank_one_distribution,
    random_rank_one_distribution,
    tensor_diag_check,
    weak_mult_check,
)
from .quadrature import MAX_RING_ORDER, integrate
from .series import TaylorSeries
from .weights import (
    grid_for_weight,
    parse_weight_spec,
    superharmonic_test,
)

SCHEMA_VERSION = 1
SUITES = ("moments", "tensor", "dirichlet", "dbr", "isometry")

DEFAULT_TOLS = {
    "weak_mult": 1e-12,
    "tensor": 1e-10,
    "falsification_floor": 0.05,
    "superharmonic": 1e-8,
    "dilation": 1e-8,
    "energy_identity": 1e-9,
    "h_identity": 1e-4,
    "laplacian": 1e-5,
    "phi_consistency": 1e-4,
    "b_contraction": 1e-6,
    "outer_consistency": 1e-6,
    "l1_consistency": 1e-4,
    "h0": 1e-6,
    "isometry": 1e-2,
    "isometry_falsification": 0.1,
}

_SEED_POINT_TABLES = 101
_SEED_NON_RANK_ONE = 202
_SEED_DILATION = 303
_SEED_ISOMETRY = 404
_SEED_TEST_POINTS = 505


class CheckRecord(NamedTuple):
    name: str
    digest: str
    value: Optional[float]  # None when the check crashed before producing one
    tolerance: Optional[float]  # None for informational (always-pass) checks
    passed: bool
    detail: str
    elapsed_s: float


class Report(NamedTuple):
    suite: str
    weight_spec: str
    config: dict
    checks: list[CheckRecord]
    total_elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "weight": self.weight_spec,
            "config": self.config,
            "checks": [c._asdict() for c in self.checks],
            "passed": self.passed,
            "timings": {"total_s": self.total_elapsed_s},
        }

    def to_json(self) -> str:
        return _json_text(self.to_json_dict())

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["suite", "check", "digest", "value", "tolerance", "passed", "detail"]
        )
        for c in self.checks:
            writer.writerow(
                [self.suite, c.name, c.digest, repr(c.value), repr(c.tolerance),
                 c.passed, c.detail]
            )
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"suite {self.suite} on {self.weight_spec}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            value = "n/a" if c.value is None else f"{c.value:.6g}"
            tol = "info" if c.tolerance is None else f"{c.tolerance:.3g}"
            lines.append(
                f"  [{status}] {c.name}: value={value} tol={tol}"
                + (f"  ({c.detail})" if c.detail else "")
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    """The one JSON layout of every report and payload: the schema, sorted keys,
    and no NaN or infinity, which JSON does not have."""
    payload = {"schema": SCHEMA_VERSION, **payload}
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _digest(*parts) -> str:
    blob = "|".join(str(p) for p in parts)
    return sha256(blob.encode()).hexdigest()[:12]


_CEILING, _FLOOR, _INFO = "ceiling", "floor", "info"


class _Check(NamedTuple):
    """One row of the check table.

    ``fn(ctx)`` returns (value, detail), or (value, detail, tol, sense)
    when the weight's route sets another tolerance. ``tol`` is a
    ``DEFAULT_TOLS`` key (overridable with ``--tol``) or a fixed literal.
    The sense is a ceiling (passes when value <= tol), a floor (value > tol),
    or info (always passes, tol None). ``seeds`` join the digest.
    """

    name: str
    suite: str
    seeds: tuple
    tol: str | float | None
    sense: str
    fn: Callable[[_SuiteContext], tuple]


class _SuiteContext:
    """Shared objects of one verify run: the disk grid, built before any check
    so that one over the node budget is a usage error, and the rest lazily."""

    def __init__(self, config: argparse.Namespace):
        self.config = config
        self.weight = config.weight
        self.disk_grid = grid_for_weight(self.weight, config.radial_order,
                                         config.angular_order)

    @cached_property
    def seeded_tables(self):
        """Seeded exact rank-one tables, shared by the moments and tensor suites."""
        rng = random.Random(_SEED_POINT_TABLES)
        order = self.config.order
        return [
            point_moments(random_rank_one_distribution(rng, degree=order), order)
            for _ in range(10)
        ]

    @cached_property
    def unit_atoms(self):
        """``dbr.unit_mass_atoms`` of the configured weight (None without atoms)."""
        return dbr_mod.unit_mass_atoms(self.weight)

    @cached_property
    def measure_table(self):
        """Measure moments of the weight at ``order``, from one ring-DFT pass.

        The pass runs at the largest order the run reads: ``series_order -
        1`` for a weight without atoms (its energies), else the order of
        the h-identity points' Berezin values when the dbr suite runs. The
        table is its corner, bit-identical to a build at that order.
        """
        order = self.config.order
        if self.weight.atoms is None:
            order = max(order, self.config.series_order - 1)
        elif self.config.suite in ("all", "dbr"):
            order = max(order, *map(dbr_mod._berezin_order, _h_identity_points(self.direction)))
        disk_moments(self.weight, self.disk_grid, order)
        return measure_moments(self.weight, self.disk_grid, self.config.order)

    @cached_property
    def weight_table(self):
        """(table, route) of the configured weight: atoms when known, else measure."""
        if self.unit_atoms is not None:
            return atoms_table(self.unit_atoms[1], self.config.order), "atom"
        return self.measure_table, "measure"

    @property
    def direction(self) -> complex:
        """p/|p| of a single nonzero atom p, else 1: test points turn with the pole."""
        atoms = self.unit_atoms[1] if self.unit_atoms is not None else ()
        p = complex(atoms[0][0]) if len(atoms) == 1 else 0j
        return p / abs(p) if p else 1.0

    @cached_property
    def _model_or_error(self):
        """The kernel model, or the exception its one build raised."""
        try:
            return dbr_mod.build_model(self.weight, self.disk_grid,
                                       order=self.config.series_order)
        except Exception as exc:  # surfaces as failed checks, not a crash
            return exc

    def model(self):
        if isinstance(self._model_or_error, Exception):
            raise self._model_or_error
        return self._model_or_error

    def check(self, row: _Check) -> CheckRecord:
        """Run one table row: its verdict is its sense applied to its tolerance.

        An exception becomes a failing record with no value that keeps the
        row's tolerance, resolved before the row runs; a route tolerance
        replaces it only when ``fn`` returns one. A value that is not finite
        (a weight whose moments overflow, say) fails whatever the row's sense
        and is reported as no value, named in the detail, so the report
        stays JSON. The row runs with numpy's overflow and invalid-operation
        warnings off: such a value is the report's to show, not stderr's.
        """
        start = time.perf_counter()
        digest = _digest(row.name, self.config.weight_spec, self.config.order,
                         self.config.radial_order, self.config.angular_order,
                         *row.seeds)
        tols = self.config.tols  # a str tolerance is a key, any other a literal
        tol, sense = tols.get(row.tol, row.tol), row.sense
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                value, detail, *route = row.fn(self)
            if route:
                tol, sense = tols.get(route[0], route[0]), route[1]
            passed = sense == _INFO or (value <= tol if sense == _CEILING else value > tol)
            if value is not None and not math.isfinite(value):
                detail = f"value {float(value)!r} is not finite; {detail}"
                value, passed = None, False
        except Exception as exc:
            value, passed = None, False
            detail = f"{type(exc).__name__}: {exc}"
        return CheckRecord(
            name=row.name,
            digest=digest,
            value=None if value is None else float(value),
            tolerance=None if tol is None else float(tol),
            passed=bool(passed),
            detail=str(detail),
            elapsed_s=time.perf_counter() - start,
        )


def _point_forward(ctx: _SuiteContext):
    tables = ctx.seeded_tables
    worst = max(weak_mult_check(t).residual for t in tables)
    return worst, f"{len(tables)} exact rank-one tables"


def _point_reject(ctx: _SuiteContext):
    rng = random.Random(_SEED_NON_RANK_ONE)
    min_res = float("inf")
    for _ in range(10):
        d = random_non_rank_one_distribution(rng, degree=ctx.config.order)
        if factorize(d).ok:
            return 0.0, "factorize accepted a non-rank-one matrix"
        res = weak_mult_check(point_moments(d, ctx.config.order)).residual
        min_res = min(min_res, res)
    return min_res, "10 non-rank-one matrices rejected"


def _weight_table_multiplicative(ctx: _SuiteContext):
    table, route = ctx.weight_table
    report = weak_mult_check(table)
    if route == "atom":
        fine = weak_mult_check(ctx.measure_table)
        return report.residual, (
            f"atom table, worst index {report.worst}; measure-route residual "
            f"{fine.residual:.6g} (the spread-out measure itself is not "
            "multiplicative)"
        )
    floor = ctx.config.tols["falsification_floor"]
    return report.residual, (
        f"measure table, worst index {report.worst}; non-atomic weight "
        f"must fail factorization (residual floor {floor})"
    ), "falsification_floor", _FLOOR


def _point_tensor(ctx: _SuiteContext):
    tables = ctx.seeded_tables
    worst = max(tensor_diag_check(t).residual for t in tables)
    return worst, f"{len(tables)} exact rank-one tables"


def _weight_tensor(ctx: _SuiteContext):
    table, route = ctx.weight_table
    report = tensor_diag_check(table)
    return report.residual, f"{route} table, worst tuple {report.worst}"


def _energy_identity(ctx: _SuiteContext):
    """The ring-DFT W[0][0], energy(z) and ``l1_norm``'s mass, against the
    blocked ``integrate``: the mass's named cross-check, two code routes on
    one rule; a weight's closed-form energy would be off the rule.
    """
    ctx.measure_table  # the run's one ring-DFT pass; W[0][0] is its corner
    e = float(disk_moments(ctx.weight, ctx.disk_grid, 0)[0, 0].real)
    mass = integrate(ctx.disk_grid, ctx.weight.eval_many)
    return abs(e - mass), f"energy(z)={e:.9g} vs mass={mass:.9g}"


def _energy_quadratic(ctx: _SuiteContext):
    f = TaylorSeries([0, 1, 0.5 + 0.25j, -0.125])
    e1 = energy(f, ctx.weight, ctx.disk_grid)
    e2 = energy(f.scale(2.0), ctx.weight, ctx.disk_grid)
    return abs(e2 - 4.0 * e1) / max(1.0, abs(e2)), "energy(2f) = 4 energy(f)"


def _energy_constant(ctx: _SuiteContext):
    e = energy(TaylorSeries([3.5, 0, 0]), ctx.weight, ctx.disk_grid)
    return e, "constants carry no energy"


def _superharmonic(ctx: _SuiteContext):
    worst_margin, worst_case = superharmonic_test(ctx.weight)
    return max(0.0, -worst_margin), f"worst margin {worst_margin:.3e} at {worst_case}"


def _dilation(ctx: _SuiteContext):
    rng = random.Random(_SEED_DILATION)
    worst = 0.0
    for _ in range(3):
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(11)]
        f = TaylorSeries(coeffs + [0j] * (ctx.config.series_order - 10))
        rep = dilation_report(f, ctx.weight, (0.2, 0.4, 0.6, 0.8, 0.95), ctx.disk_grid)
        worst = max(worst, rep.max_violation)
    if ctx.weight.is_harmonic:
        return worst, "harmonic weight: monotone dilation energies asserted"
    return worst, "non-harmonic weight: monotonicity reported, not asserted", None, _INFO


def _h_identity_points(direction: complex) -> list[complex]:
    """25 seeded points in |v| <= 0.8, turned by the unit ``direction``."""
    rng = random.Random(_SEED_TEST_POINTS)
    pts = []
    for _ in range(25):
        r = 0.8 * (0.2 + 0.8 * rng.random())
        pts.append(direction * (r * np.exp(2j * np.pi * rng.random())))
    return pts


def _model_build(ctx: _SuiteContext):
    diagnostics = ctx.model().diagnostics
    return diagnostics["rank_ratio"], f"model built, a(0)={diagnostics['a0']:.6g}"


def _h0(ctx: _SuiteContext):
    return ctx.model().diagnostics["h0_deviation"], "unit-mass normalization of h"


def _l1_consistency(ctx: _SuiteContext):
    ctx.measure_table  # the run's one ring-DFT pass; the mass is its corner
    mass = l1_norm(ctx.model().weight, ctx.disk_grid)
    return abs(mass - 1.0), f"quadrature mass {mass:.8g} vs exact 1"


def _h_identity(ctx: _SuiteContext):
    model = ctx.model()
    report = dbr_mod.verify_h_identity(
        model.weight, model.h, _h_identity_points(ctx.direction), ctx.disk_grid
    )
    detail = f"worst point {report.worst_point:.4f}"
    return report.worst_error, detail + _truncation_note(
        ctx, "h_identity", report.worst_error, model.h, report.worst_point)


def _truncation_note(ctx: _SuiteContext, tol: str, value: float, h: TaylorSeries,
                     v: complex) -> str:
    """The series order and the last kept term |h_N v^N| at the worst point v,
    for a failing row that compares with the truncated h, whose tail is the
    error at a low series order; empty for a passing row."""
    if value <= ctx.config.tols[tol]:
        return ""
    return f"; series order {h.order}, |h_N v^N| = {abs(h.array[-1] * v ** h.order):.3g} there"


def _laplacian(ctx: _SuiteContext):
    rng = random.Random(_SEED_TEST_POINTS)
    worst = 0.0
    for _ in range(5):
        z0 = 0.6 * rng.random() * np.exp(2j * np.pi * rng.random())
        w0 = 0.6 * rng.random() * np.exp(2j * np.pi * rng.random())
        worst = max(worst, dbr_mod.laplacian_identity_check(z0, w0, 1e-3))
    return worst, "five-point stencil at step 1e-3"


def _phi_consistency(ctx: _SuiteContext):
    """|phi(v)|^2 = |v|^2 B(w)(v) / (1 - |v|^2) against the series phi = z h."""
    model = ctx.model()
    worst, worst_pt = 0.0, 0j
    phi = model.h.shift()
    points = _h_identity_points(ctx.direction)[:10]  # the same draws as h-identity's first ten
    berezin = dbr_mod.berezin_transforms(model.weight, points, ctx.disk_grid)
    for v, b in zip(points, berezin.tolist()):
        r2 = abs(complex(v)) ** 2
        direct = r2 * b / (1.0 - r2)
        err = abs(direct - abs(phi.evaluate(v)) ** 2)
        if err > worst:
            worst, worst_pt = err, complex(v)
    note = _truncation_note(ctx, "phi_consistency", worst, model.h, worst_pt)
    return worst, "integral route vs series route" + (note and f", worst point {worst_pt:.4f}{note}")


def _b_contraction(ctx: _SuiteContext):
    b_max = ctx.model().diagnostics["b_max_sample"]
    return max(0.0, b_max - 1.0), f"max sampled |b| = {b_max:.8g}"


def _outer_consistency(ctx: _SuiteContext):
    """The model's own a and b against b = z h a and |a|^2 + |b|^2 = 1 on the
    circle: the larger of ``dbr._factor_identities``, exact in the
    coefficients, so no grid, node or FFT is read."""
    product, pythagorean = dbr_mod._factor_identities(ctx.model())
    return max(product, pythagorean), (
        f"b = z h a {product:.3e}, |a|^2 + |b|^2 = 1 {pythagorean:.3e}")


# Fixed kernel node sets of sizes 1..4 inside |w| <= 0.6, biased toward
# the positive real axis (turned toward the weight's pole when it has
# one, see ``_isometry_cases``). Spread-out node sets span near-constant
# functions (vanishing energy), which would let a wrong symbol slip
# through; these clustered sets keep the wrong-symbol gap decisive for
# generic coefficient draws while the Gram stays well conditioned.
_ISOMETRY_NODE_SETS = (
    (0.55 + 0j,),
    (0.55 + 0j, 0.45 + 0.2j),
    (0.55 + 0j, 0.45 + 0.2j, 0.45 - 0.2j),
    (0.55 + 0j, 0.45 + 0.2j, 0.45 - 0.2j, 0.35 + 0j),
)
_MEAN_DOMINANCE_CAP = 0.85


def _isometry_cases(direction: complex):
    """20 cases: fixed node sets cycled with seeded Gaussian coefficient draws.

    Draws whose kernel combination is dominated by its mean value are
    redrawn: constants carry no energy, so a near-constant test function
    cannot expose a wrong symbol. The filter uses only the Hardy-space
    Gram of the nodes (no weight or symbol data), which a rotation leaves
    unchanged; the nodes are then turned by the unit ``direction``.
    """
    rng = random.Random(_SEED_ISOMETRY)
    grams = [
        np.array([[1.0 / (1.0 - u * np.conj(v)) for v in s] for u in s])
        for s in _ISOMETRY_NODE_SETS
    ]
    cases = []
    for i in range(20):
        pick = i % len(_ISOMETRY_NODE_SETS)
        nodes = [direction * u for u in _ISOMETRY_NODE_SETS[pick]]
        while True:
            c = np.array(
                [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in nodes]
            )
            norm_sq = float(np.real(c.conj() @ grams[pick] @ c))
            if abs(c.sum()) ** 2 <= _MEAN_DOMINANCE_CAP * norm_sq:
                break
        cases.append((nodes, list(c)))
    return cases


def _isometry_gap(ctx: _SuiteContext):
    model = ctx.model()
    worst = 0.0
    min_eig = float("inf")
    for nodes, coeffs in _isometry_cases(direction=ctx.direction):
        rep = dbr_mod.verify_isometry(model, nodes, coeffs, ctx.disk_grid)
        worst = max(worst, rep.relative_gap)
        min_eig = min(min_eig, rep.min_gram_eigenvalue)
    return worst, f"20 kernel combinations, min Gram eigenvalue {min_eig:.3e}"


def _isometry_falsification(ctx: _SuiteContext):
    wrong = dbr_mod.szego_model(ctx.model())
    min_gap = float("inf")
    for nodes, coeffs in _isometry_cases(direction=ctx.direction):
        rep = dbr_mod.verify_isometry(wrong, nodes, coeffs, ctx.disk_grid)
        min_gap = min(min_gap, rep.relative_gap)
    return min_gap, "replacing the symbol by 0 must break the identity"


#: Every verify check, in report order: (name, suite, seeds, tol, sense, fn).
_CHECKS = tuple(_Check(*row) for row in (
    ("point-forward-exact", "moments", (_SEED_POINT_TABLES,), 0.0, _CEILING,
     _point_forward),
    ("point-reject-non-rank-one", "moments", (_SEED_NON_RANK_ONE,), 0.0, _FLOOR,
     _point_reject),
    ("weight-table-multiplicative", "moments", (), "weak_mult", _CEILING,
     _weight_table_multiplicative),
    ("point-tensor-vanishing", "tensor", (_SEED_POINT_TABLES,), 0.0, _CEILING,
     _point_tensor),
    ("weight-table-tensor", "tensor", (), "tensor", _CEILING, _weight_tensor),
    ("energy-of-identity-vs-mass", "dirichlet", (), "energy_identity", _CEILING,
     _energy_identity),
    ("energy-quadratic-scaling", "dirichlet", (), 1e-12, _CEILING, _energy_quadratic),
    ("energy-constant-zero", "dirichlet", (), 1e-12, _CEILING, _energy_constant),
    ("superharmonic-lattice", "dirichlet", (), "superharmonic", _CEILING,
     _superharmonic),
    ("dilation-monotone", "dirichlet", (_SEED_DILATION,), "dilation", _CEILING,
     _dilation),
    ("model-build", "dbr", (), None, _INFO, _model_build),
    ("h0-normalization", "dbr", (), "h0", _CEILING, _h0),
    ("l1-quadrature-consistency", "dbr", (), "l1_consistency", _CEILING,
     _l1_consistency),
    ("h-identity", "dbr", (_SEED_TEST_POINTS,), "h_identity", _CEILING, _h_identity),
    ("laplacian-identity", "dbr", (_SEED_TEST_POINTS,), "laplacian", _CEILING,
     _laplacian),
    ("phi-consistency", "dbr", (_SEED_TEST_POINTS,), "phi_consistency", _CEILING,
     _phi_consistency),
    ("b-contraction", "dbr", (), "b_contraction", _CEILING, _b_contraction),
    ("outer-consistency", "dbr", (), "outer_consistency", _CEILING,
     _outer_consistency),
    ("isometry-gap", "isometry", (_SEED_ISOMETRY,), "isometry", _CEILING,
     _isometry_gap),
    ("isometry-falsification-b-zero", "isometry", (_SEED_ISOMETRY,),
     "isometry_falsification", _FLOOR, _isometry_falsification),
))


def _suite(ctx: _SuiteContext, suite: str) -> list[CheckRecord]:
    return [ctx.check(row) for row in _CHECKS if row.suite == suite]


def suite_moments(ctx: _SuiteContext) -> list[CheckRecord]:
    return _suite(ctx, "moments")


def suite_tensor(ctx: _SuiteContext) -> list[CheckRecord]:
    return _suite(ctx, "tensor")


def suite_dirichlet(ctx: _SuiteContext) -> list[CheckRecord]:
    return _suite(ctx, "dirichlet")


def suite_dbr(ctx: _SuiteContext) -> list[CheckRecord]:
    return _suite(ctx, "dbr")


def suite_isometry(ctx: _SuiteContext) -> list[CheckRecord]:
    return _suite(ctx, "isometry")


_SUITE_RUNNERS = {
    "moments": suite_moments,
    "tensor": suite_tensor,
    "dirichlet": suite_dirichlet,
    "dbr": suite_dbr,
    "isometry": suite_isometry,
}


def run(config: argparse.Namespace) -> tuple[Report, int]:
    """Execute the configured suites in fixed order."""
    start = time.perf_counter()
    ctx = _SuiteContext(config)
    names = SUITES if config.suite == "all" else (config.suite,)
    checks: list[CheckRecord] = []
    for name in names:
        checks.extend(_SUITE_RUNNERS[name](ctx))
    report = Report(
        suite=config.suite,
        weight_spec=config.weight_spec,
        config={
            "order": config.order,
            "series_order": config.series_order,
            "radial_order": config.radial_order,
            "angular_order": config.angular_order,
            "tols": {k: config.tols[k] for k in sorted(config.tols)},
        },
        checks=checks,
        total_elapsed_s=time.perf_counter() - start,
    )
    return report, 0 if report.passed else 1


#: Every subcommand flag, in ``--help`` order: option -> add_argument keywords.
_FLAGS = {
    "--weight": dict(dest="weight_spec", default="harm:1,0", metavar="SPEC",
                     help="weight spec: harm:<re>,<im> | log:<re>,<im> | "
                          "scaled:<c>:<spec> | uniform"),
    "--order": dict(type=int, default=8, help="moment-table order (default %(default)s)"),
    "--series-order": dict(type=int, default=64,
                           help="series truncation order (default %(default)s)"),
    "--radial": dict(type=int, default=120, dest="radial_order", metavar="RADIAL",
                     help="radial quadrature order (default %(default)s)"),
    "--angular": dict(type=int, default=256, dest="angular_order", metavar="ANGULAR",
                      help="baseline angular quadrature order (default %(default)s)"),
    "--tol": dict(action="append", default=[], metavar="NAME=V",
                  help="override a named tolerance (repeatable)"),
    "--out": dict(default=None, help="write the report to this path"),
    "--format": dict(choices=("json", "csv", "text"), default="json"),
}


def _add_flags(p: argparse.ArgumentParser, command: str, *options: str) -> None:
    """Give a subcommand's parser its ``command`` and the named ``_FLAGS``."""
    p.set_defaults(command=command)
    for option in options:
        p.add_argument(option, **_FLAGS[option])


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="disklab",
        description="verification suites for disk quadrature, moment tables, "
                    "and reproducing-kernel identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    _add_flags(p_verify, "verify", *_FLAGS)

    p_moments = sub.add_parser("moments", help="emit a moment table for a weight")
    p_moments.add_argument("--route", choices=("auto", "atom", "measure"),
                           default="auto")
    _add_flags(p_moments, "moments", "--weight", "--order", "--radial", "--angular",
               "--out")

    p_dbr = sub.add_parser("dbr", help="kernel-model commands")
    dbr_sub = p_dbr.add_subparsers(dest="dbr_command", required=True)
    p_build = dbr_sub.add_parser("build", help="build and emit a kernel model")
    _add_flags(p_build, "dbr-build", "--weight", "--series-order", "--radial",
               "--angular", "--out")

    p_weights = sub.add_parser("weights", help="weight utilities")
    w_sub = p_weights.add_subparsers(dest="weights_command", required=True)
    p_info = w_sub.add_parser("info", help="summarize a weight spec")
    _add_flags(p_info, "weights-info", "--weight", "--radial", "--angular", "--out")

    config, extra = parser.parse_known_args(argv)
    error = {"verify": p_verify, "moments": p_moments, "dbr-build": p_build,
             "weights-info": p_info}[config.command].error
    if extra:
        error(f"unrecognized arguments: {' '.join(extra)}")
    if "order" in config and not 1 <= config.order <= 16:
        error(f"--order must lie in [1, 16], got {config.order}")
    if "series_order" in config and not 8 <= config.series_order <= MAX_RING_ORDER + 1:
        error(f"--series-order must lie in [8, {MAX_RING_ORDER + 1}], got {config.series_order}")
    if config.radial_order < 1:
        error("--radial must be >= 1")
    if config.angular_order < 4:
        error("--angular must be >= 4")
    if "tol" in config:
        config.tols = dict(DEFAULT_TOLS)
        for item in config.tol:
            name, sep, value = item.partition("=")
            if not sep or name not in config.tols:
                error(f"unknown tolerance override {item!r} "
                      f"(known: {', '.join(sorted(config.tols))})")
            try:
                config.tols[name] = float(value)
            except ValueError:
                error(f"bad tolerance value in {item!r}")
            if not 0.0 <= config.tols[name] < math.inf:
                error(f"tolerance in {item!r} must be finite and nonnegative")
    try:
        config.weight = parse_weight_spec(config.weight_spec)
    except (WeightSpecError, DomainError) as exc:
        error(str(exc))
    return config


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _run_verify(config: argparse.Namespace) -> int:
    report, code = run(config)
    _emit(getattr(report, f"to_{config.format}")(), config.out)
    return code


def _run_moments(config: argparse.Namespace) -> int:
    atoms = None if config.route == "measure" else config.weight.atoms
    if atoms is not None:
        table = atoms_table(atoms, config.order)
    elif config.route == "atom":
        raise DomainError("no atomic realization is known for this weight")
    else:
        grid = grid_for_weight(config.weight, config.radial_order, config.angular_order)
        table = measure_moments(config.weight, grid, config.order)
    # the checks multiply entries, so a table of entries near 1e308 overflows them
    with np.errstate(over="ignore", invalid="ignore"):
        weak = weak_mult_check(table)
        tensor = tensor_diag_check(table)
    if not (math.isfinite(weak.residual) and math.isfinite(tensor.residual)):
        raise DomainError(f"the moment checks of {config.weight_spec} overflow")
    payload = {
        "weight": config.weight_spec,
        "table": table.to_json_dict(),
        "weak_mult_residual": weak.residual,
        "weak_mult_worst": list(weak.worst),
        "tensor_residual": tensor.residual,
        "tensor_worst": list(tensor.worst),
    }
    _emit(_json_text(payload), config.out)
    return 0


def _run_dbr_build(config: argparse.Namespace) -> int:
    # build_model reads no quadrature for a weight with known atoms
    grid = None if config.weight.atoms is not None else grid_for_weight(
        config.weight, config.radial_order, config.angular_order
    )
    try:
        model = dbr_mod.build_model(config.weight, grid, order=config.series_order)
    except NotDbrWeightError as exc:  # a valid spec whose weight has no model
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(_json_text(model.to_json_dict()), config.out)
    return 0


def _run_weights_info(config: argparse.Namespace) -> int:
    weight = config.weight
    grid = grid_for_weight(weight, config.radial_order, config.angular_order)
    fine_grid = grid_for_weight(
        weight, 2 * config.radial_order, 2 * config.angular_order
    )
    # the fine grid is read first: an error names its first bad node there
    mass_fine = l1_norm(weight, fine_grid)
    mass = l1_norm(weight, grid)
    worst_margin, _ = superharmonic_test(weight)
    payload = {
        "weight": config.weight_spec,
        "label": weight.label,
        "is_harmonic": weight.is_harmonic,
        "singularities": [[s.real, s.imag] for s in weight.singularities],
        "l1_norm": mass,
        "l1_refined": mass_fine,
        "l1_refinement_error": abs(mass_fine - mass),
        "analytic_mass": weight.analytic_mass,
        "superharmonic": {
            "worst_violation": max(0.0, -worst_margin),
            "worst_margin": worst_margin,
        },
    }
    _emit(_json_text(payload), config.out)
    return 0


_COMMANDS = {"verify": _run_verify, "moments": _run_moments,
             "dbr-build": _run_dbr_build, "weights-info": _run_weights_info}


def main(argv: Optional[list[str]] = None) -> int:
    config = parse_args(argv)
    try:
        return _COMMANDS[config.command](config)
    except (DomainError, SingularIntegrandError) as exc:
        # an input out of its domain, an unwritable --out, or a weight whose
        # values overflow the float range on its grid
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
