"""Command-line front end: named verification suites and ad-hoc computations.

Subcommands
-----------
``verify``       run one suite (or all) against a weight, emit a report.
``moments``      compute and emit a moment table for a weight.
``dbr build``    build the kernel model for a weight and emit it.
``weights info`` parse a weight spec and summarize its basic quantities.

Reports are deterministic: every check uses fixed seeds and fixed
reduction orders, so two runs of the same configuration produce
byte-identical JSON except for the timing fields (each check's
``elapsed_s`` and the top-level ``timings``). Exit codes: 0 when every
check passes, 1 on any failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import dbr as dbr_mod
from .dirichlet import dilation_report, energy
from .errors import DomainError, NotDbrWeightError, WeightSpecError
from .moments import (
    atoms_table,
    disk_moments,
    measure_moments,
    point_moments,
    random_non_rank_one_distribution,
    random_rank_one_distribution,
    tensor_diag_check,
    weak_mult_check,
)
from .quadrature import (
    MAX_DISK_NODES,
    disk_grid_size,
    make_circle_grid,
    richardson_check,
)
from .series import TaylorSeries, monomial
from .weights import (
    Weight,
    grid_for_weight,
    l1_norm,
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
    "outer_consistency": 1e-2,
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


@dataclass
class RunConfig:
    command: str = "verify"
    suite: str = "all"
    weight_spec: str = "harm:1,0"
    order: int = 8  # moment-table order
    series_order: int = 64  # truncation order for series pipelines
    radial_order: int = 120
    angular_order: int = 256
    boundary_order: int = 32768
    tols: dict = field(default_factory=lambda: dict(DEFAULT_TOLS))
    out: Optional[str] = None
    format: str = "json"
    route: str = "auto"  # moments subcommand: auto | atom | measure


@dataclass
class CheckRecord:
    name: str
    digest: str
    value: Optional[float]  # None when the check crashed before producing one
    tolerance: Optional[float]  # None for informational (always-pass) checks
    passed: bool
    detail: str
    elapsed_s: float

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "digest": self.digest,
            "value": self.value,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "detail": self.detail,
            "elapsed_s": self.elapsed_s,
        }


@dataclass
class Report:
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
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "weight": self.weight_spec,
            "config": self.config,
            "checks": [c.to_json_dict() for c in self.checks],
            "passed": self.passed,
            "timings": {"total_s": self.total_elapsed_s},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

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


def _digest(*parts) -> str:
    blob = "|".join(str(p) for p in parts)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


class _SuiteContext:
    """Lazily built shared objects for one verify run."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.weight = parse_weight_spec(config.weight_spec)
        self._disk_grid = None
        self._model = None
        self._model_error: Optional[Exception] = None

    @property
    def disk_grid(self):
        if self._disk_grid is None:
            self._disk_grid = grid_for_weight(
                self.weight, self.config.radial_order, self.config.angular_order
            )
        return self._disk_grid

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

        The pass runs ``disk_moments`` at the largest order the run reads (the
        series suites' energies need ``series_order - 1``); the table is its
        order-``order`` corner, bit-identical to a build at that order.
        """
        order, series_order = self.config.order, self.config.series_order
        disk_moments(self.weight, self.disk_grid, max(order, series_order - 1))
        return measure_moments(self.weight, self.disk_grid, order)

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

    def model(self):
        if self._model is None and self._model_error is None:
            try:
                self._model = dbr_mod.build_model(
                    self.weight,
                    self.disk_grid,
                    boundary_order=self.config.boundary_order,
                    order=self.config.series_order,
                )
            except Exception as exc:  # surfaces as failed checks, not a crash
                self._model_error = exc
        if self._model_error is not None:
            raise self._model_error
        return self._model

    def check(
        self,
        checks: list[CheckRecord],
        name: str,
        fn: Callable[[], tuple[float, float, bool, str]],
        *digest_parts,
    ) -> None:
        """Run one check; exceptions become failing records."""
        start = time.perf_counter()
        digest = _digest(name, self.config.weight_spec, self.config.order,
                         self.config.radial_order, self.config.angular_order,
                         *digest_parts)
        try:
            value, tol, passed, detail = fn()
        except Exception as exc:
            value, tol, passed = None, None, False
            detail = f"{type(exc).__name__}: {exc}"
        checks.append(
            CheckRecord(
                name=name,
                digest=digest,
                value=None if value is None else float(value),
                tolerance=None if tol is None else float(tol),
                passed=bool(passed),
                detail=str(detail),
                elapsed_s=time.perf_counter() - start,
            )
        )


def suite_moments(ctx: _SuiteContext) -> list[CheckRecord]:
    checks: list[CheckRecord] = []
    tols = ctx.config.tols
    order = ctx.config.order

    def point_forward():
        tables = ctx.seeded_tables
        worst = max(weak_mult_check(t).residual for t in tables)
        return worst, 0.0, worst == 0.0, f"{len(tables)} exact rank-one tables"

    ctx.check(checks, "point-forward-exact", point_forward, _SEED_POINT_TABLES)

    def point_reject():
        from .moments import factorize

        rng = random.Random(_SEED_NON_RANK_ONE)
        min_res = float("inf")
        for _ in range(10):
            d = random_non_rank_one_distribution(rng, degree=order)
            if factorize(d).ok:
                return 0.0, 0.0, False, "factorize accepted a non-rank-one matrix"
            res = weak_mult_check(point_moments(d, order)).residual
            min_res = min(min_res, res)
        return min_res, 0.0, min_res > 0.0, "10 non-rank-one matrices rejected"

    ctx.check(checks, "point-reject-non-rank-one", point_reject, _SEED_NON_RANK_ONE)

    def weight_table():
        table, route = ctx.weight_table
        report = weak_mult_check(table)
        if route == "atom":
            fine = weak_mult_check(ctx.measure_table)
            return (
                report.residual,
                tols["weak_mult"],
                report.residual <= tols["weak_mult"],
                f"atom table, worst index {report.worst}; measure-route residual "
                f"{fine.residual:.6g} (the spread-out measure itself is not "
                "multiplicative)",
            )
        floor = tols["falsification_floor"]
        detail = (
            f"measure table, worst index {report.worst}; non-atomic weight "
            f"must fail factorization (residual floor {floor})"
        )
        return report.residual, floor, report.residual > floor, detail

    ctx.check(checks, "weight-table-multiplicative", weight_table)
    return checks


def suite_tensor(ctx: _SuiteContext) -> list[CheckRecord]:
    checks: list[CheckRecord] = []
    tols = ctx.config.tols

    def point_tensor():
        tables = ctx.seeded_tables
        worst = max(tensor_diag_check(t).residual for t in tables)
        return worst, 0.0, worst == 0.0, f"{len(tables)} exact rank-one tables"

    ctx.check(checks, "point-tensor-vanishing", point_tensor, _SEED_POINT_TABLES)

    def weight_tensor():
        table, route = ctx.weight_table
        report = tensor_diag_check(table)
        tol = tols["tensor"]
        detail = f"{route} table, worst tuple {report.worst}"
        return report.residual, tol, report.residual <= tol, detail

    ctx.check(checks, "weight-table-tensor", weight_tensor)
    return checks


_LATTICE_CENTERS = [0j] + [
    0.55 * np.exp(1j * np.pi * (2 * t + 1) / 9) for t in range(9)
]
_LATTICE_RADII = [0.05, 0.1, 0.15, 0.2, 0.25]
_LATTICE_CLEARANCE = 0.02


def _admissible_lattice(weight: Weight):
    """Drop lattice cells whose center or circle runs into a singularity."""
    interior = [s for s in weight.singularities if abs(s) < 1.0]
    centers = [
        c for c in _LATTICE_CENTERS
        if all(abs(c - s) > _LATTICE_CLEARANCE for s in interior)
    ]
    cells = [
        (c, r)
        for c in centers
        for r in _LATTICE_RADII
        if all(abs(abs(c - s) - r) > _LATTICE_CLEARANCE for s in interior)
    ]
    return cells


def suite_dirichlet(ctx: _SuiteContext) -> list[CheckRecord]:
    checks: list[CheckRecord] = []
    tols = ctx.config.tols
    grid = ctx.disk_grid
    n_series = ctx.config.series_order

    def energy_identity():
        ctx.measure_table  # one ring-DFT pass at the largest order the run reads
        f = monomial(1, 4)
        e = energy(f, ctx.weight, grid)
        mass = l1_norm(ctx.weight, grid)
        err = abs(e - mass)
        tol = tols["energy_identity"]
        return err, tol, err <= tol, f"energy(z)={e:.9g} vs mass={mass:.9g}"

    ctx.check(checks, "energy-of-identity-vs-mass", energy_identity)

    def energy_quadratic():
        f = TaylorSeries([0, 1, 0.5 + 0.25j, -0.125])
        e1 = energy(f, ctx.weight, grid)
        e2 = energy(f.scale(2.0), ctx.weight, grid)
        err = abs(e2 - 4.0 * e1) / max(1.0, abs(e2))
        return err, 1e-12, err <= 1e-12, "energy(2f) = 4 energy(f)"

    ctx.check(checks, "energy-quadratic-scaling", energy_quadratic)

    def energy_constant():
        e = energy(TaylorSeries([3.5, 0, 0]), ctx.weight, grid)
        return e, 1e-12, e <= 1e-12, "constants carry no energy"

    ctx.check(checks, "energy-constant-zero", energy_constant)

    def superharmonic():
        cgrid = make_circle_grid(256)
        worst_margin = float("inf")
        worst_case = None
        for center, radius in _admissible_lattice(ctx.weight):
            report = superharmonic_test(
                ctx.weight, [center], [radius], cgrid, tol=tols["superharmonic"]
            )
            if report.worst_margin < worst_margin:
                worst_margin = report.worst_margin
                worst_case = report.worst_case
        violation = max(0.0, -worst_margin)
        return (
            violation,
            tols["superharmonic"],
            violation <= tols["superharmonic"],
            f"worst margin {worst_margin:.3e} at {worst_case}",
        )

    ctx.check(checks, "superharmonic-lattice", superharmonic)

    def dilation():
        rng = random.Random(_SEED_DILATION)
        radii = (0.2, 0.4, 0.6, 0.8, 0.95)
        worst = 0.0
        for _ in range(3):
            coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range(11)]
            f = TaylorSeries(coeffs + [0j] * (n_series - 10))
            rep = dilation_report(f, ctx.weight, radii, grid,
                                  tol=tols["dilation"])
            worst = max(worst, rep.max_violation)
        if ctx.weight.is_harmonic:
            return (
                worst,
                tols["dilation"],
                worst <= tols["dilation"],
                "harmonic weight: monotone dilation energies asserted",
            )
        return worst, None, True, (
            "non-harmonic weight: monotonicity reported, not asserted"
        )

    ctx.check(checks, "dilation-monotone", dilation, _SEED_DILATION)
    return checks


def _h_identity_points(
    direction: complex, count: int = 25, radius: float = 0.8
) -> list[complex]:
    """Seeded points in |v| <= radius, turned by the unit ``direction``."""
    rng = random.Random(_SEED_TEST_POINTS)
    pts = []
    for _ in range(count):
        r = radius * (0.2 + 0.8 * rng.random())
        pts.append(direction * (r * np.exp(2j * np.pi * rng.random())))
    return pts


def suite_dbr(ctx: _SuiteContext) -> list[CheckRecord]:
    checks: list[CheckRecord] = []
    tols = ctx.config.tols
    grid = ctx.disk_grid

    def build():
        model = ctx.model()
        return (
            model.diagnostics["rank_ratio"],
            None,
            True,
            f"model built, a(0)={model.diagnostics['a0']:.6g}",
        )

    ctx.check(checks, "model-build", build)

    def h0():
        model = ctx.model()
        dev = model.diagnostics["h0_deviation"]
        return dev, tols["h0"], dev <= tols["h0"], "unit-mass normalization of h"

    ctx.check(checks, "h0-normalization", h0)

    def l1_consistency():
        model = ctx.model()
        mass = l1_norm(model.weight, grid)
        err = abs(mass - 1.0)
        tol = tols["l1_consistency"]
        return err, tol, err <= tol, f"quadrature mass {mass:.8g} vs exact 1"

    ctx.check(checks, "l1-quadrature-consistency", l1_consistency)

    def h_identity():
        model = ctx.model()
        report = dbr_mod.verify_h_identity(
            model.weight, model.h, _h_identity_points(ctx.direction), grid,
            tol=tols["h_identity"],
        )
        return (
            report.worst_error,
            tols["h_identity"],
            report.passes,
            f"worst point {report.worst_point:.4f}",
        )

    ctx.check(checks, "h-identity", h_identity, _SEED_TEST_POINTS)

    def laplacian():
        rng = random.Random(_SEED_TEST_POINTS)
        worst = 0.0
        for _ in range(5):
            z0 = 0.6 * rng.random() * np.exp(2j * np.pi * rng.random())
            w0 = 0.6 * rng.random() * np.exp(2j * np.pi * rng.random())
            worst = max(worst, dbr_mod.laplacian_identity_check(z0, w0, 1e-3))
        tol = tols["laplacian"]
        return worst, tol, worst <= tol, "five-point stencil at step 1e-3"

    ctx.check(checks, "laplacian-identity", laplacian, _SEED_TEST_POINTS)

    def phi_consistency():
        model = ctx.model()
        worst = 0.0
        phi = model.h.shift()
        for v in _h_identity_points(ctx.direction, count=10):
            direct = dbr_mod.phi_modulus_sq(v, model.weight, grid)
            from_series = abs(phi.evaluate(v)) ** 2
            worst = max(worst, abs(direct - from_series))
        tol = tols["phi_consistency"]
        return worst, tol, worst <= tol, "integral route vs series route"

    ctx.check(checks, "phi-consistency", phi_consistency, _SEED_TEST_POINTS)

    def b_contraction():
        model = ctx.model()
        excess = max(0.0, model.diagnostics["b_max_sample"] - 1.0)
        tol = tols["b_contraction"]
        return (
            excess,
            tol,
            excess <= tol,
            f"max sampled |b| = {model.diagnostics['b_max_sample']:.8g}",
        )

    ctx.check(checks, "b-contraction", b_contraction)

    def outer_consistency():
        model = ctx.model()
        holdout = make_circle_grid(model.boundary_order // 2, offset=0.25)
        boundary_singular = any(
            abs(abs(s) - 1.0) < 1e-9 for s in ctx.weight.singularities
        )
        # Recompute the target modulus on held-out nodes from the atoms.
        atoms = dbr_mod.riesz_atoms(model.weight)
        if atoms is None:
            return None, None, True, "no atomic boundary data to check"
        e = holdout.nodes
        phi_b = e * sum(m / (1.0 - np.conj(p) * e) for p, m in atoms)
        target = 1.0 / np.sqrt(1.0 + np.abs(phi_b) ** 2)
        got = np.abs(model.a.evaluate_many(e))
        err = float(np.max(np.abs(got - target)))
        tol = tols["outer_consistency"] if boundary_singular else 1e-6
        return err, tol, err <= tol, (
            "boundary-singular target" if boundary_singular else "smooth target"
        )

    ctx.check(checks, "outer-consistency", outer_consistency)
    return checks


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


def _isometry_cases(count: int = 20, direction: complex = 1.0):
    """Fixed node sets cycled with seeded Gaussian coefficient draws.

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
    for i in range(count):
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


def suite_isometry(ctx: _SuiteContext) -> list[CheckRecord]:
    checks: list[CheckRecord] = []
    tols = ctx.config.tols
    grid = ctx.disk_grid

    def gap():
        model = ctx.model()
        worst = 0.0
        min_eig = float("inf")
        for nodes, coeffs in _isometry_cases(direction=ctx.direction):
            rep = dbr_mod.verify_isometry(
                model, nodes, coeffs, grid, tol=tols["isometry"]
            )
            worst = max(worst, rep.relative_gap)
            min_eig = min(min_eig, rep.min_gram_eigenvalue)
        tol = tols["isometry"]
        return worst, tol, worst <= tol, (
            f"20 kernel combinations, min Gram eigenvalue {min_eig:.3e}"
        )

    ctx.check(checks, "isometry-gap", gap, _SEED_ISOMETRY)

    def falsification():
        model = ctx.model()
        wrong = dbr_mod.szego_model(model)
        min_gap = float("inf")
        for nodes, coeffs in _isometry_cases(direction=ctx.direction):
            rep = dbr_mod.verify_isometry(
                wrong, nodes, coeffs, grid, tol=tols["isometry"]
            )
            min_gap = min(min_gap, rep.relative_gap)
        floor = tols["isometry_falsification"]
        return min_gap, floor, min_gap > floor, (
            "replacing the symbol by 0 must break the identity"
        )

    ctx.check(checks, "isometry-falsification-b-zero", falsification, _SEED_ISOMETRY)
    return checks


_SUITE_RUNNERS = {
    "moments": suite_moments,
    "tensor": suite_tensor,
    "dirichlet": suite_dirichlet,
    "dbr": suite_dbr,
    "isometry": suite_isometry,
}


def run(config: RunConfig) -> tuple[Report, int]:
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
            "boundary_order": config.boundary_order,
            "tols": {k: config.tols[k] for k in sorted(config.tols)},
        },
        checks=checks,
        total_elapsed_s=time.perf_counter() - start,
    )
    return report, 0 if report.passed else 1


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weight", default="harm:1,0", metavar="SPEC",
                   help="weight spec: harm:<re>,<im> | log:<re>,<im> | "
                        "scaled:<c>:<spec> | uniform")
    p.add_argument("--order", type=int, default=8,
                   help="moment-table order (default 8)")
    p.add_argument("--series-order", type=int, default=64,
                   help="series truncation order (default 64)")
    p.add_argument("--radial", type=int, default=120, dest="radial",
                   help="radial quadrature order (default 120)")
    p.add_argument("--angular", type=int, default=256, dest="angular",
                   help="baseline angular quadrature order (default 256)")
    p.add_argument("--boundary", type=int, default=32768, dest="boundary",
                   help="boundary circle order for the outer factor")
    p.add_argument("--tol", action="append", default=[], metavar="NAME=V",
                   help="override a named tolerance (repeatable)")
    p.add_argument("--out", default=None, help="write the report to this path")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")


def parse_args(argv: Optional[list[str]] = None) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="disklab",
        description="verification suites for disk quadrature, moment tables, "
                    "and reproducing-kernel identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    _add_common_flags(p_verify)

    p_moments = sub.add_parser("moments", help="emit a moment table for a weight")
    p_moments.add_argument("--route", choices=("auto", "atom", "measure"),
                           default="auto")
    _add_common_flags(p_moments)

    p_dbr = sub.add_parser("dbr", help="kernel-model commands")
    dbr_sub = p_dbr.add_subparsers(dest="dbr_command", required=True)
    p_build = dbr_sub.add_parser("build", help="build and emit a kernel model")
    _add_common_flags(p_build)

    p_weights = sub.add_parser("weights", help="weight utilities")
    w_sub = p_weights.add_subparsers(dest="weights_command", required=True)
    p_info = w_sub.add_parser("info", help="summarize a weight spec")
    _add_common_flags(p_info)

    ns = parser.parse_args(argv)

    config = RunConfig()
    config.command = ns.command
    if ns.command == "dbr":
        config.command = "dbr-build"
    if ns.command == "weights":
        config.command = "weights-info"
    if ns.command == "verify":
        config.suite = ns.suite
    if ns.command == "moments":
        config.route = ns.route
    config.weight_spec = ns.weight
    config.order = ns.order
    config.series_order = ns.series_order
    config.radial_order = ns.radial
    config.angular_order = ns.angular
    config.boundary_order = ns.boundary
    config.out = ns.out
    config.format = ns.format

    if config.order < 1 or config.order > 16:
        parser.error(f"--order must lie in [1, 16], got {config.order}")
    if config.series_order < 8 or config.series_order > 512:
        parser.error(f"--series-order must lie in [8, 512], got {config.series_order}")
    if config.radial_order < 1:
        parser.error("--radial must be >= 1")
    if config.angular_order < 4:
        parser.error("--angular must be >= 4")
    if config.boundary_order > MAX_DISK_NODES:
        parser.error(f"--boundary must be at most {MAX_DISK_NODES}, "
                     f"got {config.boundary_order}")
    for item in ns.tol:
        name, sep, value = item.partition("=")
        if not sep or name not in config.tols:
            parser.error(f"unknown tolerance override {item!r} "
                         f"(known: {', '.join(sorted(config.tols))})")
        try:
            config.tols[name] = float(value)
        except ValueError:
            parser.error(f"bad tolerance value in {item!r}")
        if not 0.0 <= config.tols[name] < math.inf:
            parser.error(f"tolerance in {item!r} must be finite and nonnegative")
    try:
        weight = parse_weight_spec(config.weight_spec)
    except (WeightSpecError, DomainError) as exc:
        parser.error(str(exc))
    nodes = disk_grid_size(config.radial_order, config.angular_order, weight.singular_radii)
    if nodes > MAX_DISK_NODES:
        parser.error(f"the grid for {config.weight_spec!r} needs {nodes} nodes, "
                     f"over the budget {MAX_DISK_NODES}")
    return config


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_verify(config: RunConfig) -> int:
    report, code = run(config)
    if config.format == "json":
        _emit(report.to_json(), config.out)
    elif config.format == "csv":
        _emit(report.to_csv(), config.out)
    else:
        _emit(report.to_text(), config.out)
    return code


def _run_moments(config: RunConfig) -> int:
    weight = parse_weight_spec(config.weight_spec)
    grid = grid_for_weight(weight, config.radial_order, config.angular_order)
    route = config.route
    table = None
    if route in ("auto", "atom"):
        table = dbr_mod.charge_moment_table(weight, config.order)
        if table is None and route == "atom":
            sys.stderr.write("no atomic realization is known for this weight\n")
            return 2
    if table is None:
        table = measure_moments(weight, grid, config.order)
    weak = weak_mult_check(table)
    tensor = tensor_diag_check(table)
    payload = {
        "schema": SCHEMA_VERSION,
        "weight": config.weight_spec,
        "table": table.to_json_dict(),
        "weak_mult_residual": weak.residual,
        "weak_mult_worst": list(weak.worst),
        "tensor_residual": tensor.residual,
        "tensor_worst": list(tensor.worst),
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", config.out)
    return 0


def _run_dbr_build(config: RunConfig) -> int:
    weight = parse_weight_spec(config.weight_spec)
    # build_model reads no quadrature for a weight with known atoms
    grid = None if dbr_mod.riesz_atoms(weight) is not None else grid_for_weight(
        weight, config.radial_order, config.angular_order
    )
    try:
        model = dbr_mod.build_model(
            weight, grid, boundary_order=config.boundary_order,
            order=config.series_order,
        )
    except NotDbrWeightError as exc:  # a valid spec whose weight has no model
        sys.stderr.write(f"error: {exc}\n")
        return 1
    payload = {"schema": SCHEMA_VERSION, **model.to_json_dict()}
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", config.out)
    return 0


def _run_weights_info(config: RunConfig) -> int:
    weight = parse_weight_spec(config.weight_spec)
    grid = grid_for_weight(weight, config.radial_order, config.angular_order)
    fine_grid = grid_for_weight(
        weight, 2 * config.radial_order, 2 * config.angular_order
    )
    mass_fine, mass_refinement_err = richardson_check(
        grid, fine_grid, weight.eval_many
    )
    mass = l1_norm(weight, grid)
    cgrid = make_circle_grid(256)
    worst_margin = float("inf")
    for center, radius in _admissible_lattice(weight):
        rep = superharmonic_test(
            weight, [center], [radius], cgrid, tol=config.tols["superharmonic"]
        )
        worst_margin = min(worst_margin, rep.worst_margin)
    violation = max(0.0, -worst_margin)
    payload = {
        "schema": SCHEMA_VERSION,
        "weight": config.weight_spec,
        "label": weight.label,
        "is_harmonic": weight.is_harmonic,
        "singularities": [[s.real, s.imag] for s in weight.singularities],
        "l1_norm": mass,
        "l1_refined": float(np.real(mass_fine)),
        "l1_refinement_error": mass_refinement_err,
        "analytic_mass": weight.analytic_mass,
        "superharmonic": {
            "passes": violation <= config.tols["superharmonic"],
            "worst_violation": violation,
            "worst_margin": worst_margin,
        },
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", config.out)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    config = parse_args(argv)
    try:
        if config.command == "verify":
            return _run_verify(config)
        if config.command == "moments":
            return _run_moments(config)
        if config.command == "dbr-build":
            return _run_dbr_build(config)
        if config.command == "weights-info":
            return _run_weights_info(config)
        raise DomainError(f"unknown command {config.command!r}")
    except (WeightSpecError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
