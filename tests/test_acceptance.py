"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single summary line (visible with ``pytest -s`` or on
failure) so the suite doubles as a checklist. Run with:

    pytest tests/test_acceptance.py -v
"""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from disklab import (
    Custom,
    HarmonicBoundary,
    LogGreen,
    Scaled,
    factorize,
    geometric_series,
    integrate,
    l1_norm,
    laplacian_identity_check,
    make_disk_grid,
    moment_table_from_berezin,
    point_moments,
    random_non_rank_one_distribution,
    random_rank_one_distribution,
    superharmonic_test,
    szego_model,
    tensor_diag_check,
    verify_h_identity,
    verify_isometry,
    weak_mult_check,
)
from disklab.cli import _isometry_cases
from disklab.dbr import factor_table
from disklab.dirichlet import dilation_report

from conftest import random_disk_points
from reference import centered_moments, rank_one_fit


def _report(n, text):
    print(f"[criterion {n:2d}] PASS: {text}")


@pytest.fixture(scope="module")
def rank_one_tables():
    rng = random.Random(20240501)
    out = []
    for _ in range(50):
        d = random_rank_one_distribution(rng, degree=8)
        out.append((d, point_moments(d, 8)))
    return out


def test_criterion_1_point_table_factorization_exact(rank_one_tables):
    for d, table in rank_one_tables:
        assert d.is_exact
        assert float(d.point.re**2 + d.point.im**2) <= 4.0
        report = weak_mult_check(table)
        assert report.residual == 0.0

    rng = random.Random(20240502)
    for _ in range(50):
        d = random_non_rank_one_distribution(rng, degree=8)
        assert not factorize(d).ok
        report = weak_mult_check(point_moments(d, 8))
        assert report.residual > 0.0
    _report(1, "50 rank-one tables factor with residual exactly 0; "
               "50 non-rank-one tables rejected with positive residual")


def test_criterion_2_tensor_vanishing(rank_one_tables, coarse_disk_grid, uniform):
    for _, table in rank_one_tables:
        if weak_mult_check(table).residual <= 0.0:
            report = tensor_diag_check(table)
            assert report.residual == 0.0

    from disklab import measure_moments

    uniform_table = measure_moments(uniform, coarse_disk_grid, 8)
    report = tensor_diag_check(uniform_table)
    assert not report.residual <= 1e-9
    assert report.residual >= 0.5
    _report(2, "tensor identity vanishes exactly on all multiplicative tables; "
               f"uniform table fails with residual {report.residual:.3f}")


def test_criterion_3_centered_formula_vs_symbolic_differentiation():
    import sympy as sp

    x, y = sp.symbols("x y", real=True)
    ar, ai = sp.Rational(1, 2), sp.Rational(-3, 4)
    a_sym = ar + sp.I * ai

    # sparse coefficient matrix, exact rationals
    c_entries = {
        (0, 0): (Fraction(1), Fraction(0)),
        (1, 0): (Fraction(2, 3), Fraction(-1, 2)),
        (0, 2): (Fraction(-1, 4), Fraction(1)),
        (2, 1): (Fraction(3), Fraction(1, 5)),
    }
    from disklab import GaussianRational, PointDistribution

    coeffs = [[GaussianRational(0) for _ in range(3)] for _ in range(3)]
    for (j, k), (re, im) in c_entries.items():
        coeffs[j][k] = GaussianRational(re, im)
    d = PointDistribution(GaussianRational(Fraction(1, 2), Fraction(-3, 4)), coeffs)
    mine = centered_moments(d, 8)

    # brute force: pair each derivative of the Dirac mass with the centered
    # monomial by Wirtinger-differentiating the monomial in (x, y) and
    # evaluating at the support point, all over exact Gaussian rationals
    pz = sp.Poly(x + sp.I * y - a_sym, x, y, domain="QQ_I")
    pzb = sp.Poly(x - sp.I * y - sp.conjugate(a_sym), x, y, domain="QQ_I")
    half = sp.Rational(1, 2)

    def wirt_z(p):
        return (p.diff(x) - p.diff(y).mul_ground(sp.I)).mul_ground(half)

    def wirt_zbar(p):
        return (p.diff(x) + p.diff(y).mul_ground(sp.I)).mul_ground(half)

    def as_sym(g: GaussianRational):
        return sp.Rational(g.re.numerator, g.re.denominator) + sp.I * sp.Rational(
            g.im.numerator, g.im.denominator
        )

    for m in range(9):
        for n in range(9):
            psi = pz**m * pzb**n
            oracle = sp.Integer(0)
            for (j, k), (re, im) in c_entries.items():
                dpsi = psi
                for _ in range(j):
                    dpsi = wirt_z(dpsi)
                for _ in range(k):
                    dpsi = wirt_zbar(dpsi)
                val = sp.sympify(dpsi.eval({x: ar, y: ai}))
                c_sym = sp.Rational(re.numerator, re.denominator) + sp.I * sp.Rational(
                    im.numerator, im.denominator
                )
                oracle += (-1) ** (j + k) * c_sym * val
            assert sp.expand(as_sym(mine[m][n]) - oracle) == 0
    _report(3, "centered pairings match brute-force Wirtinger differentiation "
               "exactly for all m, n <= 8")


def test_criterion_4_measure_normalization(disk_grid):
    worst_harm = 0.0
    for t in range(8):
        zeta = np.exp(2j * np.pi * (t + 0.35) / 8)
        mass = l1_norm(HarmonicBoundary(zeta), disk_grid)
        worst_harm = max(worst_harm, abs(mass - 1.0))
    assert worst_harm <= 1e-6

    mass_log = l1_norm(LogGreen(0.0), disk_grid)
    assert abs(mass_log - 0.5) <= 1e-6

    # refinement estimate accompanies the interior-singular result
    fine = make_disk_grid(240, 512)
    f = LogGreen(0.0).eval_many
    est = abs(integrate(fine, f) - integrate(disk_grid, f))
    assert est < 1e-6
    _report(4, f"8 boundary-pole masses within {worst_harm:.2e} of 1; "
               f"log mass within {abs(mass_log - 0.5):.2e} of 1/2 at grid 120x256")


def test_criterion_5_laplacian_identity():
    rng = np.random.default_rng(20240505)
    worst = 0.0
    orders = []
    for _ in range(20):
        z0 = complex(random_disk_points(rng, 1, 0.6)[0])
        w0 = complex(random_disk_points(rng, 1, 0.6)[0])
        err = laplacian_identity_check(z0, w0, 1e-3)
        worst = max(worst, err)
        e_half = laplacian_identity_check(z0, w0, 5e-4)
        orders.append(math.log2(err / e_half))
    assert worst <= 1e-5
    mean_order = sum(orders) / len(orders)
    assert mean_order == pytest.approx(2.0, abs=0.2)
    _report(5, f"worst relative error {worst:.2e} at step 1e-3; "
               f"observed convergence order {mean_order:.2f}")


def test_criterion_6_h_identity(disk_grid, harm_weight, log04_weight, log04_grid,
                                 uniform):
    rng = np.random.default_rng(20240506)
    pts = list(random_disk_points(rng, 25, 0.8))

    h_harm = geometric_series(1.0, 64)
    rep_harm = verify_h_identity(harm_weight, h_harm, pts, disk_grid)
    assert rep_harm.worst_error <= 1e-4, rep_harm

    # h recovered from the unit-mass interior atom through the moment route
    from disklab import atoms_table

    w_log = Scaled(1.0 / log04_weight.analytic_mass, log04_weight)
    h_log = factor_table(atoms_table(w_log.atoms, 64), residual_tol=1e-9).h
    np.testing.assert_allclose(h_log.coeffs, geometric_series(0.4, 64).coeffs,
                               atol=1e-12)
    rep_log = verify_h_identity(w_log, h_log, pts, log04_grid)
    assert rep_log.worst_error <= 1e-4, rep_log

    small_grid = make_disk_grid(40, 64)
    table = moment_table_from_berezin(uniform, small_grid, order=3)
    h_fit = rank_one_fit(table)
    rep_uniform = verify_h_identity(uniform, h_fit, pts, small_grid)
    assert not rep_uniform.worst_error <= 1e-2
    assert rep_uniform.worst_error > 1e-2
    _report(6, f"harmonic worst error {rep_harm.worst_error:.2e}, "
               f"log worst error {rep_log.worst_error:.2e} (tol 1e-4); "
               f"uniform rank-one fit fails at {rep_uniform.worst_error:.2f}")


def test_criterion_7_isometry(harm_model, disk_grid):
    worst = 0.0
    for nodes, coeffs in _isometry_cases():
        rep = verify_isometry(harm_model, nodes, coeffs, disk_grid)
        assert rep.relative_gap <= 1e-2, rep
        worst = max(worst, rep.relative_gap)

    wrong = szego_model(harm_model)
    min_gap = float("inf")
    for nodes, coeffs in _isometry_cases():
        rep = verify_isometry(wrong, nodes, coeffs, disk_grid)
        min_gap = min(min_gap, rep.relative_gap)
    assert min_gap > 0.1
    _report(7, f"20 kernel combinations: worst relative gap {worst:.2e} "
               f"(tol 1e-2); wrong symbol floors at gap {min_gap:.2f} > 0.1")


def test_criterion_8_superharmonicity(harm_weight, log04_weight):
    for w in (harm_weight, log04_weight):
        worst_margin, cell = superharmonic_test(w)
        assert worst_margin >= -1e-8, (w.label, worst_margin, cell)

    bowl = Custom(lambda z: np.abs(z) ** 2, label="bowl")
    worst_margin, _ = superharmonic_test(bowl)
    violation = max(0.0, -worst_margin)
    assert violation == pytest.approx(0.0625, abs=1e-12)
    _report(8, "both catalog families pass the 10x5 lattice (margin >= -1e-8); "
               f"|z|^2 fails with violation {violation:.4f}")


def test_criterion_9_dilation_inequality(disk_grid):
    from disklab import TaylorSeries

    rng = np.random.default_rng(20240509)
    radii = (0.2, 0.4, 0.6, 0.8, 0.95)
    weights = (HarmonicBoundary(1.0), HarmonicBoundary(1j))
    worst = 0.0
    for w in weights:
        for _ in range(10):
            coeffs = rng.normal(size=11) + 1j * rng.normal(size=11)
            f = TaylorSeries(list(coeffs) + [0j] * 22)
            report = dilation_report(f, w, radii, disk_grid)
            assert report.max_violation <= 1e-8, (w.label, report)
            worst = max(worst, report.max_violation)
    assert worst <= 1e-8
    _report(9, f"energies nondecreasing in r for 10 polynomials under both "
               f"boundary-pole weights (max violation {worst:.1e})")


def test_criterion_10_determinism(tmp_path):
    import os
    import subprocess
    import sys

    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    # two consecutive runs in differently threaded environments
    for out, threads in ((out1, "1"), (out2, "8")):
        env = dict(os.environ)
        env["OMP_NUM_THREADS"] = threads
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "disklab", "verify", "--suite", "all",
             "--weight", "harm:1,0", "--out", str(out)],
            env=env,
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()

    def strip_timing(path):
        data = json.loads(path.read_text())
        data.pop("timings", None)
        for check in data["checks"]:
            check.pop("elapsed_s", None)
        return json.dumps(data, sort_keys=True).encode()

    assert strip_timing(out1) == strip_timing(out2)
    _report(10, "two full verify runs agree byte-for-byte outside timing "
                "fields, across different thread counts")
