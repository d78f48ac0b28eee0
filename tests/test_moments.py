import gc
import inspect
import json
import math
import random
import re
import time
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disklab import (
    Custom,
    DomainError,
    GaussianRational,
    InconsistentTableError,
    MomentTable,
    NotWeaklyMultiplicativeError,
    PointDistribution,
    SingularIntegrandError,
    SingularPointError,
    atoms_table,
    berezin_transforms,
    disk_moments,
    factorize,
    grid_for_weight,
    harmonic_boundary,
    integrate,
    l1_norm,
    log_green,
    make_disk_grid,
    measure_moments,
    point_moments,
    random_non_rank_one_distribution,
    random_rank_one_distribution,
    tensor_diag_check,
    weak_mult_check,
)
from disklab import dbr, errors, moments
from disklab import quadrature
from disklab.moments import MAX_TENSOR_ENTRIES
from disklab.quadrature import NODE_BLOCK

from exact_complex import Exact
from reference import (
    centered_moments, dirac_table, expanded_berezin, kept_berezin, kept_mass, kept_moments,
    kept_values, rank_one_coeffs,
)


class TestGaussianRational:
    def test_boundary_methods(self):
        b = GaussianRational(2, -1)
        assert complex(b) == 2 - 1j
        assert bool(b) and not GaussianRational(0)
        assert repr(b) == "GaussianRational(Fraction(2, 1), Fraction(-1, 1))"

    def test_carries_no_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        for op in (lambda: a + a, lambda: a - 1, lambda: a * 2, lambda: a**2,
                   lambda: -a, lambda: abs(a)):
            with pytest.raises(TypeError):
                op()
        assert not hasattr(a, "conjugate")

    def test_hash_agrees_with_equality(self):
        # equal values hash alike, so sets and dicts treat them as one key
        assert GaussianRational(3) == 3 and hash(GaussianRational(3)) == hash(3)
        assert len({GaussianRational(3), 3}) == 1
        half = Fraction(1, 2)
        assert GaussianRational(half) == half
        assert hash(GaussianRational(half)) == hash(half)
        assert len({GaussianRational(half), half}) == 1
        z = GaussianRational(half, Fraction(-2, 3))
        assert hash(z) == hash(GaussianRational(Fraction(2, 4), Fraction(-4, 6)))
        assert len({z, GaussianRational(Fraction(2, 4), Fraction(-4, 6)), half}) == 2


class TestPointMoments:
    def test_dirac_table_is_evaluation_functional(self):
        a = Exact(Fraction(1, 2), Fraction(1, 4))
        table = dirac_table(a.gaussian(), 4)
        for j in range(5):
            for k in range(5):
                assert a**j * a.conjugate() ** k == table.entries[j][k]

    def test_first_derivative_of_dirac_at_origin(self):
        # single coefficient c_10: centered pairing is (-1) 1! 0! c_10
        d = PointDistribution(0, [[0, 0], [1, 0]])
        table = point_moments(d, 2)
        assert table.entries[1][0] == GaussianRational(-1)
        assert table.entries[0][0] == GaussianRational(0)

    def test_centered_formula_signs(self):
        d = PointDistribution(0, [[1, 2], [3, 4]])
        c = centered_moments(d, 1)
        assert c[0][0] == GaussianRational(1)
        assert c[0][1] == GaussianRational(-2)
        assert c[1][0] == GaussianRational(-3)
        assert c[1][1] == GaussianRational(4)

    def test_rank_one_tables_factor_exactly(self):
        rng = random.Random(99)
        for _ in range(5):
            d = random_rank_one_distribution(rng, degree=4)
            table = point_moments(d, 6)
            for j in range(7):
                for k in range(7):
                    assert (
                        Exact(table.entries[j][0]) * table.entries[0][k]
                        == table.entries[j][k]
                    )

    def test_float_point_still_works(self):
        d = PointDistribution(0.5 + 0.25j, [[1.0]])
        table = point_moments(d, 3)
        assert not table.is_exact
        assert table.entries[2][1] == pytest.approx(
            (0.5 + 0.25j) ** 2 * np.conj(0.5 + 0.25j)
        )

    @pytest.mark.parametrize("point", [1e200, 1e160 + 1e160j])
    def test_float_table_past_the_float_range_is_refused(self, point):
        # a^3 overflows: the table would hold NaN and inf entries
        d = PointDistribution(point, [[1.0, 0.5], [0.25, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow the float range"):
                point_moments(d, 3)
        assert point_moments(d, 0).entries == ((1.0,),)  # no power of a: in range

    def test_factorial_past_the_float_range_is_refused(self):
        # 171! has no float: casting the centered factors raised a bare OverflowError
        d = PointDistribution(0.5, np.ones((172, 172)).tolist())
        with pytest.raises(DomainError, match="overflow the float range"):
            point_moments(d, 171)

    def test_float_order_past_the_binomial_range_is_refused_before_the_work(self):
        # C(1030, 515) has no float: the O(order^2) build of P took seconds to meet it
        d = PointDistribution(0.5, [[1.0]])
        start = time.perf_counter()
        with pytest.raises(DomainError, match="overflow the float range"):
            point_moments(d, 1100)
        assert time.perf_counter() - start < 1.0


def _reference_point_moments(d, order):
    """Reference: the O(order^4) binomial recentering, entry by entry.

    Exact data runs on ``Exact`` Fraction pairs, float data on Python complex.
    """
    num = Exact if d.is_exact else complex
    centered = [[num(v) for v in row] for row in centered_moments(d, order)]
    a = num(d.point)
    apow, abarpow = [num(1)], [num(1)]
    for _ in range(order):
        apow.append(apow[-1] * a)
        abarpow.append(abarpow[-1] * a.conjugate())
    rows = []
    for j in range(order + 1):
        row = []
        for k in range(order + 1):
            acc = num(0)
            for m in range(j + 1):
                for n in range(k + 1):
                    term = apow[j - m] * abarpow[k - n] * centered[m][n]
                    acc = acc + (math.comb(j, m) * math.comb(k, n)) * term
            row.append(acc.gaussian() if d.is_exact else acc)
        rows.append(tuple(row))
    return tuple(rows)


def _rank_one(point, degree, seed):
    rng = random.Random(seed)
    p = [1] + [GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
               for _ in range(degree)]
    q = [1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)]
    return PointDistribution(point, rank_one_coeffs(p, q))


class TestRecenteringRoute:
    """point_moments' einsum products against the entrywise reference."""

    @pytest.mark.parametrize("seed, generator", [
        (101, random_rank_one_distribution), (202, random_non_rank_one_distribution)])
    def test_seeded_tables_equal_reference(self, seed, generator):
        rng = random.Random(seed)
        for _ in range(10):
            d = generator(rng, degree=8)
            assert point_moments(d, 8).entries == _reference_point_moments(d, 8)

    @pytest.mark.parametrize("order", [0, 1, 3, 4, 7])
    @pytest.mark.parametrize("point", [
        0, 3, GaussianRational(-2, 5), GaussianRational(Fraction(3, 4), Fraction(-5, 6))])
    def test_orders_and_points_equal_reference(self, order, point):
        # degree 4: orders below, at and above the coefficient degree
        d = _rank_one(point, 4, seed=order)
        table = point_moments(d, order)
        assert table.is_exact
        assert table.entries == _reference_point_moments(d, order)

    def test_zero_distribution(self):
        d = PointDistribution(GaussianRational(Fraction(1, 3), 2), [[0, 0], [0, 0]])
        table = point_moments(d, 3)
        assert table.entries == _reference_point_moments(d, 3)
        assert all(v == 0 for row in table.entries for v in row)

    def test_entries_are_reduced_gaussian_rationals(self):
        d = _rank_one(GaussianRational(Fraction(1, 2), Fraction(-1, 3)), 3, seed=4)
        for row in point_moments(d, 5).entries:
            for v in row:
                assert isinstance(v, GaussianRational)
                assert math.gcd(v.re.numerator, v.re.denominator) == 1

    @pytest.mark.parametrize("point", [0.0, 0.7 - 0.4j, -1.3 + 0.9j])
    def test_float_path_matches_reference(self, point):
        rng = np.random.default_rng(8)
        coeffs = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        d = PointDistribution(point, coeffs.tolist())
        got = np.array(point_moments(d, 9).entries)
        ref = np.array(_reference_point_moments(d, 9))
        assert not point_moments(d, 9).is_exact
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _entrywise_p_point_moments(d, order):
    """Reference: ``point_moments`` with P[j][m] = C(j,m) D_a^(order-j+m) a^(j-m)
    filled entry by entry from ``math.comb``, then the same recentering."""
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
    mr, mi = moments._recenter(pr, pi, *moments._centered(d, order))
    return MomentTable._from_parts(mr, mi, d.denom * da ** (2 * order), "point")


@pytest.mark.parametrize("order", [0, 1, 8, 64])
@pytest.mark.parametrize("point", [0.5 + 0.25j, Fraction(3, 10), GaussianRational(-2, 7)])
def test_pascal_rows_of_p_equal_the_entrywise_binomials(point, order):
    if isinstance(point, complex):
        rng = np.random.default_rng(order)
        coeffs = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        d = PointDistribution(point, coeffs.tolist())
    else:
        d = _rank_one(point, 4, seed=order)
    got, ref = point_moments(d, order), _entrywise_p_point_moments(d, order)
    assert got.is_exact == ref.is_exact == (not isinstance(point, complex))
    if got.is_exact:
        assert got.denom == ref.denom
        assert (got.re == ref.re).all() and (got.im == ref.im).all()
    else:
        assert got.re.tobytes() == ref.re.tobytes() and got.im.tobytes() == ref.im.tobytes()


_small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
_gaussian = st.builds(GaussianRational, _small_fractions, _small_fractions)
_points = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 10)),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 10)),
).filter(lambda a: a.re**2 + a.im**2 <= 4)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(point=_points, degree=st.integers(1, 6), data=st.data())
def test_rank_one_tables_are_exact_and_multiplicative(point, degree, data):
    p = [1] + data.draw(st.lists(_gaussian, min_size=degree, max_size=degree))
    q = [1] + data.draw(st.lists(_gaussian, min_size=degree, max_size=degree))
    order = data.draw(st.integers(1, 6))
    d = PointDistribution(point, rank_one_coeffs(p, q))
    table = point_moments(d, order)
    assert table.entries == _reference_point_moments(d, order)
    assert weak_mult_check(table).residual == 0.0
    assert tensor_diag_check(table).residual == 0.0


class TestWeakMult:
    def test_dirac_passes_with_exactly_zero_residual(self):
        report = weak_mult_check(dirac_table(GaussianRational(1, 1), 5))
        assert report.residual == 0.0

    def test_float_dirac_also_exact(self):
        report = weak_mult_check(dirac_table(0.3 - 0.7j, 5))
        assert report.residual == 0.0

    def test_rank_one_exact(self):
        rng = random.Random(5)
        d = random_rank_one_distribution(rng, degree=8)
        report = weak_mult_check(point_moments(d, 8))
        assert report.residual == 0.0

    def test_uniform_measure_fails_at_one_one(self, coarse_disk_grid, uniform):
        table = measure_moments(uniform, coarse_disk_grid, 3)
        report = weak_mult_check(table)
        assert not report.residual <= 1e-9
        assert report.worst == (1, 1)
        assert report.residual == pytest.approx(0.5, abs=1e-10)

    def test_non_rank_one_fails(self):
        rng = random.Random(6)
        d = random_non_rank_one_distribution(rng, degree=4)
        report = weak_mult_check(point_moments(d, 4))
        assert report.residual > 0.0

    def test_spread_measure_residual_persists_under_refinement(self, uniform):
        from disklab import make_disk_grid

        residuals = [
            weak_mult_check(measure_moments(uniform, make_disk_grid(nr, na), 3)).residual
            for nr, na in ((30, 48), (60, 96))
        ]
        assert all(r > 0.4 for r in residuals)



@pytest.mark.parametrize("check", [weak_mult_check, tensor_diag_check])
def test_exact_residual_past_the_float_range_is_read_as_the_float_table_reads_it(check):
    # the squared residual 1e320 has no float, its root 1e160 has; the float
    # table reads 1e160 (weak) and 2e160 (tensor), by np.hypot
    exact = check(MomentTable([[1, 0], [0, 10**160]], 1, "x"))
    assert exact == check(MomentTable([[1.0, 0.0], [0.0, 1e160]], 1, "x"))
    assert exact.residual in (1e160, 2e160)
    # a root past the float range too is inf
    assert check(MomentTable([[1, 0], [0, 10**400]], 1, "x")).residual == math.inf


_API_ERRORS = tuple(cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                    if issubclass(cls, Exception) and cls.__module__ == errors.__name__)
_float_parts = st.sampled_from(
    [0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 1e154, -1e154, 1e300, -1e300,
     1.7e308, -1.7e308])
_exact_parts = st.one_of(st.integers(-10**400, 10**400),
                         st.fractions(-10**400, 10**400, max_denominator=10**6))


@st.composite
def _api_inputs(draw):
    """A point, a coefficient matrix and a square table (each up to 4 by 4) of
    one kind, exact or float, and an order 0-8."""
    part = draw(st.sampled_from([_exact_parts, _float_parts]))
    number = st.builds(GaussianRational if part is _exact_parts else complex, part, part)

    def matrix(rows, cols):
        return draw(st.lists(st.lists(number, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    side = draw(st.integers(1, 4))
    coeffs = matrix(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    return draw(number), coeffs, matrix(side, side), draw(st.integers(0, 8))


def _report_or_error(call, *args):
    """call(*args), or None when it raises one of ``disklab.errors``."""
    try:
        return call(*args)
    except _API_ERRORS:
        return None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(inputs=_api_inputs())
@example(inputs=(1.0, [[1.0]], [[1e200, 1e200], [1e200, 1e200]], 0))  # inf - inf was NaN
def test_the_table_api_returns_or_raises_its_own_errors(inputs):
    point, coeffs, rows, order = inputs
    tables = [_report_or_error(MomentTable, rows, len(rows) - 1, "drawn")]
    with np.errstate(all="ignore"):
        d = _report_or_error(PointDistribution, point, coeffs)
        if d is not None:
            tables.append(_report_or_error(point_moments, d, order))
            found = _report_or_error(factorize, d)
            if found is not None and found.violation is not None:
                assert type(found.violation[2]) is float and not math.isnan(found.violation[2])
        for table in filter(None, tables):
            for check in (weak_mult_check, tensor_diag_check):
                if check is tensor_diag_check and table.is_exact and table.order > 4:
                    continue  # seconds on 400-digit parts at order 8, the same sweep as order 4
                report = _report_or_error(check, table)
                if report is not None:
                    assert type(report.residual) is float and not math.isnan(report.residual)


class TestTensorDiag:
    def test_rank_one_table_vanishes_exactly(self):
        rng = random.Random(12)
        d = random_rank_one_distribution(rng, degree=6)
        report = tensor_diag_check(point_moments(d, 6))
        assert report.residual == 0.0

    def test_dirac_passes(self):
        report = tensor_diag_check(dirac_table(GaussianRational(-1, 2), 4))
        assert report.residual == 0.0

    def test_uniform_measure_fails_with_unit_residual(self, coarse_disk_grid, uniform):
        table = measure_moments(uniform, coarse_disk_grid, 3)
        report = tensor_diag_check(table)
        assert not report.residual <= 1e-9
        # (0,0,0,1) and (0,0,1,0) tie at residual 1; ties resolve to the
        # lexicographically smallest tuple
        assert report.worst == (0, 0, 0, 1)
        assert report.residual == pytest.approx(1.0, abs=1e-9)

    def test_passes_whenever_weak_mult_passes(self):
        rng = random.Random(77)
        for _ in range(10):
            d = random_rank_one_distribution(rng, degree=5)
            table = point_moments(d, 5)
            if weak_mult_check(table).residual <= 0.0:
                assert tensor_diag_check(table).residual <= 0.0

    def test_order_zero_rejected(self):
        with pytest.raises(DomainError):
            tensor_diag_check(dirac_table(0.0, 0))

    def test_order_over_entry_budget_refused_before_allocating(self):
        # order^2 (order+1)^2 entries: the budget admits order 31, not 32
        assert 31**2 * 32**2 <= MAX_TENSOR_ENTRIES < 32**2 * 33**2
        table = atoms_table(((0.3 + 0.1j, 0.5), (-0.2j, 0.5)), 32)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="budget"):
                tensor_diag_check(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        for order in (8, 16):  # the command line's bound is 16
            table = atoms_table(((0.3 + 0.1j, 1.0),), order)
            assert tensor_diag_check(table).residual <= 1e-12

    def test_products_past_the_float_range_read_inf_not_nan(self):
        # each product is inf, and inf - inf is NaN: the worst reads inf, as an
        # exact residual past the float range does; the int table is exact
        with np.errstate(over="ignore", invalid="ignore"):
            report = tensor_diag_check(MomentTable([[1e200, 1e200], [1e200, 1e200]], 1, "x"))
        assert report == ((0, 0, 0, 0), math.inf)
        exact = MomentTable([[10**200, 10**200], [10**200, 10**200]], 1, "x")
        assert tensor_diag_check(exact).residual == 0.0

    def test_nan_table_fails_both_checks(self):
        nan = complex(float("nan"), 0.0)
        table = MomentTable(entries=((nan, nan), (nan, nan)), order=1, provenance="nan")
        assert not weak_mult_check(table).residual <= 1.0
        assert not tensor_diag_check(table).residual <= 1.0


def _reference_weak_mult(table):
    """Reference: the entrywise double loop; the first strict maximum wins."""
    num = Exact if table.is_exact else complex
    E = [[num(v) for v in row] for row in table.entries]
    worst, worst_res = (0, 0), -1.0
    for j in range(table.order + 1):
        for k in range(table.order + 1):
            res = abs(E[j][k] - E[j][0] * E[0][k])
            if res > worst_res:
                worst, worst_res = (j, k), res
    return worst, worst_res


def _reference_tensor_diag(table):
    """Reference: the entrywise quadruple loop over E(j,k,m,n).

    A floating table runs it on Python complex, comparing |E|; an exact one
    on Gaussian integers (int pairs) over the common denominator D,
    comparing |E|^2 exactly and rounding the worst once, over D^4.
    """
    if table.is_exact:
        d = math.lcm(*(math.lcm(v.re.denominator, v.im.denominator)
                       for row in table.entries for v in row))
        E = [[(int(v.re * d), int(v.im * d)) for v in row] for row in table.entries]

        def mul(u, v):
            return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

        def size(t1, t2, t3, t4):
            re = t1[0] + t2[0] - t3[0] - t4[0]
            im = t1[1] + t2[1] - t3[1] - t4[1]
            return re * re + im * im
    else:
        E = table.entries

        def mul(u, v):
            return u * v

        def size(t1, t2, t3, t4):
            return abs(t1 + t2 - t3 - t4)

    worst, worst_size = (0, 0, 0, 0), -1
    for j in range(table.order):
        for k in range(table.order):
            for m in range(table.order + 1):
                for n in range(table.order + 1):
                    val = size(mul(E[j + 1][m], E[k][n]), mul(E[k + 1][m], E[j][n]),
                               mul(E[j][m], E[k + 1][n]), mul(E[k][m], E[j + 1][n]))
                    if val > worst_size:
                        worst, worst_size = (j, k, m, n), val
    if table.is_exact:
        return worst, math.sqrt(Fraction(worst_size, d**4))
    return worst, worst_size


def _assert_sweeps_equal_reference(table):
    weak, tensor = weak_mult_check(table), tensor_diag_check(table)
    assert (weak.worst, weak.residual) == _reference_weak_mult(table)
    assert (tensor.worst, tensor.residual) == _reference_tensor_diag(table)
    assert all(type(i) is int for i in weak.worst + tensor.worst)


class TestSweepsAgainstReference:
    """The two checks' array sweeps against the entrywise loops, bit for bit."""

    @pytest.mark.parametrize("seed, generator", [
        (101, random_rank_one_distribution), (202, random_non_rank_one_distribution)])
    def test_seeded_exact_tables(self, seed, generator):
        rng = random.Random(seed)
        for order in (*range(1, 9), 16):
            table = point_moments(generator(rng, degree=order), order)
            assert table.is_exact
            _assert_sweeps_equal_reference(table)

    @pytest.mark.parametrize("point", [0.0, 0.7 - 0.4j, -1.3 + 0.9j])
    def test_float_point_tables(self, point):
        rng = np.random.default_rng(21)
        for order in (1, 4, 9):
            coeffs = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
            table = point_moments(PointDistribution(point, coeffs.tolist()), order)
            assert not table.is_exact
            _assert_sweeps_equal_reference(table)

    @pytest.mark.parametrize("which", ["uniform", "harm", "log"])
    def test_measure_tables(self, which, coarse_disk_grid, disk_grid, log04_grid,
                            uniform, harm_weight, log04_weight):
        w, grid = {"uniform": (uniform, coarse_disk_grid), "harm": (harm_weight, disk_grid),
                   "log": (log04_weight, log04_grid)}[which]
        for order in (1, 3, 8):
            _assert_sweeps_equal_reference(measure_moments(w, grid, order))

    def test_two_atom_complex_table(self):
        atoms = ((0.3 + 0.5j, 0.25), (np.exp(2.1j), 0.75))
        for order in (1, 5, 8):
            _assert_sweeps_equal_reference(atoms_table(atoms, order))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_atom_tables(self, seed):
        # the worst residual's last bit depends on the order of E's four terms
        rng = np.random.default_rng(seed)
        atoms = [(complex(*rng.normal(size=2)) / 2, float(rng.random())) for _ in range(3)]
        _assert_sweeps_equal_reference(atoms_table(atoms, 8))


class TestTableStorage:
    def _tables(self, coarse_disk_grid, uniform):
        d = _rank_one(GaussianRational(Fraction(1, 2), Fraction(-1, 3)), 3, seed=4)
        return [
            point_moments(d, 4),
            point_moments(PointDistribution(0.5 - 0.2j, [[1.0, 2.0j]]), 4),
            atoms_table(((0.3 + 0.5j, 0.25), (0.9, 0.75)), 4),
            measure_moments(uniform, coarse_disk_grid, 4),
            MomentTable(entries=((GaussianRational(1),),), order=0, provenance="x"),
            MomentTable(entries=((1.5 + 0j,),), order=0, provenance="x"),
        ]

    def test_stored_arrays_are_read_only(self, coarse_disk_grid, uniform):
        for table in self._tables(coarse_disk_grid, uniform):
            for part in (table.re, table.im):
                assert not part.flags.writeable
                with pytest.raises(ValueError):
                    part[0, 0] = 0

    def test_layout_and_denominator(self, coarse_disk_grid, uniform):
        exact, floating = self._tables(coarse_disk_grid, uniform)[:2]
        assert exact.re.dtype == object and exact.im.dtype == object
        assert all(type(v) is int for v in exact.re.flat)
        assert exact.denom > 1
        assert math.gcd(exact.denom, *exact.re.flat, *exact.im.flat) == 1  # lowest terms
        assert floating.re.dtype == np.float64 and floating.denom == 1
        np.testing.assert_array_equal(
            exact.to_complex_array(), np.array(exact.entries, dtype=complex))

    def test_gaussian_rational_rows_stay_exact(self):
        rows = ((GaussianRational(Fraction(1, 3), 2), GaussianRational(0)),
                (GaussianRational(-1, Fraction(5, 6)), GaussianRational(Fraction(7, 4))))
        table = MomentTable(entries=rows, order=1, provenance="rows")
        assert table.is_exact and table.order == 1 and table.provenance == "rows"
        assert table.entries == rows
        assert table.denom == 12

    def test_complex_rows_are_floating(self):
        rows = ((1.0 + 0j, 0.25 - 2j), (-3j, 0.5 + 0.5j))
        table = MomentTable(entries=rows, order=1, provenance="rows")
        assert not table.is_exact
        assert table.entries == rows

    def test_mixed_rows_become_floating(self):
        rows = ((GaussianRational(Fraction(1, 3)), 0.25 - 2j), (3, Fraction(1, 2)))
        table = MomentTable(entries=rows, order=1, provenance="rows")
        assert not table.is_exact
        assert table.entries == ((complex(1 / 3), 0.25 - 2j), (3 + 0j, 0.5 + 0j))
        assert all(type(v) is complex for row in table.entries for v in row)

    @pytest.mark.parametrize("rows, order", [
        (((1.0, 0.0),), 1), (((1.0,), (0.0,)), 1), ((), -1), ((), 0)])
    def test_shape_must_match_order(self, rows, order):
        with pytest.raises(DomainError):
            MomentTable(entries=rows, order=order, provenance="bad")


class TestFactorize:
    def test_dirac(self):
        result = factorize(PointDistribution(0, [[1]]))
        assert result.ok
        assert result.p == (GaussianRational(1),)
        assert result.q == (GaussianRational(1),)

    def test_constructed_rank_one(self):
        p = [1, GaussianRational(0, 2)]
        q = [1, -3]
        d = PointDistribution(0, rank_one_coeffs(p, q))
        result = factorize(d)
        assert result.ok
        assert result.p == (GaussianRational(1), GaussianRational(0, 2))
        assert result.q == (GaussianRational(1), GaussianRational(-3))

    def test_identity_matrix_fails_at_one_one(self):
        result = factorize(PointDistribution(0, [[1, 0], [0, 1]]))
        assert not result.ok
        assert result.violation[:2] == (1, 1)

    def test_round_trip_recovers_factors(self):
        rng = random.Random(31)
        for _ in range(10):
            d = random_rank_one_distribution(rng, degree=6)
            result = factorize(d)
            assert result.ok
            rebuilt = PointDistribution(d.point, rank_one_coeffs(result.p, result.q))
            assert rebuilt.coeffs == d.coeffs

    def test_c00_snaps_within_tolerance(self):
        d = PointDistribution(0.0, [[1.0 + 1e-10, 0.0], [0.0, 0.0]])
        assert factorize(d).ok

    def test_snapped_c00_gives_unit_leading_factors(self):
        d = PointDistribution(0.0, [[1.0 + 1e-10, 0.5j], [-2.0, -1j]])
        result = factorize(d)
        assert result.ok and result.p == (1 + 0j, -2 + 0j) and result.q == (1 + 0j, 0.5j)

    @pytest.mark.parametrize("c00", [
        1 + Fraction(1, 10**10), GaussianRational(1, Fraction(1, 10**10)),
        Fraction(1, 10**10)])
    def test_exact_c00_must_be_exactly_zero_or_one(self, c00):
        d = PointDistribution(0, [[c00, 0], [0, 0]])
        with pytest.raises(NotWeaklyMultiplicativeError, match="within 0"):
            factorize(d)

    def test_bad_c00_rejected(self):
        with pytest.raises(NotWeaklyMultiplicativeError):
            factorize(PointDistribution(0, [[2, 0], [0, 0]]))

    def test_zero_c00_with_nonzero_entries_inconsistent(self):
        with pytest.raises(InconsistentTableError):
            factorize(PointDistribution(0, [[0, 1], [0, 0]]))

    def test_zero_distribution_is_consistent(self):
        result = factorize(PointDistribution(0, [[0, 0], [0, 0]]))
        assert result.ok and result.zero_distribution


class TestPointDistributionData:
    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), complex(0.0, -float("inf")), complex(float("nan"), 1.0)])
    @pytest.mark.parametrize("where", ["point", "c00", "interior"])
    def test_non_finite_data_rejected(self, bad, where):
        point, coeffs = 0.5, [[1, 0], [0, 0]]
        if where == "point":
            point = bad
        elif where == "c00":
            coeffs[0][0] = bad
        else:
            coeffs[1][1] = bad
        with pytest.raises(DomainError, match="finite"):
            PointDistribution(point, coeffs)

    def test_non_finite_entries_cannot_pass_as_rank_one(self):
        # nan > 1e-12 is False, so a NaN entry once factorized with ok=True
        with pytest.raises(DomainError):
            factorize(PointDistribution(0.5, [[1, 0], [0, float("nan")]]))
        with pytest.raises(DomainError):
            factorize(PointDistribution(0.5, [[1, float("inf")], [0, 0]]))

    def test_layout(self):
        d = PointDistribution(GaussianRational(Fraction(1, 2), Fraction(-1, 3)),
                              [[1, Fraction(1, 4)], [GaussianRational(0, Fraction(2, 3)), 0]])
        assert d.is_exact and d.denom == 12 and d.a[2] == 6
        assert d.re.tolist() == [[12, 3], [0, 0]] and d.im.tolist() == [[0, 0], [8, 0]]
        assert all(type(v) is int for v in (*d.re.flat, *d.im.flat, *d.a[0], *d.a[1]))
        floating = PointDistribution(0.5, [[1, 0.25j]])
        assert not floating.is_exact and floating.denom == 1 and floating.a[2] == 1
        assert floating.re.dtype == np.float64 and floating.coeffs == ((1 + 0j, 0.25j),)
        for part in (d.re, d.im, d.a[0], floating.im):
            assert not part.flags.writeable

    def test_seeded_generators_use_fixed_denominators(self):
        rng = random.Random(3)
        d = random_rank_one_distribution(rng, degree=4)
        assert (d.denom, d.a[2]) == (144, 10)
        d = random_non_rank_one_distribution(rng, degree=4)
        assert (d.denom, d.a[2]) == (12, 10)

    def test_rank_one_coeffs_is_one_outer_product(self):
        p, q = [1, Fraction(1, 2), GaussianRational(0, 1)], [1, GaussianRational(2, -1)]
        c = rank_one_coeffs(p, q)
        assert [[Exact(pj) * qk for qk in q] for pj in p] == c
        assert all(isinstance(v, GaussianRational) for row in c for v in row)
        # float data on either side makes the whole product float
        assert rank_one_coeffs([1, 0.5j], [1, Fraction(1, 2)]) == [[1, 0.5], [0.5j, 0.25j]]


def _reference_atoms_table(atoms, order):
    """Reference: the entry-by-entry sum over atoms of m p^j conj(p)^k."""
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
    return tuple(rows)


def _outer_product_atoms_table(atoms, order):
    """Reference: per atom, one full outer product of m p^j and conj(p)^k, summed."""
    total = np.zeros((order + 1, order + 1), dtype=complex)
    for p, m in atoms:
        p = complex(p)
        mpj = np.array([m * p**j for j in range(order + 1)])
        total += mpj[:, None] * np.array([np.conj(p) ** k for k in range(order + 1)])
    return total


class TestAtomsTable:
    @pytest.mark.parametrize("order", [8, 64, 512])
    def test_row_sums_are_bitwise_the_outer_products(self, order):
        rng = np.random.default_rng(order + 1)
        for count in (1, 2, 3):
            points = rng.uniform(0.05, 1.0, count) * np.exp(2j * np.pi * rng.uniform(size=count))
            atoms = tuple(zip(points.tolist(), rng.uniform(0.1, 2.0, count).tolist()))
            ref = _outer_product_atoms_table(atoms, order)
            table = atoms_table(atoms, order)
            assert np.array_equal(table.re, ref.real) and np.array_equal(table.im, ref.imag)

    @pytest.mark.parametrize("atoms", [((1.0, 1.0),), ((0.4, 0.42),)])
    def test_real_atom_is_bit_identical_to_reference(self, atoms):
        table = atoms_table(atoms, 128)
        assert table.entries == _reference_atoms_table(atoms, 128)

    def test_complex_atoms_match_reference(self):
        atoms = ((0.3 + 0.5j, 0.25), (np.exp(2.1j), 0.75))
        got = atoms_table(atoms, 64).to_complex_array()
        ref = np.array(_reference_atoms_table(atoms, 64))
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestMeasureMoments:
    def test_uniform_weight_diagonal(self, coarse_disk_grid, uniform):
        table = measure_moments(uniform, coarse_disk_grid, 4)
        for j in range(5):
            for k in range(5):
                expected = 1.0 / (j + 1) if j == k else 0.0
                assert abs(table.entries[j][k] - expected) < 1e-10

    def test_harmonic_weight_moments(self, disk_grid, harm_weight):
        # angular selection gives zeta^{j-k} / (max(j,k)+1)
        table = measure_moments(harm_weight, disk_grid, 3)
        for j in range(4):
            for k in range(4):
                expected = 1.0 / (max(j, k) + 1)
                assert abs(table.entries[j][k] - expected) < 1e-6

    def test_zero_weight_gives_zero_table(self, coarse_disk_grid):
        from disklab import Custom

        zero = Custom(lambda z: np.zeros(z.shape), label="zero")
        table = measure_moments(zero, coarse_disk_grid, 2)
        assert all(v == 0 for row in table.entries for v in row)

    def test_hermitian_symmetry_for_real_measures(self, coarse_disk_grid, uniform):
        table = measure_moments(uniform, coarse_disk_grid, 4)
        arr = table.to_complex_array()
        np.testing.assert_allclose(arr, arr.conj().T, atol=1e-14)


def _node_sum_moments(w, grid, order):
    """Reference: sum_i omega_i w(z_i) z_i^j conj(z_i)^k, node by node."""
    base = grid.weights * w.eval_many(grid.nodes)
    z = grid.nodes
    return np.array(
        [[np.sum(z**j * np.conj(z) ** k * base) for k in range(order + 1)]
         for j in range(order + 1)]
    )


def _counted(calls, label):
    """The constant weight 1, recording the size of each node block it is evaluated on."""
    return Custom(lambda z: calls.append(z.size) or np.ones(z.shape), label=label)


def _passes(calls, grid):
    """Whole passes over the grid's nodes that the recorded blocks add up to."""
    assert max(calls) <= NODE_BLOCK and sum(calls) % grid.size == 0
    return sum(calls) // grid.size


class TestDiskMoments:
    @pytest.mark.parametrize("which", ["harm", "log"])
    def test_measure_moments_match_node_sum(self, which, disk_grid, harm_weight,
                                            log04_weight, log04_grid):
        w, grid = (harm_weight, disk_grid) if which == "harm" else (log04_weight, log04_grid)
        got = measure_moments(w, grid, 8).to_complex_array()
        ref = _node_sum_moments(w, grid, 8)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_matrix_is_memoised_up_to_largest_order(self, coarse_disk_grid):
        calls = []
        w = _counted(calls, "counted")
        big = disk_moments(w, coarse_disk_grid, 8)
        small = disk_moments(w, coarse_disk_grid, 4)
        assert _passes(calls, coarse_disk_grid) == 1
        assert np.array_equal(small, big[:5, :5])
        # a view of a larger build is bit-identical to a build at its order
        fresh = disk_moments(Custom(lambda z: np.ones(z.shape)), coarse_disk_grid, 4)
        assert np.array_equal(small, fresh)
        assert not small.flags.writeable
        # no node value is kept, so a larger order is a second ring pass
        nine = disk_moments(w, coarse_disk_grid, 9)
        assert _passes(calls, coarse_disk_grid) == 2
        assert np.array_equal(nine[:9, :9], big)
        disk_moments(w, coarse_disk_grid, 9)
        assert _passes(calls, coarse_disk_grid) == 2

    def test_other_weights_do_not_force_a_re_evaluation(self, coarse_disk_grid):
        calls = []
        first = _counted(calls, "first")
        W = disk_moments(first, coarse_disk_grid, 2)
        for _ in range(5):
            disk_moments(Custom(lambda z: np.ones(z.shape)), coarse_disk_grid, 2)
        assert moments._RECORDS[first][coarse_disk_grid][0] is W
        assert disk_moments(first, coarse_disk_grid, 1).base is W
        assert _passes(calls, coarse_disk_grid) == 1

    def test_data_is_freed_with_the_weight(self, coarse_disk_grid):
        w = _counted([], "counted")
        W = weakref.ref(disk_moments(w, coarse_disk_grid, 2))
        berezin_transforms(w, [0.3], coarse_disk_grid)
        key = weakref.ref(w)
        assert coarse_disk_grid in moments._RECORDS[w]
        del w
        gc.collect()
        # the weight and its matrix are gone, and so is its entry: no key is dead
        assert W() is None and key() is None
        assert all(ref() is not None for ref in moments._RECORDS.keyrefs())

    def test_equal_grids_built_apart_share_one_record(self):
        calls = []
        w = _counted(calls, "counted")
        first, second = make_disk_grid(12, 16), make_disk_grid(12, 16)
        assert first is not second and first == second
        W = disk_moments(w, first, 4)
        assert moments._RECORDS[w][second][0] is W and len(moments._RECORDS[w]) == 1
        assert disk_moments(w, second, 4).base is W  # a view of the kept matrix
        assert l1_norm(w, first) == l1_norm(w, second) == W[0, 0].real
        assert _passes(calls, first) == 1  # the ring pass; the mass is its corner

    def test_record_keeps_only_small_results(self, coarse_disk_grid):
        calls = []
        w = _counted(calls, "counted")
        disk_moments(w, coarse_disk_grid, 4)
        assert l1_norm(w, coarse_disk_grid) == pytest.approx(1.0, abs=1e-12)
        assert l1_norm(w, coarse_disk_grid) == l1_norm(w, coarse_disk_grid)
        disk_moments(w, coarse_disk_grid, 3)
        assert _passes(calls, coarse_disk_grid) == 1  # the ring pass; the mass is its corner
        assert list(moments._RECORDS[w]) == [coarse_disk_grid]
        W, peak = moments._RECORDS[w][coarse_disk_grid]  # no mass, no values
        assert peak == 1.0
        assert W.shape == (5, 5)
        assert l1_norm(w, coarse_disk_grid) == W[0, 0].real

    def test_non_finite_weight_raises(self, coarse_disk_grid):
        bad = coarse_disk_grid.nodes[7]
        w = Custom(lambda z: np.where(z == bad, np.nan, 1.0), label="spike")
        with pytest.raises(SingularIntegrandError, match=r"\(index 7\)"):
            measure_moments(w, coarse_disk_grid, 2)

    @pytest.mark.parametrize("route", ["disk_moments", "berezin_transforms"])
    def test_non_finite_weight_names_its_node_past_the_first_block(self, route,
                                                                   coarse_disk_grid):
        index = 2 * NODE_BLOCK + 13
        bad = coarse_disk_grid.nodes[index]
        w = Custom(lambda z: np.where(z == bad, np.inf, 1.0), label="spike")
        with pytest.raises(SingularIntegrandError) as err:
            if route == "disk_moments":
                disk_moments(w, coarse_disk_grid, 2)
            else:
                berezin_transforms(w, [0.3], coarse_disk_grid)
        assert f"at node {complex(bad)!r} (index {index})" in str(err.value)

    def test_scaled_weight_whose_values_overflow_raises(self, coarse_disk_grid, harm_weight):
        # the matrix, 1e308 times the inner one, can be finite; the values are not
        w = harm_weight.scaled(1e308)
        with pytest.raises(SingularIntegrandError, match=r"scaled:1e\+308:harm:1,0"):
            disk_moments(w, coarse_disk_grid, 2)

    def test_scaled_value_range_is_the_range_of_its_values(self, coarse_disk_grid):
        inner = Custom(lambda z: 1.0 - np.abs(z) ** 2, label="cap")
        for w in (inner.scaled(2.5), inner.scaled(1 / 3).scaled(3.0)):
            disk_moments(w, coarse_disk_grid, 0)  # the inner ring pass records the peak
            peak = moments._RECORDS[inner][coarse_disk_grid][1]
            for c in w.factors:
                peak = c * peak
            assert peak == np.max(np.abs(kept_values(w, coarse_disk_grid)))

    @staticmethod
    def _nested_base(which):
        """A fresh base weight, with an empty record, and a grid for it."""
        w = log_green(0.4) if which == "atomic" else Custom(
            lambda z: 1.0 - np.abs(z) ** 2, label="cap")
        return w, grid_for_weight(w, 40, 64)

    @pytest.mark.parametrize("which", ["atomic", "custom"])
    def test_nested_scales_and_normalize_share_one_ring_pass_on_the_base(self, which,
                                                                          monkeypatch):
        base, grid = self._nested_base(which)
        passes, ring_moments = [], moments._ring_moments
        monkeypatch.setattr(moments, "_ring_moments",
                            lambda w, *args: passes.append(w) or ring_moments(w, *args))
        nested = base.scaled(0.5).scaled(3.0)
        disk_moments(nested, grid, 8)
        for w in (base, base.scaled(0.5), moments.normalize(nested, grid)):
            assert w.base is base
            disk_moments(w, grid, 8)
        assert passes == [base]

    @pytest.mark.parametrize("factors", [(0.5, 3.0), (1 / 3, 0.7)])
    @pytest.mark.parametrize("which", ["atomic", "custom"])
    def test_nested_scales_are_their_factors_applied_innermost_first(self, which, factors):
        base, grid = self._nested_base(which)
        w = base.scaled(factors[0]).scaled(factors[1])
        W = disk_moments(w, grid, 8)
        expected = factors[1] * (factors[0] * disk_moments(base, grid, 8))
        assert W.tobytes() == expected.tobytes() and not W.flags.writeable
        peak = moments._RECORDS[base][grid][1]
        assert peak == np.max(np.abs(kept_values(base, grid)))
        assert factors[1] * (factors[0] * peak) == np.max(np.abs(kept_values(w, grid)))

    @pytest.mark.parametrize("which", ["atomic", "custom"])
    def test_overflow_in_a_nested_scale_names_the_innermost_overflowing_one(self, which):
        # the harmonic values pass 2e3 near the pole: 1e308 overflows them, and
        # 1e-300 cannot bring them back; the cap's values near 1 overflow at
        # 2.5e308, and its matrix, of mass 0.5, does not
        if which == "atomic":
            w, grid = harmonic_boundary(1.0), make_disk_grid(40, 64)
            nested, label = w.scaled(1e308).scaled(1e-300), "scaled:1e+308:harm:1,0"
        else:
            w, grid = self._nested_base(which)
            nested, label = w.scaled(1e300).scaled(2.5e8), "scaled:2.5e+08:scaled:1e+300:cap"
        with pytest.raises(SingularIntegrandError,
                           match=f"^values of {re.escape(label)} are not finite on the grid$"):
            disk_moments(nested, grid, 2)


def _reference_ring_dft(vals, grid, order):
    """Reference: the complex ring DFT over every d = j - k in -order..order."""
    n, ds = np.arange(order + 1), np.arange(-order, order + 1)
    toeplitz = n[:, None] - n[None, :] + order  # position of d = j - k in ds
    W = np.zeros((order + 1, order + 1), dtype=complex)
    nodes, weights = grid.nodes, grid.weights
    for start, m in zip(np.cumsum((0,) + grid.ring_counts[:-1]), grid.ring_counts):
        # unnormalised inverse DFT: sum_t w_t exp(2 pi i d t / m)
        S = np.fft.ifft(vals[start : start + m], norm="forward")[ds % m]
        S *= weights[start] * np.exp(1j * np.pi * ds / m)
        rp = abs(nodes[start]) ** n
        W += (rp[:, None] * rp[None, :]) * S[toeplitz]
    return W


def _assert_matches_reference(w, grid, order):
    W = disk_moments(w, grid, order)
    ref = _reference_ring_dft(w.eval_many(grid.nodes), grid, order)
    assert np.max(np.abs(W - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(W))
    assert np.array_equal(W, W.conj().T)
    assert np.all(W.diagonal().imag == 0.0)


class TestRealRingDft:
    @pytest.mark.parametrize("order", [8, 63, 255])
    @pytest.mark.parametrize("which", ["harm", "log", "uniform"])
    def test_matches_complex_ring_dft(self, which, order, disk_grid, harm_weight,
                                      log04_weight, log04_grid, uniform):
        w, grid = {
            "harm": (harm_weight, disk_grid),
            "log": (log04_weight, log04_grid),
            "uniform": (uniform, disk_grid),
        }[which]
        _assert_matches_reference(w, grid, order)

    @pytest.mark.parametrize("weight", [harmonic_boundary(1j), log_green(0.3 - 0.2j)])
    def test_aliased_rings(self, weight):
        # inner rings of 8 or 10 nodes at order 40: d runs past m/2 and past m
        grid = grid_for_weight(weight, 6, 8)
        assert min(grid.ring_counts) <= 10
        _assert_matches_reference(weight, grid, 40)

    def test_lower_order_view_is_bit_identical_on_aliased_rings(self):
        grid = make_disk_grid(6, 8)
        big = disk_moments(harmonic_boundary(-1.0), grid, 40)
        fresh = disk_moments(harmonic_boundary(-1.0), grid, 12)
        assert np.array_equal(big[:13, :13], fresh)

    def test_scaled_weight_reuses_its_inner_matrix(self, coarse_disk_grid):
        calls = []
        inner = Custom(lambda z: calls.append(z.size) or 1.0 - np.abs(z) ** 2, label="counted")
        scaled = inner.scaled(2.5)
        W = disk_moments(scaled, coarse_disk_grid, 8)
        assert np.array_equal(W, 2.5 * disk_moments(inner, coarse_disk_grid, 8))
        assert _passes(calls, coarse_disk_grid) == 1
        assert not W.flags.writeable
        # formed from the inner matrix on each call; the scaled weight keeps none
        assert np.array_equal(disk_moments(scaled, coarse_disk_grid, 6), W[:7, :7])
        assert scaled not in moments._RECORDS
        # the inner weight built first: the scaled matrix still needs no evaluation
        other = inner.scaled(0.5)
        disk_moments(other, coarse_disk_grid, 4)
        assert _passes(calls, coarse_disk_grid) == 1


def _direct_circle_sums(x, order):
    """Reference: sum_t x_t u_t^d term by term, u_t^d from its exact angle."""
    m, t = x.size, np.arange(x.size)
    return np.array([
        np.sum(x * np.exp(1j * np.pi * (d * (2 * t + 1) % (2 * m)) / m))
        for d in range(order + 1)
    ])


def _assert_circle_sums_match_reference(w, grid, order):
    vals, start = kept_values(w, grid), 0
    for r, m in zip(grid.ring_radii, grid.ring_counts):
        x = vals[start : start + m]
        got = np.empty((1, order + 1), dtype=complex)
        quadrature._circle_sums(m, (r,), w.eval_many, got)
        assert np.max(np.abs(got - _direct_circle_sums(x, order))) <= 2e-15 * np.sum(np.abs(x))
        start += m


def _split(m):
    """Column length L of a ring of m nodes: its largest divisor not above NODE_BLOCK."""
    return next(n for n in range(min(m, NODE_BLOCK), 0, -1) if m % n == 0)


class TestSplitRingDft:
    """``quadrature._circle_sums``: a ring's DFT in column blocks of at most
    ``NODE_BLOCK`` nodes, the weight evaluated on each block as it is read."""

    @pytest.mark.parametrize("order", [8, 63])
    @pytest.mark.parametrize("which", ["harm", "log", "uniform"])
    def test_matches_direct_sums(self, which, order, disk_grid, harm_weight,
                                 log04_weight, log04_grid, uniform):
        w, grid = {
            "harm": (harm_weight, disk_grid),
            "log": (log04_weight, log04_grid),
            "uniform": (uniform, disk_grid),
        }[which]
        assert max(grid.ring_counts) > 16 * NODE_BLOCK  # split into 20 or more columns
        _assert_circle_sums_match_reference(w, grid, order)

    @pytest.mark.parametrize("weight", [harmonic_boundary(1j), log_green(0.3 - 0.2j)])
    def test_matches_direct_sums_on_aliased_rings(self, weight):
        grid = grid_for_weight(weight, 6, 8)
        assert min(grid.ring_counts) <= 10
        _assert_circle_sums_match_reference(weight, grid, 40)

    def test_lower_order_view_is_bit_identical_on_the_default_grid(self, disk_grid):
        big = disk_moments(harmonic_boundary(1.0), disk_grid, 63)
        fresh = disk_moments(harmonic_boundary(1.0), disk_grid, 8)
        assert np.array_equal(big[:9, :9], fresh)

    @pytest.mark.parametrize("order", [8, 63])
    def test_ring_pass_holds_no_node_sized_temporary(self, order, disk_grid):
        # the weight's values are evaluated inside the pass, so they count too
        assert max(disk_grid.ring_counts) * 8 > 2**20  # the largest ring's values alone
        moments._ring_moments(harmonic_boundary(1.0), disk_grid, order)
        tracemalloc.start()
        try:
            moments._ring_moments(harmonic_boundary(1.0), disk_grid, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**19


def _ring_pass_nodes(grid):
    """The nodes the ring pass evaluates the weight on, put back in grid order.

    A chunk holds columns of one ring, or whole rings of one count, a column
    each."""
    seen = []
    disk_moments(Custom(lambda z: seen.append(z.copy()) or np.ones(z.shape)), grid, 0)
    rings = []
    while len(rings) < len(grid.ring_counts):
        m = grid.ring_counts[len(rings)]
        split = _split(m)
        chunk = seen.pop(0).reshape(split, -1)
        if split == m:  # whole rings
            assert set(grid.ring_counts[len(rings) : len(rings) + chunk.shape[1]]) == {m}
            rings += list(chunk.T)
            continue
        columns, width = [chunk], chunk.shape[1]
        while width < m // split:
            columns.append(seen.pop(0).reshape(split, -1))
            width += columns[-1].shape[1]
        rings.append(np.concatenate(columns, axis=1).ravel())
    assert seen == []
    return np.concatenate(rings)


class TestGridPassesKeepNoValues:
    """Each pass forms its nodes and evaluates the weight one block at a
    time; a weight's record per grid keeps W, whose corner is its mass and
    from which its Berezin values are read, bit for bit what kept node
    values give, and the largest |value| its pass met."""

    def test_records_hold_no_node_sized_array(self, disk_grid):
        from disklab.cli import _h_identity_points

        w = harmonic_boundary(1.0)  # a fresh object: an empty record
        points = _h_identity_points(1.0)
        n = max(dbr._berezin_order(v) for v in points)
        assert disk_grid.size == 290_926 and len(points) == 25 and n == 192
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            measure_moments(w, disk_grid, 8)
            l1_norm(w, disk_grid)
            berezin_transforms(w, points, disk_grid)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        arrays = [v for record in moments._RECORDS[w].values() for v in record
                  if isinstance(v, np.ndarray)]
        assert [a.shape for a in arrays] == [(n + 1, n + 1)]  # W alone
        # one kept complex W, and the modules a first pass imports; kept node
        # values alone would be 8 * 290,926 bytes
        assert retained <= 16 * (n + 1) ** 2 + 2**17

    @pytest.mark.parametrize("which", ["disk", "log", "coarse"])
    def test_ring_pass_nodes_are_the_grid_nodes_bit_for_bit(self, which, disk_grid,
                                                           log04_grid, coarse_disk_grid):
        grid = {"disk": disk_grid, "log": log04_grid, "coarse": coarse_disk_grid}[which]
        assert _ring_pass_nodes(grid).tobytes() == grid.nodes.tobytes()

    def test_ring_pass_nodes_on_an_odd_column_length(self):
        m = 13_122  # 2 * 3^8: its columns are L = 2,187 nodes long, an odd length
        grid = quadrature.DiskGrid((0.5,), (1.0 / m,), (m,), 1, m)
        assert _split(m) == 2187
        assert _ring_pass_nodes(grid).tobytes() == grid.nodes.tobytes()

    @pytest.mark.parametrize("which", ["harm", "log", "uniform", "scaled"])
    def test_results_equal_kept_values_reference(self, which, disk_grid, log04_grid):
        w, grid = {
            "harm": (harmonic_boundary(1.0), disk_grid),
            "log": (log_green(0.4), log04_grid),
            "uniform": (Custom(lambda z: np.ones(z.shape)), disk_grid),
            "scaled": (log_green(0.4).scaled(2.5), log04_grid),
        }[which]
        points = [0.3, 0.5j, -0.2 + 0.7j, 0.79]
        orders = [dbr._berezin_order(v) for v in points]
        vals = kept_values(w, grid)
        # a scaled weight's W is its base's times its factors, as before
        W = kept_moments(kept_values(w.base, grid), grid, max(orders))
        for c in w.factors:
            W = c * W
        assert np.array_equal(disk_moments(w, grid, 63), W[:64, :64])
        # the order a verify run asks of the ring pass, a new pass past 63
        assert disk_moments(w, grid, max(orders)).tobytes() == W.tobytes()
        assert l1_norm(w, grid) == W[0, 0].real
        # the blocked sum, the mass's cross-check, keeps its own reference
        assert integrate(grid, w.eval_many) == kept_mass(vals, grid)
        got = berezin_transforms(w, points, grid)
        assert np.array_equal(got, expanded_berezin(W, points, orders))
        # the direct kernel sum agrees within the tail bound (half an eps)
        # plus roundoff
        sweep = kept_berezin(vals, grid, points)
        assert np.max(np.abs(got - sweep) / sweep) <= 64 * np.finfo(float).eps

    @pytest.mark.parametrize("shape", [(120, 256), (240, 512)])
    def test_batched_rings_equal_kept_values_reference(self, shape):
        # the first run of rings of one count spans several chunks of
        # NODE_BLOCK // m rings; at order 0 numpy's einsum takes its dot kernel
        grid = make_disk_grid(*shape)
        m, run = grid.ring_counts[0], grid.ring_counts.count(grid.ring_counts[0])
        assert m == shape[1] and run > NODE_BLOCK // m
        vals = kept_values(harmonic_boundary(1.0), grid)
        for order in (0, 1, 192):
            W = disk_moments(harmonic_boundary(1.0), grid, order)  # a fresh pass
            assert W.tobytes() == kept_moments(vals, grid, order).tobytes()

    def test_rings_of_one_count_past_a_node_block_keep_their_sums(self):
        # two rings of 8,192 nodes: each one's columns, and nothing of the other
        m = 2 * NODE_BLOCK
        grid = quadrature.DiskGrid((0.5, 0.75), (0.3 / m, 0.7 / m), (m, m), 2, m)
        w = log_green(0.4)
        W = disk_moments(w, grid, 40)
        assert W.tobytes() == kept_moments(kept_values(w, grid), grid, 40).tobytes()

    def test_first_bad_node_of_a_batched_chunk_in_grid_order_is_named(self, disk_grid):
        # rings 18 and 21 share a chunk of 16 rings of 256 nodes, one per
        # column: ring 21's node 3 is evaluated before ring 18's node 200
        assert disk_grid.ring_counts[:32] == (256,) * 32
        nodes = disk_grid.nodes
        early, late = 18 * 256 + 200, 21 * 256 + 3
        bad = nodes[[early, late]]
        w = Custom(lambda z: np.where(np.isin(z, bad), np.nan, 1.0), label="spikes")
        with pytest.raises(SingularIntegrandError) as err:
            disk_moments(w, disk_grid, 8)
        assert str(err.value) == (
            f"integrand is not finite at node {complex(nodes[early])!r} (index {early})"
        )

    @pytest.mark.parametrize("route", ["disk_moments", "l1_norm", "berezin_transforms"])
    def test_first_bad_node_in_grid_order_is_named(self, route, coarse_disk_grid):
        # the last ring, 21,600 nodes in columns of 3,600: its column 0 (row 100)
        # reaches the ring pass before column 5 (row 0), which comes first in
        # grid order
        grid, m = coarse_disk_grid, coarse_disk_grid.ring_counts[-1]
        assert _split(m) == 3600
        first = grid.size - m
        nodes = grid.nodes
        early, late = first + 5, first + 100 * (m // 3600)
        bad = {nodes[early], nodes[late]}
        w = Custom(lambda z: np.array([np.nan if p in bad else 1.0 for p in z]),
                   label="spikes")
        with pytest.raises(SingularIntegrandError) as err:
            if route == "disk_moments":
                disk_moments(w, grid, 2)
            elif route == "l1_norm":
                l1_norm(w, grid)
            else:
                berezin_transforms(w, [0.3], grid)
        assert f"at node {complex(nodes[early])!r} (index {early})" in str(err.value)

    @pytest.mark.parametrize("route", ["disk_moments", "l1_norm"])
    def test_a_singular_node_stops_the_pass_at_its_block(self, route, coarse_disk_grid):
        grid = coarse_disk_grid
        node = grid.nodes[grid.size // 2]
        sizes = []
        w = Custom(lambda z: sizes.append(z.size) or np.ones(z.shape), singularities=[node])
        with pytest.raises(SingularPointError) as err:
            disk_moments(w, grid, 2) if route == "disk_moments" else l1_norm(w, grid)
        assert str(err.value) == f"custom evaluated at singular point {complex(node)!r}"
        # whole blocks and columns only: the weight's error is not retried node by node
        assert min(sizes) > 1


class TestSerialization:
    def test_json_round_trip(self, coarse_disk_grid, uniform):
        table = measure_moments(uniform, coarse_disk_grid, 3)
        data = json.loads(json.dumps(table.to_json_dict()))
        assert set(data) == {"order", "re", "im", "provenance"}
        arr = table.to_complex_array()
        assert data["re"] == arr.real.tolist() and data["im"] == arr.imag.tolist()
        assert data["order"] == 3 and data["provenance"] == table.provenance

    def test_exact_table_serializes_numerically(self):
        table = dirac_table(GaussianRational(Fraction(1, 3)), 2)
        data = table.to_json_dict()
        assert data["re"][1][0] == pytest.approx(1 / 3)


class TestGenerators:
    def test_rank_one_generator_properties(self):
        rng = random.Random(1)
        for _ in range(10):
            d = random_rank_one_distribution(rng, degree=8)
            assert d.is_exact
            assert d.coeffs[0][0] == GaussianRational(1)
            assert float(d.point.re**2 + d.point.im**2) <= 4.0 + 1e-12
            assert factorize(d).ok

    def test_non_rank_one_generator_properties(self):
        rng = random.Random(2)
        for _ in range(10):
            d = random_non_rank_one_distribution(rng, degree=8)
            assert d.is_exact
            assert not factorize(d).ok
