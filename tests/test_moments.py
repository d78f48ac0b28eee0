import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
    atoms_table,
    centered_moments,
    dirac_table,
    disk_moments,
    factorize,
    measure_moments,
    point_moments,
    random_non_rank_one_distribution,
    random_rank_one_distribution,
    rank_one_coeffs,
    tensor_diag_check,
    weak_mult_check,
)
from disklab.moments import _MOMENT_MEMO_SIZE, weight_values


class TestGaussianRational:
    def test_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        b = GaussianRational(2, -1)
        assert (a + b).re == Fraction(5, 2)
        assert (a * b).im == Fraction(1, 6)
        assert (a - a) == GaussianRational(0)
        assert complex(b) == 2 - 1j

    def test_powers_and_conjugate(self):
        a = GaussianRational(1, 1)
        assert a**2 == GaussianRational(0, 2)
        assert a.conjugate() * a == GaussianRational(2)
        assert abs(GaussianRational(3, 4)) == 5.0

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
        a = GaussianRational(Fraction(1, 2), Fraction(1, 4))
        table = dirac_table(a, 4)
        for j in range(5):
            for k in range(5):
                assert table.entries[j][k] == a**j * a.conjugate() ** k

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
                        table.entries[j][k]
                        == table.entries[j][0] * table.entries[0][k]
                    )

    def test_float_point_still_works(self):
        d = PointDistribution(0.5 + 0.25j, [[1.0]])
        table = point_moments(d, 3)
        assert not table.is_exact
        assert table.entries[2][1] == pytest.approx(
            (0.5 + 0.25j) ** 2 * np.conj(0.5 + 0.25j)
        )


def _reference_point_moments(d, order):
    """Reference: the O(order^4) binomial recentering, entry by entry."""
    centered = centered_moments(d, order)
    a = d.point
    one = GaussianRational(1) if d.is_exact else 1.0 + 0j
    apow, abarpow = [one], [one]
    for _ in range(order):
        apow.append(apow[-1] * a)
        abarpow.append(abarpow[-1] * a.conjugate())
    rows = []
    for j in range(order + 1):
        row = []
        for k in range(order + 1):
            acc = GaussianRational(0) if d.is_exact else 0j
            for m in range(j + 1):
                for n in range(k + 1):
                    term = apow[j - m] * abarpow[k - n] * centered[m][n]
                    acc = acc + (math.comb(j, m) * math.comb(k, n)) * term
            row.append(acc)
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
    """point_moments' triangular products against the entrywise reference."""

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


_small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
_gaussian = st.builds(GaussianRational, _small_fractions, _small_fractions)
_points = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 10)),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 10)),
).filter(lambda a: a.abs2() <= 4)


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
        assert report.passes and report.residual == 0.0

    def test_float_dirac_also_exact(self):
        report = weak_mult_check(dirac_table(0.3 - 0.7j, 5))
        assert report.residual == 0.0

    def test_rank_one_exact(self):
        rng = random.Random(5)
        d = random_rank_one_distribution(rng, degree=8)
        report = weak_mult_check(point_moments(d, 8))
        assert report.passes and report.residual == 0.0

    def test_uniform_measure_fails_at_one_one(self, coarse_disk_grid, uniform):
        table = measure_moments(uniform, coarse_disk_grid, 3)
        report = weak_mult_check(table, tol=1e-9)
        assert not report.passes
        assert report.worst == (1, 1)
        assert report.residual == pytest.approx(0.5, abs=1e-10)

    def test_non_rank_one_fails(self):
        rng = random.Random(6)
        d = random_non_rank_one_distribution(rng, degree=4)
        report = weak_mult_check(point_moments(d, 4))
        assert not report.passes and report.residual > 0.0

    def test_spread_measure_residual_persists_under_refinement(self, uniform):
        from disklab import make_disk_grid

        residuals = [
            weak_mult_check(measure_moments(uniform, make_disk_grid(nr, na), 3)).residual
            for nr, na in ((30, 48), (60, 96))
        ]
        assert all(r > 0.4 for r in residuals)


class TestTensorDiag:
    def test_rank_one_table_vanishes_exactly(self):
        rng = random.Random(12)
        d = random_rank_one_distribution(rng, degree=6)
        report = tensor_diag_check(point_moments(d, 6))
        assert report.passes and report.residual == 0.0

    def test_dirac_passes(self):
        report = tensor_diag_check(dirac_table(GaussianRational(-1, 2), 4))
        assert report.passes and report.residual == 0.0

    def test_uniform_measure_fails_with_unit_residual(self, coarse_disk_grid, uniform):
        table = measure_moments(uniform, coarse_disk_grid, 3)
        report = tensor_diag_check(table, tol=1e-9)
        assert not report.passes
        # (0,0,0,1) and (0,0,1,0) tie at residual 1; ties resolve to the
        # lexicographically smallest tuple
        assert report.worst == (0, 0, 0, 1)
        assert report.residual == pytest.approx(1.0, abs=1e-9)

    def test_passes_whenever_weak_mult_passes(self):
        rng = random.Random(77)
        for _ in range(10):
            d = random_rank_one_distribution(rng, degree=5)
            table = point_moments(d, 5)
            if weak_mult_check(table).passes:
                assert tensor_diag_check(table).passes

    def test_order_zero_rejected(self):
        with pytest.raises(DomainError):
            tensor_diag_check(dirac_table(0.0, 0))


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

    def test_bad_c00_rejected(self):
        with pytest.raises(NotWeaklyMultiplicativeError):
            factorize(PointDistribution(0, [[2, 0], [0, 0]]))

    def test_zero_c00_with_nonzero_entries_inconsistent(self):
        with pytest.raises(InconsistentTableError):
            factorize(PointDistribution(0, [[0, 1], [0, 0]]))

    def test_zero_distribution_is_consistent(self):
        result = factorize(PointDistribution(0, [[0, 0], [0, 0]]))
        assert result.ok and result.zero_distribution


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


class TestAtomsTable:
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
        w = Custom(lambda z: calls.append(1) or np.ones(z.shape), label="counted")
        big = disk_moments(w, coarse_disk_grid, 8)
        small = disk_moments(w, coarse_disk_grid, 4)
        assert calls == [1]
        assert np.array_equal(small, big[:5, :5])
        # a view of a larger build is bit-identical to a build at its order
        fresh = disk_moments(Custom(lambda z: np.ones(z.shape)), coarse_disk_grid, 4)
        assert np.array_equal(small, fresh)
        assert not small.flags.writeable
        disk_moments(w, coarse_disk_grid, 9)
        assert calls == [1, 1]

    def test_memo_keeps_a_fixed_number_of_matrices(self, coarse_disk_grid):
        calls = []
        first = Custom(lambda z: calls.append(1) or np.ones(z.shape), label="first")
        disk_moments(first, coarse_disk_grid, 2)
        for _ in range(_MOMENT_MEMO_SIZE):
            disk_moments(Custom(lambda z: np.ones(z.shape)), coarse_disk_grid, 2)
        disk_moments(first, coarse_disk_grid, 2)
        assert calls == [1, 1]

    def test_node_values_are_kept_in_the_same_memo(self, coarse_disk_grid):
        calls = []
        w = Custom(lambda z: calls.append(1) or np.ones(z.shape), label="counted")
        vals = weight_values(w, coarse_disk_grid)
        assert weight_values(w, coarse_disk_grid) is vals
        disk_moments(w, coarse_disk_grid, 4)  # reads the kept values
        assert calls == [1]
        for _ in range(_MOMENT_MEMO_SIZE):
            weight_values(Custom(lambda z: np.ones(z.shape)), coarse_disk_grid)
        weight_values(w, coarse_disk_grid)
        assert calls == [1, 1]

    def test_grid_without_ring_layout_rejected(self, coarse_disk_grid, uniform):
        from disklab import DiskGrid

        bare = DiskGrid(coarse_disk_grid.nodes.copy(), coarse_disk_grid.weights.copy(),
                        coarse_disk_grid.radial_order, coarse_disk_grid.angular_order)
        with pytest.raises(DomainError):
            disk_moments(uniform, bare, 2)

    def test_non_finite_weight_raises(self, coarse_disk_grid):
        bad = coarse_disk_grid.nodes[7]
        w = Custom(lambda z: np.where(z == bad, np.nan, 1.0), label="spike")
        with pytest.raises(SingularIntegrandError, match=r"\(index 7\)"):
            measure_moments(w, coarse_disk_grid, 2)


class TestSerialization:
    def test_json_round_trip(self, coarse_disk_grid, uniform):
        table = measure_moments(uniform, coarse_disk_grid, 3)
        blob = table.to_json()
        data = json.loads(blob)
        assert set(data) == {"order", "re", "im", "provenance"}
        back = MomentTable.from_json_dict(data)
        np.testing.assert_allclose(
            back.to_complex_array(), table.to_complex_array(), atol=0
        )
        assert back.provenance == table.provenance

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
            assert float(d.point.abs2()) <= 4.0 + 1e-12
            assert factorize(d).ok

    def test_non_rank_one_generator_properties(self):
        rng = random.Random(2)
        for _ in range(10):
            d = random_non_rank_one_distribution(rng, degree=8)
            assert d.is_exact
            assert not factorize(d).ok
