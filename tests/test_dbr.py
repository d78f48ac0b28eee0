import cmath
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from disklab import (
    AtomicWeight,
    Custom,
    DegenerateNodeSetError,
    DegenerateWeightError,
    DomainError,
    GaussianRational,
    MomentTable,
    NotDbrWeightError,
    SingularIntegrandError,
    TaylorSeries,
    atoms_table,
    berezin_transform,
    berezin_transforms,
    build_model,
    geometric_series,
    grid_for_weight,
    harmonic_boundary,
    integrate,
    kernel,
    kernel_series,
    laplacian_identity_check,
    log_green,
    make_disk_grid,
    moment_table_from_berezin,
    parse_weight_spec,
    szego_model,
    verify_h_identity,
    verify_isometry,
)
from disklab import dbr, moments
from disklab.dirichlet import energy
from disklab.cli import _isometry_cases
from disklab.dbr import atoms_singular_values, unit_mass_atoms
from disklab.quadrature import _unit_nodes
from disklab.quadrature import NODE_BLOCK

from reference import dirac_table, factor_whole_table, rank_one_fit

# closed form for the boundary-pole weight at zeta = 1:
# b(z) = sqrt(s) z / (1 - s z) with s = (3 - sqrt 5)/2
_S = (3.0 - math.sqrt(5.0)) / 2.0


def _test_points(count=25, radius=0.8, seed=7):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0.05, 1.0, count))
    t = rng.uniform(0, 2 * np.pi, count)
    return (r * np.exp(1j * t)).tolist()


def _phi_modulus_sq(v, weight, grid):
    """|phi(v)|^2 = |v|^2 B(w)(v) / (1 - |v|^2), as the phi-consistency check forms it."""
    v = complex(v)
    return abs(v) ** 2 * berezin_transform(weight, v, grid) / (1.0 - abs(v) ** 2)


class TestPhiModulus:
    def test_vanishes_at_origin(self, harm_weight, disk_grid):
        assert _phi_modulus_sq(0.0, harm_weight, disk_grid) == 0.0

    def test_harmonic_closed_form(self, harm_weight, disk_grid):
        # |phi(v)|^2 = |v|^2 / |1 - v|^2 for the pole at 1
        for v in (0.3, 0.2 + 0.4j, -0.5j):
            expected = abs(v) ** 2 / abs(1 - v) ** 2
            got = _phi_modulus_sq(v, harm_weight, disk_grid)
            assert got == pytest.approx(expected, abs=1e-5)

    def test_nonnegative(self, log04_weight, log04_grid):
        w = log04_weight.scaled(1.0 / log04_weight.analytic_mass)
        for v in _test_points(count=5):
            assert _phi_modulus_sq(v, w, log04_grid) >= 0.0


class TestRieszAtoms:
    def test_harmonic_atom(self, harm_weight):
        atoms = harm_weight.atoms
        assert atoms == ((1.0 + 0j, 1.0),)

    def test_log_green_atom_mass(self):
        atoms = log_green(0.4).atoms
        assert atoms[0][0] == 0.4
        assert atoms[0][1] == pytest.approx((1 - 0.16) / 2)

    def test_scaling_scales_mass(self):
        atoms = log_green(0.0).scaled(2.0).atoms
        assert atoms[0][1] == pytest.approx(1.0)

    def test_uniform_has_no_atoms(self, uniform):
        assert uniform.atoms is None

    def test_charge_table_is_rank_one(self):
        # unit total mass, so the table factors through its first row
        zeta = 0.3j
        scale = 2.0 / (1.0 - abs(zeta) ** 2)
        table = atoms_table(log_green(zeta).scaled(scale).atoms, 5)
        from disklab import weak_mult_check

        assert weak_mult_check(table).residual <= 1e-14


class TestHFromMoments:
    def test_boundary_dirac_gives_truncated_geometric(self):
        zeta = np.exp(0.4j)
        table = dirac_table(zeta, 12)
        h = factor_whole_table(table, 1e-4).h
        expected = geometric_series(np.conj(zeta), 12)
        np.testing.assert_allclose(h.coeffs, expected.coeffs, atol=1e-14)

    def test_origin_dirac_gives_constant_one(self):
        h = factor_whole_table(dirac_table(0.0, 6), 1e-4).h
        assert h.coeffs[0] == 1.0
        assert np.allclose(h.coeffs[1:], 0.0)

    def test_rank_two_table_rejected(self):
        entries = [[0j] * 3 for _ in range(3)]
        entries[0][0] = 1.0 + 0j
        entries[1][1] = 1.0 + 0j
        table = MomentTable(
            entries=tuple(tuple(r) for r in entries), order=2, provenance="synthetic"
        )
        with pytest.raises(NotDbrWeightError):
            factor_whole_table(table, 1e-4)

    def test_unnormalized_table_rejected(self):
        table = dirac_table(0.5, 4)
        scaled = MomentTable(
            entries=tuple(
                tuple(2.0 * v for v in row) for row in table.to_complex_array()
            ),
            order=4,
            provenance="synthetic",
        )
        with pytest.raises(NotDbrWeightError):
            factor_whole_table(scaled, 1e-4)


class TestUnitMass:
    def test_mass_without_finite_reciprocal_refused(self):
        weight = harmonic_boundary(1.0).scaled(1e-310)
        message = "mass 1e-310 has no finite reciprocal, so the weight cannot be normalized"
        with pytest.raises(DegenerateWeightError, match=message):
            unit_mass_atoms(weight)
        with pytest.raises(DegenerateWeightError, match=message):
            build_model(weight, None, order=8)


class TestAtomicRankIdentity:
    """sigma2/sigma1 from the atoms, against the SVD of the table as reference."""

    _TWO_ATOMS = {"interior": ((0.2, 0.3),), "boundary": ((1, 0.7),)}

    def test_multi_atom_weight_rejected(self, coarse_disk_grid):
        with pytest.raises(NotDbrWeightError, match="not rank one"):
            build_model(AtomicWeight(**self._TWO_ATOMS, label="synthesized"), coarse_disk_grid,
                        order=16)

    @pytest.mark.parametrize("order", [8, 64, 256])
    def test_ratio_matches_svd_of_the_table(self, order):
        _, atoms = unit_mass_atoms(AtomicWeight(**self._TWO_ATOMS, label="synthesized"))
        svals = atoms_singular_values(atoms, order)
        ref = np.linalg.svd(atoms_table(atoms, order).to_complex_array(), compute_uv=False)
        assert svals.size == 2
        assert svals[1] / svals[0] == pytest.approx(ref[1] / ref[0], rel=1e-12, abs=0)

    @pytest.mark.parametrize("point", [1.0, 0.4, 0.3 - 0.5j, np.exp(0.7j)])
    def test_one_atom_has_one_singular_value(self, point):
        assert atoms_singular_values(((point, 1.0),), 256).size == 1

    @pytest.mark.parametrize("point", [1.0, 0.4, 0.3 - 0.5j, np.exp(0.7j)])
    def test_one_atom_value_matches_svd_of_the_table(self, point, monkeypatch):
        atoms = ((point, 0.7),)
        ref = np.linalg.svd(atoms_table(atoms, 64).to_complex_array(), compute_uv=False)

        def refused(*args, **kwargs):
            raise AssertionError("one atom needs no LAPACK call")

        monkeypatch.setattr(np.linalg, "qr", refused)
        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        (value,) = atoms_singular_values(atoms, 64)
        assert value == pytest.approx(ref[0], rel=1e-13, abs=0)

    def test_atomic_build_makes_no_svd_of_the_table(self, monkeypatch, coarse_disk_grid):
        shapes = []
        real = np.linalg.svd

        def svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        model = build_model(harmonic_boundary(1.0), coarse_disk_grid, order=128)
        assert shapes == []
        assert model.diagnostics["rank_ratio"] == 0.0


def _random_atoms(rng, count):
    """``count`` atoms in the disk with masses summing to 1 (so h_0 = 1)."""
    points = rng.uniform(0.05, 0.95, count) * np.exp(2j * np.pi * rng.uniform(size=count))
    masses = rng.uniform(0.1, 1.0, count)
    return tuple(zip(points.tolist(), (masses / masses.sum()).tolist()))


def _reference_factorization(table, atoms):
    """h, rank ratio, residual and max|M| from the full complex array."""
    arr = table.to_complex_array()
    svals = atoms_singular_values(atoms, table.order)
    rank_ratio = float(svals[1] / svals[0]) if svals.size > 1 and svals[0] > 0 else 0.0
    h = arr[0].copy()
    residual = float(np.max(np.abs(arr - np.conj(h)[:, None] * h[None, :])))
    return h, rank_ratio, residual, max(1.0, float(np.max(np.abs(arr))))


class TestRowWiseFactorization:
    """``factor_table`` reads the table row by row: the same values as the full array."""

    @pytest.mark.parametrize("order", [8, 64, 512])
    def test_equal_to_the_full_array_reference(self, order, monkeypatch):
        monkeypatch.setattr(dbr, "_RANK_TOL", math.inf)  # multi-atom tables too
        rng = np.random.default_rng(order)
        for count in (1, 2, 3, 1, 2, 3):
            atoms = _random_atoms(rng, count)
            table = atoms_table(atoms, order)
            fac = dbr.factor_table(table.to_complex_array(), atoms_singular_values(atoms, order),
                                   residual_tol=math.inf)
            h, rank_ratio, residual, _ = _reference_factorization(table, atoms)
            assert np.array_equal(fac.h.array, h)
            assert fac.rank_ratio == rank_ratio and fac.residual == residual

    @pytest.mark.parametrize("order", [8, 64])
    def test_atom_rows_equal_the_table_bit_for_bit(self, order, monkeypatch):
        monkeypatch.setattr(dbr, "_RANK_TOL", math.inf)  # multi-atom tables too
        rng = np.random.default_rng(100 + order)
        for count in (1, 2, 3):
            atoms = _random_atoms(rng, count)
            table = atoms_table(atoms, order)
            rows = np.array(list(moments._atom_rows(atoms, order)))
            assert np.array_equal(rows, table.to_complex_array())
            svals = atoms_singular_values(atoms, order)
            from_rows = dbr.factor_table(moments._atom_rows(atoms, order), svals, math.inf)
            from_table = dbr.factor_table(table.to_complex_array(), svals, math.inf)
            assert np.array_equal(from_rows.h.array, from_table.h.array)
            assert from_rows.rank_ratio == from_table.rank_ratio
            assert from_rows.residual == from_table.residual

    def test_every_row_is_read(self):
        # only the last row breaks rank one, and it also sets max|M|
        atoms = ((0.5, 1.0),)
        table = atoms_table(atoms, 8)
        re = table.re.copy()
        re[-1] += 100.0
        bent = MomentTable._from_parts(re, table.im, 1, "synthetic")
        h, _, residual, scale = _reference_factorization(bent, atoms)
        assert residual > 99.0 and scale > residual
        rows, svals = bent.to_complex_array(), atoms_singular_values(atoms, 8)
        fac = dbr.factor_table(rows, svals, residual_tol=residual / scale)
        assert fac.residual == residual
        with pytest.raises(NotDbrWeightError, match="residual"):
            dbr.factor_table(rows, svals, residual_tol=0.99 * residual / scale)

    def test_exact_table_is_read_over_its_denominator(self):
        table = dirac_table(GaussianRational(Fraction(1, 3), Fraction(-2, 7)), 6)
        assert table.is_exact and table.denom > 1
        fac = factor_whole_table(table, residual_tol=1e-12)
        arr = table.to_complex_array()
        assert np.array_equal(fac.h.array, arr[0])
        assert fac.residual == float(
            np.max(np.abs(arr - np.conj(arr[0])[:, None] * arr[0][None, :]))
        )

    def test_order_512_build_holds_little_beyond_the_table(self):
        weight = log_green(0.4)
        build_model(weight, None, order=8)  # imports and caches outside the count
        table_bytes = 2 * 513 * 513 * 8  # the real and imaginary parts
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_model(weight, None, order=512)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * table_bytes  # the rows are read, the table never formed


class TestBerezinExtraction:
    def test_uniform_weight_table_is_near_identity(self, uniform):
        from disklab import make_disk_grid

        grid = make_disk_grid(40, 64)
        table = moment_table_from_berezin(uniform, grid, order=3)
        arr = table.to_complex_array()
        np.testing.assert_allclose(arr, np.eye(4), rtol=0, atol=1e-12)

    def test_harmonic_weight_table_is_rank_one(self, harm_weight):
        from disklab import make_disk_grid

        grid = make_disk_grid(60, 128)
        table = moment_table_from_berezin(harm_weight, grid, order=3)
        arr = table.to_complex_array()
        expected = np.ones((4, 4))  # zeta = 1: all moments are 1
        np.testing.assert_allclose(arr, expected, rtol=0, atol=1e-7)

    def test_uniform_rejected_by_rank_test(self, uniform):
        from disklab import make_disk_grid

        grid = make_disk_grid(40, 64)
        table = moment_table_from_berezin(uniform, grid, order=3)
        with pytest.raises(NotDbrWeightError):
            factor_whole_table(table, 1e-4)

    @pytest.mark.parametrize(
        "inner, atom, atol",
        [(harmonic_boundary(1.0), 1.0, 1e-6), (log_green(0.4), 0.4, 1e-10)],
        ids=["harmonic", "log"],
    )
    def test_non_atomic_wrapper_of_catalog_weight_builds(self, inner, atom, atol):
        # a Custom wrapper hides the atom, so build_model takes the
        # measure-moment route; the charge is still the single atom
        w = Custom(inner.eval_many, singularities=inner.singularities)
        assert w.atoms is None
        grid = grid_for_weight(w, 120, 256)
        model = build_model(w, grid, order=16)
        np.testing.assert_allclose(
            model.h.coeffs[:9], atom ** np.arange(9), rtol=0, atol=atol
        )


class TestHIdentity:
    def test_harmonic_weight_with_truncated_geometric(self, harm_weight, disk_grid):
        h = geometric_series(1.0, 64)
        report = verify_h_identity(harm_weight, h, _test_points(), disk_grid)
        assert report.worst_error <= 1e-4, report

    def test_normalized_log_green_with_atom_h(self, log04_weight, log04_grid):
        w = log04_weight.scaled(1.0 / log04_weight.analytic_mass)
        h = geometric_series(0.4, 64)  # atom at 0.4, unit mass
        report = verify_h_identity(w, h, _test_points(), log04_grid)
        assert report.worst_error <= 1e-4, report

    def test_uniform_best_rank_one_fit_fails(self, uniform):
        from disklab import make_disk_grid

        grid = make_disk_grid(40, 64)
        table = moment_table_from_berezin(uniform, grid, order=3)
        h = rank_one_fit(table)
        report = verify_h_identity(uniform, h, _test_points(), grid)
        assert not report.worst_error <= 1e-2
        assert report.worst_error > 1e-2


class TestLaplacianIdentity:
    def test_at_origin_origin(self):
        # the kernel at w0 = 0 reduces to 1 - |z|^2 whose Laplacian is -4;
        # the five-point stencil is exact for quadratics
        assert laplacian_identity_check(0.0, 0.0, 1e-3) <= 1e-10

    def test_generic_point(self):
        assert laplacian_identity_check(0.3 + 0.1j, 0.5, 1e-3) <= 1e-5

    def test_second_order_convergence(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            z0 = 0.5 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            w0 = 0.5 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            e1 = laplacian_identity_check(z0, w0, 2e-3)
            e2 = laplacian_identity_check(z0, w0, 1e-3)
            order = math.log2(e1 / e2)
            assert order == pytest.approx(2.0, abs=0.2)

    def test_stencil_must_stay_inside(self):
        with pytest.raises(DomainError):
            laplacian_identity_check(0.9999, 0.0, 1e-3)


_ONE_ATOM_POLES = [1.0, 0.6 - 0.8j, np.exp(2.5j), 0.4, -0.28 + 0.28j, 0.0]


class TestOneAtomFactors:
    """The closed-form a and b of a unit atom, the one route of every model, and the
    exact identities that judge them."""

    @pytest.mark.parametrize("p", _ONE_ATOM_POLES)
    def test_modulus_identity_on_a_circle_grid(self, p):
        a, b = dbr._one_atom_factors(p, 64)
        e = _unit_nodes(512, np.arange(512))
        av, bv = a.evaluate_many(e), b.evaluate_many(e)
        assert np.max(np.abs(np.abs(av) ** 2 + np.abs(bv) ** 2 - 1.0)) <= 1e-14
        # b = phi a with phi = z/(1 - conj(p) z), continued to the circle, where
        # |phi| reaches about 160 next to a boundary pole (5.2e-14 measured)
        phi = e / (1.0 - np.conj(p) * e)
        assert np.max(np.abs(bv - phi * av)) <= 1e-12

    @pytest.mark.parametrize("p", _ONE_ATOM_POLES)
    def test_b_is_z_h_a(self, p):
        a, b = dbr._one_atom_factors(p, 64)
        h = factor_whole_table(atoms_table(((p, 1.0),), 64), 1e-9).h
        np.testing.assert_allclose((h.shift() * a).coeffs, b.coeffs, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("inner, p, bound", [
        (harmonic_boundary(1.0), 1.0, 1e-9), (log_green(0.4), 0.4, 1e-12)],
        ids=["harmonic", "log"])
    def test_weight_without_atoms_takes_the_closed_form_at_conj_h1(self, inner, p, bound):
        # a Custom wrapper hides the atom, so p = conj(h_1) comes from the
        # quadrature table: 2.8e-10 and 2.0e-13 measured
        w = Custom(inner.eval_many, singularities=inner.singularities)
        model = build_model(w, grid_for_weight(w, 120, 256), order=64)
        a, b = dbr._one_atom_factors(model.h.coeffs[1].conjugate(), 64)
        assert np.array_equal(model.a.array, a.array) and np.array_equal(model.b.array, b.array)
        assert np.max(np.abs(model.b.array - dbr._one_atom_factors(p, 64)[1].array)) <= bound

    @pytest.mark.parametrize("spec", ["harm:1,0", "harm:0.6,-0.8", "log:0.4,0", "log:0.9,0"])
    def test_weight_without_atoms_meets_its_own_factor_identities(self, spec):
        # h is the one atom's geometric series in h_1, so b = z h a holds past
        # the order-8 table: h padded with zeros read 0.618 on both harmonic
        # poles, 1.8e-4 on log:0.4,0 and 0.246 on log:0.9,0, at 64 and 256
        inner = parse_weight_spec(spec)
        w = Custom(inner.eval_many, singularities=inner.singularities)
        grid = grid_for_weight(w, 120, 256)
        for order in (64, 256):
            model = build_model(w, grid, order=order)
            h1 = model.h.coeffs[1]
            assert np.array_equal(model.h.array, geometric_series(h1, order).array)
            assert max(dbr._factor_identities(model)) <= 1e-12
            # h0_deviation still reads the quadrature table's h_0
            table = moment_table_from_berezin(model.weight, grid, order=8)
            h0 = factor_whole_table(table, 1e-4).h.coeffs[0]
            assert model.diagnostics["h0_deviation"] == abs(h0 - 1.0)

    def test_one_atom_takes_its_own_point_bit_for_bit(self):
        # the unit-mass atom of log:-0.283,-0.283 weighs 0.9999999999999999, so
        # conj(h_1) = conj(m conj(p)) is not p, and neither are its factors
        w = log_green(complex(-0.283, -0.283))
        model = build_model(w, None, order=64)
        ((p, _),) = unit_mass_atoms(w)[1]
        a, b = dbr._one_atom_factors(p, 64)
        assert np.array_equal(model.a.array, a.array) and np.array_equal(model.b.array, b.array)
        conj_h1 = model.h.coeffs[1].conjugate()
        assert conj_h1 != p
        assert not np.array_equal(dbr._one_atom_factors(conj_h1, 64)[1].array, b.array)


def _polar_spec(kind, radius, k):
    """A pole of ``kind`` at radius and angle k pi/4, printed as the benchmark prints it."""
    t = math.pi * k / 4

    def fmt(v):
        return f"{round(v, 12) + 0.0:.12g}"

    return f"{kind}:{fmt(radius * math.cos(t))},{fmt(radius * math.sin(t))}"


_IDENTITY_BATTERY = (
    [_polar_spec("harm", 1.0, k) for k in range(8)]
    + [_polar_spec("log", 0.4, k) for k in range(8)]
    + ["harm:0.6,-0.8", "harm:1,1", "log:0.9,0", "log:0,0", "scaled:2:log:0.4,0"]
)


class TestFactorIdentities:
    """b = z h a and |a|^2 + |b|^2 = 1 on the circle, read from the coefficients."""

    @pytest.mark.parametrize("order", [64, 256])
    @pytest.mark.parametrize("spec", _IDENTITY_BATTERY)
    def test_every_battery_model_meets_both_at_roundoff(self, spec, order):
        # measured: at most 2.3e-16 at order 64 and 6.0e-14 at 256; no grid is read
        model = build_model(parse_weight_spec(spec), None, order)
        assert max(dbr._factor_identities(model)) <= 1e-12

    def test_each_identity_sees_a_defect_the_other_misses(self):
        model = build_model(log_green(0.4), None, 64)
        eps = 1e-6
        # a wrong b breaks b = z h a; a common factor on a and b keeps it and
        # breaks |a|^2 + |b|^2 = 1 at lag 0, by (1 + eps)^2 - 1
        product, _ = dbr._factor_identities(replace(model, b=model.b.scale(1 + eps)))
        assert product == pytest.approx(eps * np.max(np.abs(model.b.array)), rel=1e-6)
        both = replace(model, a=model.a.scale(1 + eps), b=model.b.scale(1 + eps))
        product, pythagorean = dbr._factor_identities(both)
        assert product <= 1e-15
        assert pythagorean == pytest.approx(2 * eps + eps**2, rel=1e-6)

    def test_a_truncation_shows_at_a_low_order(self):
        # the lag-N coefficient of |a|^2 + |b|^2 is a_N conj(a_0) + b_N conj(b_0) in
        # the truncated series and 0 in the whole one
        model = build_model(harmonic_boundary(1.0), None, 8)
        a, b = model.a.array, model.b.array
        tail = abs(a[8] * np.conj(a[0]) + b[8] * np.conj(b[0]))
        assert tail > 1e-6
        assert dbr._factor_identities(model)[1] >= tail


class TestResolvingLimit:
    """Two half-mass boundary atoms at e^{+-i theta}, at series order 64.

    The pair reads as one atom while its factor residual stays under
    ``build_model``'s 1e-9; sigma2/sigma1 stays far below ``_RANK_TOL`` on
    both sides of the limit.
    """

    @staticmethod
    def _pair(theta):
        return AtomicWeight(
            boundary=((cmath.exp(1j * theta), 0.5), (cmath.exp(-1j * theta), 0.5)),
            label="synthesized")

    def test_a_pair_below_the_limit_builds_the_barycenter_model(self):
        model = build_model(self._pair(1e-7), None, order=64)
        # residual 4.1e-11; the barycenter is conj(h_1) = cos(theta)
        assert model.diagnostics["factor_residual"] <= 1e-10
        assert model.diagnostics["rank_ratio"] <= 1e-10
        assert model.h.coeffs[1] == pytest.approx(math.cos(1e-7), rel=0, abs=1e-15)
        gaps = [verify_isometry(model, nodes, coeffs, None).relative_gap
                for nodes, coeffs in _isometry_cases(1.0)]
        assert max(gaps) <= 1e-12  # 3.9e-14 measured

    def test_a_pair_above_the_limit_is_refused(self):
        with pytest.raises(NotDbrWeightError,
                           match=r"factorization residual 4\.096e-09 exceeds tolerance"):
            build_model(self._pair(1e-6), None, order=64)


class TestBuildModel:
    def test_harmonic_model_h_is_geometric(self, harm_model):
        np.testing.assert_allclose(
            harm_model.h.coeffs, np.ones(65), atol=1e-12
        )

    def test_harmonic_model_b_matches_closed_form(self, harm_model):
        expected = [0.0] + [math.sqrt(_S) * _S ** (k - 1) for k in range(1, 65)]
        np.testing.assert_allclose(harm_model.b.coeffs, expected, atol=1e-12)

    def test_harmonic_model_a_matches_closed_form(self, harm_model):
        expected = [math.sqrt(_S)] + [
            math.sqrt(_S) * (_S**k - _S ** (k - 1)) for k in range(1, 65)
        ]
        np.testing.assert_allclose(harm_model.a.coeffs, expected, atol=1e-12)

    def test_log_origin_model_b_is_scaled_z(self, log0_model):
        # normalized weight 2 log(1/|z|): h = 1, |a| = 1/sqrt(2), b = z/sqrt 2
        expected = np.zeros(65)
        expected[1] = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(log0_model.b.coeffs, expected, atol=1e-9)

    def test_invariants(self, harm_model, log0_model):
        for model in (harm_model, log0_model):
            assert model.diagnostics["h0_deviation"] <= 1e-6
            assert model.diagnostics["b_max_sample"] <= 1.0 + 1e-9
            assert model.a.coeffs[0].imag == 0.0
            assert model.a.coeffs[0].real > 0.0

    def test_uniform_weight_rejected(self, uniform):
        from disklab import make_disk_grid

        grid = make_disk_grid(40, 64)
        with pytest.raises(NotDbrWeightError):
            build_model(uniform, grid, order=16)

    def test_only_a_weight_without_atoms_needs_a_grid(self, uniform):
        model = build_model(log_green(0.3j), None, order=16)
        assert model.diagnostics["h0_deviation"] <= 1e-12
        with pytest.raises(DomainError, match="needs a grid"):
            build_model(uniform, None, order=16)

    def test_order_zero_has_no_h1_to_read(self):
        with pytest.raises(DomainError, match="series order must be at least 1"):
            build_model(log_green(0.3), None, order=0)

    def test_unnormalized_log_green_is_normalized_internally(self, disk_grid):
        model = build_model(log_green(0.0), disk_grid, order=32)
        assert model.diagnostics["h0_deviation"] <= 1e-12
        assert model.weight.analytic_mass == pytest.approx(1.0)

    def test_json_serialization(self, harm_model):
        data = harm_model.to_json_dict()
        assert set(data) == {"weight", "order", "h", "a", "b", "diagnostics"}
        assert len(data["b"]["re"]) == 65
        assert "rank_ratio" in data["diagnostics"]


class TestKernel:
    def test_szego_kernel_when_b_vanishes(self, harm_model):
        wrong = szego_model(harm_model)
        z, v = 0.3 + 0.2j, -0.4j
        assert kernel(wrong, z, v) == pytest.approx(1.0 / (1.0 - z * np.conj(v)))

    def test_diagonal_real_nonnegative(self, harm_model):
        for v in _test_points(count=8, radius=0.85):
            val = kernel(harm_model, v, v)
            assert abs(val.imag) < 1e-12
            assert val.real >= 0.0

    def test_hermitian_symmetry(self, harm_model):
        z, v = 0.5, 0.3 + 0.3j
        assert kernel(harm_model, z, v) == pytest.approx(
            np.conj(kernel(harm_model, v, z))
        )

    def test_kernel_series_matches_pointwise_kernel(self, harm_model):
        v = 0.4 + 0.1j
        ks = kernel_series(harm_model, v)
        for z in (0.2, -0.3j, 0.5 + 0.2j):
            assert ks.evaluate(z) == pytest.approx(
                kernel(harm_model, z, v), abs=1e-10
            )


class TestIsometry:
    def test_single_node_at_origin(self, harm_model, disk_grid):
        report = verify_isometry(harm_model, [0j], [1.0 + 0j], disk_grid)
        assert report.relative_gap <= 1e-2
        b0 = harm_model.b.evaluate(0.0)
        assert report.gram_norm_sq == pytest.approx(1.0 - abs(b0) ** 2, abs=1e-12)

    def test_multi_node_gap_small(self, harm_model, disk_grid):
        nodes = [0.1, 0.4, -0.3 + 0.2j]
        coeffs = [1.0, -0.5 + 0.25j, 0.75j]
        report = verify_isometry(harm_model, nodes, coeffs, disk_grid)
        assert report.relative_gap <= 1e-2, report

    def test_zero_coefficients_give_zero_norms(self, harm_model, disk_grid):
        report = verify_isometry(harm_model, [0.3], [0.0], disk_grid)
        assert report.relative_gap == 0.0

    def test_duplicate_nodes_rejected(self, harm_model, disk_grid):
        with pytest.raises(DegenerateNodeSetError):
            verify_isometry(harm_model, [0.3, 0.3], [1.0, 1.0], disk_grid)

    def test_wrong_symbol_breaks_identity(self, harm_model, disk_grid):
        wrong = szego_model(harm_model)
        report = verify_isometry(wrong, [0.55], [1.0], disk_grid)
        assert not report.relative_gap <= 1e-2
        assert report.relative_gap > 0.1

    @pytest.mark.parametrize("wrong", [False, True])
    def test_b_is_evaluated_once_per_node(self, wrong, harm_model, disk_grid, monkeypatch):
        model = szego_model(harm_model) if wrong else harm_model
        nodes = [0.55 + 0j, 0.45 + 0.2j, 0.45 - 0.2j, 0.35 + 0j]
        coeffs = [1.0, -0.5 + 0.25j, 0.75j, 0.3 - 0.1j]
        # the Gram entries through ``kernel`` and f through ``kernel_series``,
        # which evaluate b at both points of each entry and again per section
        G = np.array([[kernel(model, u, v) for v in nodes] for u in nodes])
        f = kernel_series(model, nodes[0]).scale(coeffs[0])
        for w, c in zip(nodes[1:], coeffs[1:]):
            f = f + kernel_series(model, w).scale(c)
        c = np.array(coeffs)
        lhs = float(np.real(c.conj() @ G @ c))
        rhs = f.h2_norm_sq() + energy(f, model.weight, disk_grid)
        calls = []
        real = TaylorSeries.evaluate
        monkeypatch.setattr(TaylorSeries, "evaluate",
                            lambda self, z: calls.append(z) or real(self, z))
        report = verify_isometry(model, nodes, coeffs, disk_grid)
        assert calls == nodes
        assert (report.gram_norm_sq, report.h2_part + report.energy_part) == (lhs, rhs)
        assert report.relative_gap == abs(lhs - rhs) / lhs

    def test_isometry_suite_evaluates_b_once_per_node(self, monkeypatch):
        from disklab.cli import parse_args, run

        calls = []
        real = TaylorSeries.evaluate
        monkeypatch.setattr(TaylorSeries, "evaluate",
                            lambda self, z: calls.append(z) or real(self, z))
        report, code = run(parse_args(["verify", "--suite", "isometry", "--weight",
                                       "harm:1,0", "--series-order", "16"]))
        assert code == 0
        # the model's 41 sampled |b| values, then 2 x 20 cases on node sets of
        # sizes 1-4 cycled: 2 * 5 * (1 + 2 + 3 + 4) = 100 nodes
        assert len(calls) == 41 + 100

    def test_gram_positive_semidefinite(self, harm_model):
        nodes = _test_points(count=6, radius=0.7, seed=21)
        G = np.array(
            [[kernel(harm_model, w, v) for w in nodes] for v in nodes]
        )
        eigs = np.linalg.eigvalsh((G + G.conj().T) / 2)
        assert eigs.min() >= -1e-10


def test_berezin_transform_of_uniform_is_one(uniform):
    from disklab import make_disk_grid

    grid = make_disk_grid(40, 64)
    # the Berezin transform averages a probability density against a
    # unit-mass kernel; for the uniform weight it is identically 1
    for v in (0.0, 0.3, 0.5j):
        assert berezin_transform(uniform, v, grid) == pytest.approx(1.0, abs=1e-10)


def test_berezin_transforms_share_one_weight_evaluation(coarse_disk_grid):
    evaluated = []
    inner = harmonic_boundary(1.0)

    def counted(z):
        evaluated.append(z.size)
        return inner.eval_many(z)

    w = Custom(counted, singularities=(1.0,), label="counted")
    points = _test_points(count=10, radius=0.7, seed=5)
    verify_h_identity(w, TaylorSeries([1.0, 0.5]), points, coarse_disk_grid)
    values = [_phi_modulus_sq(v, w, coarse_disk_grid) for v in points]
    # one pass over the grid, one node block at a time
    assert sum(evaluated) == coarse_disk_grid.size and max(evaluated) <= NODE_BLOCK
    # the shared values give the same numbers as a fresh weight object
    assert values == [_phi_modulus_sq(v, inner, coarse_disk_grid) for v in points]


def test_berezin_transform_rejects_infinite_weight_value(coarse_disk_grid):
    bad = coarse_disk_grid.nodes[11]
    w = Custom(lambda z: np.where(z == bad, np.inf, 1.0), label="spike")
    with pytest.raises(SingularIntegrandError, match=r"\(index 11\)"):
        berezin_transform(w, 0.3, coarse_disk_grid)
    # a second transform evaluates the weight again and still refuses
    with pytest.raises(SingularIntegrandError):
        berezin_transform(w, -0.2j, coarse_disk_grid)


def _reference_berezin(weight, v, grid):
    """Reference: the per-point integrand lead / |1 - z conj(v)|^4 w through integrate."""
    lead = (1.0 - abs(v) ** 2) ** 2
    return float(integrate(
        grid, lambda z: lead / np.abs(1.0 - z * np.conj(v)) ** 4 * weight.eval_many(z)))


class TestBatchedBerezin:
    @pytest.mark.parametrize("which", ["harm", "log", "uniform"])
    def test_matches_per_point_integrand(self, which, harm_weight, disk_grid,
                                         log04_weight, log04_grid, uniform):
        weight, grid = {
            "harm": (harm_weight, disk_grid),
            "log": (log04_weight, log04_grid),
            "uniform": (uniform, disk_grid),
        }[which]
        # the W route's tail bound, 2^-53, is half an eps: the rest is roundoff
        points = _test_points(count=25, radius=0.9, seed=31)
        got = berezin_transforms(weight, points, grid)
        ref = np.array([_reference_berezin(weight, v, grid) for v in points])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 64 * np.finfo(float).eps

    def test_batch_equals_singles_in_any_order(self, disk_grid):
        # a fresh weight object per call keeps every value out of the memo
        points = _test_points(count=25, radius=0.9, seed=32)
        batch = berezin_transforms(harmonic_boundary(1.0), points, disk_grid)
        singles = [berezin_transform(harmonic_boundary(1.0), v, disk_grid) for v in points]
        reverse = berezin_transforms(harmonic_boundary(1.0), points[::-1], disk_grid)
        assert batch.tolist() == singles == reverse[::-1].tolist()

    def test_one_ring_pass_serves_every_point(self, disk_grid, monkeypatch):
        passes = []
        real = moments._ring_moments
        monkeypatch.setattr(
            moments, "_ring_moments", lambda w, g, n: passes.append(n) or real(w, g, n)
        )
        w = harmonic_boundary(1.0)
        points = _test_points(count=25, radius=0.8, seed=33)
        verify_h_identity(w, TaylorSeries([1.0, 1.0]), points, disk_grid)
        for v in points[:10]:
            _phi_modulus_sq(v, w, disk_grid)
        # at the largest order of the batch; the singles read corners of it
        assert passes == [max(dbr._berezin_order(v) for v in points)]

    def test_point_on_circle_refused_before_weight_evaluation(self, coarse_disk_grid):
        evals = []
        w = Custom(lambda z: evals.append(1) or np.ones(z.shape), label="counted")
        with pytest.raises(DomainError):
            berezin_transforms(w, [0.3, 0.5j, 1.0, 0.1], coarse_disk_grid)
        assert evals == []

    @pytest.mark.parametrize("x, order", [(0.3, 34), (0.8, 193), (0.9, 418)])
    def test_order_is_the_least_whose_tail_is_below_roundoff(self, x, order):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40

        def kernel_error(a, n):
            # |K - K_n| / K at a = z conj(v), K = |1 - a|^-4 and K_n the double
            # sum of (j+1)(k+1) a^j conj(a)^k over j, k <= n, |s_n(a)|^2
            s_n = mpmath.fsum((j + 1) * a**j for j in range(n + 1))
            return abs(1 - abs(s_n * (1 - a) ** 2) ** 2)

        assert dbr._berezin_order(0j) == 0
        assert dbr._berezin_order(x) == dbr._berezin_order(-x * 1j) == order
        x = mpmath.mpf(x)
        # no node on the circle, where the kernel's tail is largest, is off by more
        for t in range(16):
            assert kernel_error(x * mpmath.expjpi(mpmath.mpf(t) / 8), order) <= 2.0**-53
        # and the node opposite v is off by more one order lower
        assert kernel_error(-x, order - 1) > 2.0**-53

    @pytest.mark.parametrize("far", [0.95, 0.92j, -0.999])
    def test_point_past_the_largest_order_refused_before_weight_evaluation(
            self, far, coarse_disk_grid):
        evals = []
        w = Custom(lambda z: evals.append(1) or np.ones(z.shape), label="counted")
        with pytest.raises(DomainError, match="past order 511"):
            berezin_transforms(w, [0.3, far, 0.1], coarse_disk_grid)
        assert evals == []
        assert w not in moments._RECORDS

    def test_nan_point_raises(self, uniform, coarse_disk_grid):
        with pytest.raises(SingularIntegrandError):
            berezin_transforms(uniform, [0.2, complex(math.nan, 0.0)], coarse_disk_grid)

    def test_value_does_not_depend_on_the_batch_size(self, disk_grid):
        points = _test_points(count=120, radius=0.9, seed=34)
        alone = [berezin_transform(harmonic_boundary(1.0), v, disk_grid) for v in points[:3]]
        for size in (2, 3, 40, 120):
            batch = berezin_transforms(harmonic_boundary(1.0), points[:size], disk_grid)
            assert batch[: min(size, 3)].tolist() == alone[:size]

    def test_peak_memory_is_the_order_n_arrays(self, disk_grid):
        # the ring pass holds three real order-n arrays, then two and W; a
        # point's sum holds W and one complex product of its size: about five
        # real order-n arrays at most, and nothing of the grid's size
        points = _test_points(count=5, radius=0.8, seed=35)
        n = max(dbr._berezin_order(v) for v in points)
        assert n >= 150
        square = 8 * (n + 1) ** 2  # one float per entry of the order-n matrix
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            berezin_transforms(harmonic_boundary(1.0), points, disk_grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 5 * square + 2**18

    def test_empty_batch(self, uniform, coarse_disk_grid):
        out = berezin_transforms(uniform, [], coarse_disk_grid)
        assert out.shape == (0,) and out.dtype == float
