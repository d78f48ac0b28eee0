import math

import numpy as np
import pytest

from disklab import (
    Custom,
    DegenerateNodeSetError,
    DomainError,
    HarmonicBoundary,
    LogGreen,
    MomentTable,
    NotDbrWeightError,
    Scaled,
    SingularIntegrandError,
    TaylorSeries,
    berezin_transform,
    build_model,
    charge_moment_table,
    dirac_table,
    geometric_series,
    grid_for_weight,
    h_from_moments,
    kernel,
    kernel_series,
    laplacian_identity_check,
    make_circle_grid,
    moment_table_from_berezin,
    outer_function,
    phi_modulus_sq,
    rank_one_fit,
    riesz_atoms,
    szego_model,
    verify_h_identity,
    verify_isometry,
)

# closed form for the boundary-pole weight at zeta = 1:
# b(z) = sqrt(s) z / (1 - s z) with s = (3 - sqrt 5)/2
_S = (3.0 - math.sqrt(5.0)) / 2.0


def _test_points(count=25, radius=0.8, seed=7):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0.05, 1.0, count))
    t = rng.uniform(0, 2 * np.pi, count)
    return (r * np.exp(1j * t)).tolist()


class TestPhiModulus:
    def test_vanishes_at_origin(self, harm_weight, disk_grid):
        assert phi_modulus_sq(0.0, harm_weight, disk_grid) == 0.0

    def test_harmonic_closed_form(self, harm_weight, disk_grid):
        # |phi(v)|^2 = |v|^2 / |1 - v|^2 for the pole at 1
        for v in (0.3, 0.2 + 0.4j, -0.5j):
            expected = abs(v) ** 2 / abs(1 - v) ** 2
            got = phi_modulus_sq(v, harm_weight, disk_grid)
            assert got == pytest.approx(expected, abs=1e-5)

    def test_nonnegative(self, log04_weight, log04_grid):
        w = Scaled(1.0 / log04_weight.analytic_mass, log04_weight)
        for v in _test_points(count=5):
            assert phi_modulus_sq(v, w, log04_grid) >= 0.0


class TestRieszAtoms:
    def test_harmonic_atom(self, harm_weight):
        atoms = riesz_atoms(harm_weight)
        assert atoms == ((1.0 + 0j, 1.0),)

    def test_log_green_atom_mass(self):
        atoms = riesz_atoms(LogGreen(0.4))
        assert atoms[0][0] == 0.4
        assert atoms[0][1] == pytest.approx((1 - 0.16) / 2)

    def test_scaling_scales_mass(self):
        atoms = riesz_atoms(Scaled(2.0, LogGreen(0.0)))
        assert atoms[0][1] == pytest.approx(1.0)

    def test_uniform_has_no_atoms(self, uniform):
        assert riesz_atoms(uniform) is None

    def test_charge_table_is_rank_one(self):
        # unit total mass, so the table factors through its first row
        zeta = 0.3j
        scale = 2.0 / (1.0 - abs(zeta) ** 2)
        table = charge_moment_table(Scaled(scale, LogGreen(zeta)), 5)
        from disklab import weak_mult_check

        assert weak_mult_check(table, tol=1e-14).passes


class TestHFromMoments:
    def test_boundary_dirac_gives_truncated_geometric(self):
        zeta = np.exp(0.4j)
        table = dirac_table(zeta, 12)
        h = h_from_moments(table)
        expected = geometric_series(np.conj(zeta), 12)
        np.testing.assert_allclose(h.coeffs, expected.coeffs, atol=1e-14)

    def test_origin_dirac_gives_constant_one(self):
        h = h_from_moments(dirac_table(0.0, 6))
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
            h_from_moments(table)

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
            h_from_moments(scaled)


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
            h_from_moments(table)

    @pytest.mark.parametrize(
        "inner, atom, atol",
        [(HarmonicBoundary(1.0), 1.0, 1e-6), (LogGreen(0.4), 0.4, 1e-10)],
        ids=["harmonic", "log"],
    )
    def test_non_atomic_wrapper_of_catalog_weight_builds(self, inner, atom, atol):
        # a Custom wrapper hides the atom, so build_model takes the
        # measure-moment route; the charge is still the single atom
        w = Custom(inner.eval_many, singularities=inner.singularities)
        assert riesz_atoms(w) is None
        grid = grid_for_weight(w, 120, 256)
        model = build_model(w, grid, boundary_order=2048, order=16)
        np.testing.assert_allclose(
            model.h.coeffs[:9], atom ** np.arange(9), rtol=0, atol=atol
        )


class TestHIdentity:
    def test_harmonic_weight_with_truncated_geometric(self, harm_weight, disk_grid):
        h = geometric_series(1.0, 64)
        report = verify_h_identity(
            harm_weight, h, _test_points(), disk_grid, tol=1e-4
        )
        assert report.passes, report

    def test_normalized_log_green_with_atom_h(self, log04_weight, log04_grid):
        w = Scaled(1.0 / log04_weight.analytic_mass, log04_weight)
        h = geometric_series(0.4, 64)  # atom at 0.4, unit mass
        report = verify_h_identity(w, h, _test_points(), log04_grid, tol=1e-4)
        assert report.passes, report

    def test_uniform_best_rank_one_fit_fails(self, uniform):
        from disklab import make_disk_grid

        grid = make_disk_grid(40, 64)
        table = moment_table_from_berezin(uniform, grid, order=3)
        h = rank_one_fit(table)
        report = verify_h_identity(uniform, h, _test_points(), grid, tol=1e-2)
        assert not report.passes
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


class TestOuterFunction:
    def test_constant_target(self):
        grid = make_circle_grid(256)
        samples = np.full(grid.size, math.log(2.5))
        a = outer_function(samples, grid, 16)
        assert a.coeffs[0] == pytest.approx(2.5, abs=1e-12)
        assert np.allclose(a.coeffs[1:], 0.0, atol=1e-12)

    def test_one_minus_half_z(self):
        grid = make_circle_grid(512)
        samples = np.log(np.abs(1.0 - grid.nodes / 2.0))
        a = outer_function(samples, grid, 24)
        expected = [1.0, -0.5] + [0.0] * 23
        np.testing.assert_allclose(a.coeffs, expected, atol=1e-8)

    def test_self_consistency_on_held_out_nodes(self):
        grid = make_circle_grid(1024)
        samples = np.log(np.abs(1.0 - 0.3 * grid.nodes + 0.1 * grid.nodes**2))
        a = outer_function(samples, grid, 48)
        holdout = make_circle_grid(512, offset=0.37)
        target = np.abs(1.0 - 0.3 * holdout.nodes + 0.1 * holdout.nodes**2)
        got = np.abs(a.evaluate_many(holdout.nodes))
        assert np.max(np.abs(got - target)) < 1e-6

    def test_positive_at_origin(self):
        grid = make_circle_grid(256)
        rng = np.random.default_rng(3)
        samples = rng.normal(size=grid.size) * 0.1
        a = outer_function(samples, grid, 8)
        assert a.coeffs[0].imag == 0.0
        assert a.coeffs[0].real > 0.0

    def test_non_finite_samples_rejected(self):
        from disklab import SingularBoundaryDataError

        grid = make_circle_grid(256)
        samples = np.zeros(grid.size)
        samples[3] = -np.inf
        with pytest.raises(SingularBoundaryDataError):
            outer_function(samples, grid, 8)


class TestBuildModel:
    def test_harmonic_model_h_is_geometric(self, harm_model):
        np.testing.assert_allclose(
            harm_model.h.coeffs, np.ones(65), atol=1e-12
        )

    def test_harmonic_model_b_matches_closed_form(self, harm_model):
        expected = [0.0] + [math.sqrt(_S) * _S ** (k - 1) for k in range(1, 65)]
        np.testing.assert_allclose(harm_model.b.coeffs, expected, atol=1e-4)

    def test_harmonic_model_a_matches_closed_form(self, harm_model):
        expected = [math.sqrt(_S)] + [
            math.sqrt(_S) * (_S**k - _S ** (k - 1)) for k in range(1, 65)
        ]
        np.testing.assert_allclose(harm_model.a.coeffs, expected, atol=1e-4)

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
            build_model(uniform, grid, boundary_order=1024, order=16)

    def test_unnormalized_log_green_is_normalized_internally(self, disk_grid):
        model = build_model(LogGreen(0.0), disk_grid, boundary_order=2048, order=32)
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
        assert report.passes
        b0 = harm_model.b.evaluate(0.0)
        assert report.gram_norm_sq == pytest.approx(1.0 - abs(b0) ** 2, abs=1e-12)

    def test_multi_node_gap_small(self, harm_model, disk_grid):
        nodes = [0.1, 0.4, -0.3 + 0.2j]
        coeffs = [1.0, -0.5 + 0.25j, 0.75j]
        report = verify_isometry(harm_model, nodes, coeffs, disk_grid, tol=1e-2)
        assert report.passes, report

    def test_zero_coefficients_give_zero_norms(self, harm_model, disk_grid):
        report = verify_isometry(harm_model, [0.3], [0.0], disk_grid)
        assert report.relative_gap == 0.0

    def test_duplicate_nodes_rejected(self, harm_model, disk_grid):
        with pytest.raises(DegenerateNodeSetError):
            verify_isometry(harm_model, [0.3, 0.3], [1.0, 1.0], disk_grid)

    def test_wrong_symbol_breaks_identity(self, harm_model, disk_grid):
        wrong = szego_model(harm_model)
        report = verify_isometry(wrong, [0.55], [1.0], disk_grid, tol=1e-2)
        assert not report.passes
        assert report.relative_gap > 0.1

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
    full_grid_evals = []
    inner = HarmonicBoundary(1.0)

    def counted(z):
        if z.size == coarse_disk_grid.size:
            full_grid_evals.append(1)
        return inner.eval_many(z)

    w = Custom(counted, singularities=(1.0,), label="counted")
    points = _test_points(count=10, radius=0.7, seed=5)
    verify_h_identity(w, TaylorSeries([1.0, 0.5]), points, coarse_disk_grid, tol=1.0)
    values = [phi_modulus_sq(v, w, coarse_disk_grid) for v in points]
    assert full_grid_evals == [1]
    # the shared values give the same numbers as a fresh weight object
    assert values == [phi_modulus_sq(v, inner, coarse_disk_grid) for v in points]


def test_berezin_transform_rejects_infinite_weight_value(coarse_disk_grid):
    bad = coarse_disk_grid.nodes[11]
    w = Custom(lambda z: np.where(z == bad, np.inf, 1.0), label="spike")
    with pytest.raises(SingularIntegrandError, match=r"\(index 11\)"):
        berezin_transform(w, 0.3, coarse_disk_grid)
    # a second transform on the memoised values still refuses
    with pytest.raises(SingularIntegrandError):
        berezin_transform(w, -0.2j, coarse_disk_grid)
