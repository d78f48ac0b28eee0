import numpy as np
import pytest

from disklab import (
    AtomicWeight,
    Custom,
    DomainError,
    HarmonicBoundary,
    LogGreen,
    Scaled,
    SingularIntegrandError,
    TaylorSeries,
    dilation_report,
    energy,
    grid_for_weight,
    integrate,
    uniform_weight,
)

from reference import atoms_moment_matrix, constant_series, exp_reference, hermitian_form
from disklab.moments import disk_moments
from disklab.quadrature import NODE_BLOCK


class TestEnergy:
    def test_identity_function_uniform_weight(self, coarse_disk_grid, uniform):
        z = TaylorSeries([0, 1, 0, 0, 0])
        assert energy(z, uniform, coarse_disk_grid) == pytest.approx(1.0, abs=1e-12)

    def test_square_uniform_weight(self, coarse_disk_grid, uniform):
        # |f'|^2 = 4|z|^2 integrates to 4 * 1/2
        z2 = TaylorSeries([0, 0, 1, 0, 0])
        assert energy(z2, uniform, coarse_disk_grid) == pytest.approx(2.0, abs=1e-10)

    def test_identity_function_harmonic_weight(self, disk_grid, harm_weight):
        z = TaylorSeries([0, 1, 0, 0, 0])
        assert energy(z, harm_weight, disk_grid) == pytest.approx(1.0, abs=1e-6)

    def test_constant_has_zero_energy(self, coarse_disk_grid, uniform):
        assert energy(constant_series(2.3 + 1j, 6), uniform, coarse_disk_grid) <= 1e-12

    def test_energy_is_quadratic(self, coarse_disk_grid, uniform):
        f = TaylorSeries([0.3, 1.0, -0.5j, 0.25])
        e1 = energy(f, uniform, coarse_disk_grid)
        e2 = energy(f.scale(2.0 - 1.0j), uniform, coarse_disk_grid)
        assert e2 == pytest.approx(abs(2.0 - 1.0j) ** 2 * e1, rel=1e-12)

    def test_energy_nonnegative(self, coarse_disk_grid, uniform):
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = TaylorSeries(rng.normal(size=6) + 1j * rng.normal(size=6))
            assert energy(f, uniform, coarse_disk_grid) >= 0.0

    def test_energy_positive_for_nonconstant(self, coarse_disk_grid, uniform,
                                             harm_weight, disk_grid):
        f = TaylorSeries([1.0, 0.0, 0.3j])
        assert energy(f, uniform, coarse_disk_grid) > 1e-3
        assert energy(f, harm_weight, disk_grid) > 1e-3


class TestDilation:
    def test_identity_uniform_closed_form(self, coarse_disk_grid, uniform):
        # f = z: energy of f_r is r^2
        report = dilation_report(
            TaylorSeries([0, 1, 0, 0, 0]), uniform, (0.5, 0.9), coarse_disk_grid
        )
        assert report.entries[0][1] == pytest.approx(0.25, abs=1e-12)
        assert report.entries[1][1] == pytest.approx(0.81, abs=1e-12)
        assert report.max_violation <= 1e-8

    def test_limit_toward_one_recovers_energy(self, coarse_disk_grid, uniform):
        f = exp_reference(32)
        full = energy(f, uniform, coarse_disk_grid)
        near = dilation_report(f, uniform, (0.9, 0.999), coarse_disk_grid)
        assert near.entries[-1][1] == pytest.approx(full, rel=1e-2)

    def test_exp_with_harmonic_weight_is_monotone(self, disk_grid, harm_weight):
        report = dilation_report(
            exp_reference(32), harm_weight, (0.3, 0.6, 0.9), disk_grid
        )
        assert report.max_violation <= 1e-8
        energies = [e for _, e in report.entries]
        assert energies == sorted(energies)

    def test_monotone_for_random_polynomials_harmonic_weights(self, disk_grid):
        rng = np.random.default_rng(23)
        weights = [HarmonicBoundary(1.0), HarmonicBoundary(np.exp(2.1j))]
        for w in weights:
            for _ in range(3):
                f = TaylorSeries(rng.normal(size=11) + 1j * rng.normal(size=11))
                report = dilation_report(f, w, (0.2, 0.4, 0.6, 0.8, 0.95), disk_grid)
                assert report.max_violation <= 1e-8, report

    def test_radii_must_increase(self, coarse_disk_grid, uniform):
        with pytest.raises(DomainError):
            dilation_report(TaylorSeries([0, 1, 0]), uniform, (0.5, 0.5), coarse_disk_grid)

    def test_radii_must_be_interior(self, coarse_disk_grid, uniform):
        with pytest.raises(DomainError):
            dilation_report(TaylorSeries([0, 1, 0]), uniform, (0.5, 1.0), coarse_disk_grid)


def _counting(inner, calls):
    """Custom wrapper of a weight that records each evaluation."""
    def fn(z):
        calls.append(np.size(z))
        return inner.eval_many(z)

    return Custom(fn, singularities=inner.singularities, label=inner.label)


def _quadrature_energy(f, w, grid):
    """Reference: |f'|^2 w summed node by node with the grid's rule."""
    fp = f.derivative()
    return integrate(grid, lambda z: np.abs(fp.evaluate_many(z)) ** 2 * w.eval_many(z))


_ROUTE_WEIGHTS = {
    "harm": lambda: HarmonicBoundary(np.exp(0.7j)),
    "log": lambda: LogGreen(0.4),
    "uniform": uniform_weight,
    "scaled": lambda: Scaled(2.5, LogGreen(0.3j)),
}


class TestMomentRoute:
    """The grid route: the Hermitian form on the ring-DFT moment matrix is the
    grid's quadrature. It is ``energy`` for a weight without atoms; a weight
    with atoms takes the closed form, here against its diagonal-sum W."""

    @pytest.mark.parametrize("order", [4, 64, 256])
    @pytest.mark.parametrize("kind", sorted(_ROUTE_WEIGHTS))
    def test_energy_matches_quadrature(self, kind, order):
        w = _ROUTE_WEIGHTS[kind]()
        grid = grid_for_weight(w, 40, 64)
        rng = np.random.default_rng(order)
        f = TaylorSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))
        ref = _quadrature_energy(f, w, grid)
        form = hermitian_form(f, disk_moments(w, grid, order - 1))
        assert form == pytest.approx(ref, rel=1e-13, abs=0)
        if w.atoms is None:
            assert energy(f, w, grid) == form
        else:
            closed = hermitian_form(f, atoms_moment_matrix(w.atoms, order - 1))
            assert energy(f, w, grid) == pytest.approx(closed, rel=1e-13, abs=0)

    def test_weight_evaluated_once_across_dilation_energies(self, coarse_disk_grid):
        # the dilation check's 15 energies: 3 functions at 5 radii
        calls = []
        w = _counting(HarmonicBoundary(1.0), calls)
        rng = np.random.default_rng(3)
        for _ in range(3):
            f = TaylorSeries(rng.normal(size=11) + 1j * rng.normal(size=11))
            dilation_report(f, w, (0.2, 0.4, 0.6, 0.8, 0.95), coarse_disk_grid)
        # one pass over the grid, one node block at a time
        assert sum(calls) == coarse_disk_grid.size and max(calls) <= NODE_BLOCK

    def test_non_finite_weight_raises(self, coarse_disk_grid):
        bad = coarse_disk_grid.nodes[5]
        w = Custom(lambda z: np.where(z == bad, np.inf, 1.0), label="spike")
        with pytest.raises(SingularIntegrandError, match=r"\(index 5\)"):
            energy(TaylorSeries([0, 1, 0, 0, 0]), w, coarse_disk_grid)


_CATALOG_POLES = {  # spec -> (weight, bound on its W gap at order 64)
    "harm:1,0": (HarmonicBoundary(1.0), 1e-8),
    "harm:0.6,-0.8": (HarmonicBoundary(0.6 - 0.8j), 1e-9),
    "log:0.4,0": (LogGreen(0.4), 1e-11),
    "log:-0.28,0.28": (LogGreen(-0.28 + 0.28j), 1e-11),
}


class TestClosedForm:
    """The closed-form energy of a weight with atoms, against the grid route."""

    @pytest.mark.parametrize("spec", sorted(_CATALOG_POLES))
    def test_atoms_moment_matrix_matches_disk_moments(self, spec):
        # measured at order 64: 1.75e-9 (harm:1,0), 1.1e-10 (harm:0.6,-0.8),
        # at most 7.1e-13 on the log poles
        w, bound = _CATALOG_POLES[spec]
        grid = grid_for_weight(w, 120, 256)
        gap = np.max(np.abs(atoms_moment_matrix(w.atoms, 64) - disk_moments(w, grid, 64)))
        assert gap <= bound

    def test_atoms_moment_matrix_matches_disk_moments_at_order_255(self, log04_weight,
                                                                    log04_grid):
        W = atoms_moment_matrix(log04_weight.atoms, 255)
        assert np.max(np.abs(W - disk_moments(log04_weight, log04_grid, 255))) <= 1e-11

    def test_harmonic_atom_entries(self):
        zeta = np.exp(0.9j)
        W = atoms_moment_matrix(HarmonicBoundary(zeta).atoms, 12)
        j, k = np.meshgrid(np.arange(13), np.arange(13), indexing="ij")
        expected = zeta ** (j - k).astype(float) / (np.maximum(j, k) + 1)
        np.testing.assert_allclose(W, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("order", [8, 64, 256])
    @pytest.mark.parametrize("spec", sorted(_CATALOG_POLES) + ["scaled"])
    def test_horner_energy_is_the_closed_form_hermitian_form(self, spec, order):
        w = Scaled(2.5, LogGreen(0.3j)) if spec == "scaled" else _CATALOG_POLES[spec][0]
        rng = np.random.default_rng(order)
        f = TaylorSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))
        closed = hermitian_form(f, atoms_moment_matrix(w.atoms, order - 1))
        assert energy(f, w, None) == pytest.approx(closed, rel=1e-13, abs=0)

    def test_reads_no_grid(self, monkeypatch):
        from disklab import dirichlet

        def refuse(*args):
            raise AssertionError("the grid route was taken")

        monkeypatch.setattr(dirichlet, "disk_moments", refuse)
        z = TaylorSeries([0, 1, 0, 0, 0])
        assert energy(z, LogGreen(0.4), None) == pytest.approx(0.42)
        assert energy(z, Scaled(2.0, HarmonicBoundary(1.0)), None) == 2.0
        assert energy(z, AtomicWeight(label="synthesized"), None) == 0.0

    def test_non_finite_energy_raises(self):
        f = TaylorSeries([0.0, 1e200, 1e200])
        with pytest.raises(SingularIntegrandError, match="not finite"):
            energy(f, HarmonicBoundary(1.0), None)
