import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disklab import (
    AtomicWeight,
    Custom,
    DegenerateWeightError,
    DomainError,
    HarmonicBoundary,
    LogGreen,
    Scaled,
    SingularIntegrandError,
    SingularPointError,
    WeightSpecError,
    grid_for_weight,
    integrate,
    l1_norm,
    normalize,
    parse_weight_spec,
    superharmonic_test,
    uniform_weight,
)
from disklab.quadrature import NODE_BLOCK, _unit_nodes
from disklab.weights import (
    _LATTICE_CENTERS, _LATTICE_RADII, _circle_mean, _interior, _on_circle,
)

from reference import disk_grid_size, kept_moments, kept_values


class TestEval:
    def test_harmonic_boundary_at_origin(self):
        assert HarmonicBoundary(1.0)(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_log_green_origin_at_inverse_e(self):
        w = LogGreen(0.0)
        assert w(math.exp(-1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_log_green_half_at_origin(self):
        assert LogGreen(0.5)(0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_scaled_multiplies(self):
        w = Scaled(3.0, LogGreen(0.0))
        assert w(0.5) == pytest.approx(3.0 * math.log(2.0), abs=1e-14)

    def test_singular_point_rejected(self):
        with pytest.raises(SingularPointError):
            LogGreen(0.3)(0.3)

    @pytest.mark.parametrize("pole, node", [(0.3, 0.3 + 1e-15), (1e-13, 1.01e-13)])
    def test_a_node_next_to_a_pole_is_evaluated(self, pole, node):
        # only a node equal to the pole is refused, however near another lies
        assert node != pole
        assert 30.0 < LogGreen(pole)(node) < math.inf

    def test_a_quotient_that_overflows_next_to_a_pole_is_a_finite_value_without_a_warning(self):
        # (1 - conj(p) z) / (z - p) overflows at |z - p| = 1e-320; its log does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = LogGreen(1e-307)(1e-307 + 1e-320)
        gap = (1e-307 + 1e-320) - 1e-307  # log|1 - conj(p) z| rounds to 0.0
        assert 736.0 < value == pytest.approx(-math.log(gap), rel=1e-15)

    def test_harmonic_requires_unimodular_point(self):
        with pytest.raises(DomainError):
            HarmonicBoundary(0.9)

    def test_log_requires_interior_point(self):
        with pytest.raises(DomainError):
            LogGreen(1.2)

    def test_log_green_positive_inside(self):
        w = LogGreen(0.3 + 0.2j)
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = 0.95 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            if abs(z - (0.3 + 0.2j)) > 1e-6:
                assert w(z) > 0.0

    def test_log_green_blows_up_at_pole(self):
        w = LogGreen(0.25)
        vals = [w(0.25 + d) for d in (1e-2, 1e-4, 1e-6)]
        assert vals[0] < vals[1] < vals[2]


class TestBlockedEval:
    @pytest.mark.parametrize("which", ["harm", "log", "scaled-harm", "scaled-log"])
    @pytest.mark.parametrize("grid_name", ["harm", "log"])
    def test_blocks_equal_whole_array(self, which, grid_name, disk_grid, log04_grid):
        grid = {"harm": disk_grid, "log": log04_grid}[grid_name]
        w = {
            "harm": HarmonicBoundary(1.0),
            "log": LogGreen(0.4),
            "scaled-harm": Scaled(0.7, HarmonicBoundary(-1j)),
            "scaled-log": Scaled(1.0 / 0.42, LogGreen(0.4)),
        }[which]
        assert grid.size % NODE_BLOCK != 0  # the last block is partial
        # the block formula on the whole array at once
        assert np.array_equal(w.eval_many(grid.nodes), w._value_block(grid.nodes))

    def test_shape_is_kept(self, coarse_disk_grid):
        w = LogGreen(0.4)
        z = coarse_disk_grid.nodes[: 3 * 1000].reshape(3, 1000)
        out = w.eval_many(z)
        assert out.shape == (3, 1000)
        assert np.array_equal(out.ravel(), w.eval_many(z.ravel()))
        assert w.eval_many(np.asarray(0.5j)).shape == ()

    @pytest.mark.parametrize(
        "w", [HarmonicBoundary(1j), LogGreen(-0.3), Scaled(2.0, LogGreen(0.1j))]
    )
    def test_singular_point_in_last_partial_block(self, w, disk_grid):
        z = np.append(disk_grid.nodes, w.singularities[0])
        assert z.size % NODE_BLOCK != 1  # not alone in its block
        with pytest.raises(SingularPointError):
            w.eval_many(z)

    def test_a_custom_function_gets_at_most_a_block_per_call(self):
        sizes = []
        custom = Custom(lambda z: sizes.append(z.size) or np.ones(z.shape), label="counted")
        z = np.full(2 * NODE_BLOCK + 5, 0.5j)
        for w, value in ((custom, 1.0), (Scaled(2.0, custom), 2.0)):
            sizes.clear()
            assert np.array_equal(w.eval_many(z), np.full(z.size, value))
            assert sizes == [NODE_BLOCK, NODE_BLOCK, 5]

    def test_peak_memory_is_the_output_plus_a_block(self, disk_grid):
        w = HarmonicBoundary(1.0)
        output = 8 * disk_grid.size  # one float per node
        nodes = disk_grid.nodes  # formed outside the count: the grid keeps none
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            vals = w.eval_many(nodes)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert vals.nbytes == output
        assert peak <= output + 2**20


class TestCatalogFormulas:
    """Each catalog weight's values are its literal formula, bit for bit."""

    @pytest.mark.parametrize("zeta", [1.0, np.exp(0.7j), -1j, 0.6 - 0.8j])
    @pytest.mark.parametrize("grid_name", ["harm", "log"])
    def test_harmonic_boundary(self, zeta, grid_name, disk_grid, log04_grid):
        z = {"harm": disk_grid, "log": log04_grid}[grid_name].nodes
        expected = (1.0 - np.abs(z) ** 2) / np.abs(z - zeta) ** 2
        assert np.array_equal(HarmonicBoundary(zeta).eval_many(z), expected)

    @pytest.mark.parametrize("zeta", [0.4, -0.3 + 0.5j, 0.35 - 0.2j, 0.0])
    @pytest.mark.parametrize("grid_name", ["harm", "log"])
    def test_log_green(self, zeta, grid_name, disk_grid, log04_grid):
        z = {"harm": disk_grid, "log": log04_grid}[grid_name].nodes
        expected = np.log(np.abs((1.0 - np.conj(zeta) * z) / (z - zeta)))
        assert np.array_equal(LogGreen(zeta).eval_many(z), expected)


class TestMass:
    def test_harmonic_masses_are_one(self, disk_grid):
        for zeta in (1.0, np.exp(0.8j), np.exp(-2.3j)):
            assert l1_norm(HarmonicBoundary(zeta), disk_grid) == pytest.approx(
                1.0, abs=1e-6
            )

    def test_log_green_origin_mass(self, disk_grid):
        assert l1_norm(LogGreen(0.0), disk_grid) == pytest.approx(0.5, abs=1e-6)

    def test_scaled_mass_is_linear(self, disk_grid):
        assert l1_norm(Scaled(2.0, LogGreen(0.0)), disk_grid) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_normalize_gives_unit_mass(self, disk_grid):
        w = normalize(LogGreen(0.0), disk_grid)
        assert l1_norm(w, disk_grid) == pytest.approx(1.0, abs=1e-12)

    def test_normalize_of_harmonic_is_near_identity(self, disk_grid, harm_weight):
        w = normalize(harm_weight, disk_grid)
        assert abs(w.c - 1.0) < 1e-6

    def test_normalize_kills_scale(self, disk_grid):
        w1 = normalize(Scaled(5.0, LogGreen(0.0)), disk_grid)
        w2 = normalize(LogGreen(0.0), disk_grid)
        zs = np.array([0.3, -0.2 + 0.4j, 0.7j])
        np.testing.assert_allclose(w1.eval_many(zs), w2.eval_many(zs), atol=1e-12)

    def test_normalize_rejects_zero_weight(self, coarse_disk_grid):
        zero = Custom(lambda z: np.zeros(z.shape), label="zero")
        with pytest.raises(DegenerateWeightError):
            normalize(zero, coarse_disk_grid)

    def test_normalize_rejects_mass_without_finite_reciprocal(self, coarse_disk_grid):
        tiny = Scaled(1e-310, HarmonicBoundary(1.0))
        with pytest.raises(DegenerateWeightError, match="has no finite reciprocal, so the "
                                                        "weight cannot be normalized"):
            normalize(tiny, coarse_disk_grid)

    def test_analytic_masses_match_quadrature(self, disk_grid):
        for w in (HarmonicBoundary(np.exp(1.9j)), LogGreen(0.0), Scaled(3.0, LogGreen(0.0))):
            grid = grid_for_weight(w, 120, 256)
            assert l1_norm(w, grid) == pytest.approx(w.analytic_mass, abs=2e-6)

    def test_mass_is_evaluated_in_node_blocks(self, disk_grid):
        # the harm:1,0 grid; the mass is W[0][0] of one ring pass, which keeps
        # no node value (8 * 290,926 bytes would be 2.2 MiB) and forms its
        # nodes a column chunk at a time
        assert disk_grid.size == 290_926
        w = HarmonicBoundary(1.0)  # a fresh object: no W kept yet
        tracemalloc.start()
        try:
            mass = l1_norm(w, disk_grid)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            again = l1_norm(w, disk_grid)  # reads the kept W, forms no node
            repeat = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert repeat < 2**17
        # bit for bit the kept-values reference's W[0][0]
        assert mass == again == kept_moments(kept_values(w, disk_grid), disk_grid, 0)[0, 0].real
        assert mass == 0.9999999982524388
        # the blocked sum, the mass's cross-check: the whole-array evaluation's sum
        assert integrate(disk_grid, w.eval_many) == 0.9999999982524391


class TestSuperharmonic:
    def test_one_minus_abs_square_passes(self):
        w = Custom(lambda z: 1.0 - np.abs(z) ** 2, label="paraboloid")
        worst_margin, _ = superharmonic_test(w)
        assert worst_margin >= -1e-8

    def test_abs_square_fails_with_radius_square_violation(self):
        # the mean of |z|^2 on the circle of radius r about z0 is |z0|^2 + r^2,
        # so the worst violation is the largest radius squared, 0.0625; roundoff
        # puts it at the first center off the origin (0.06250000000000006)
        w = Custom(lambda z: np.abs(z) ** 2, label="bowl")
        worst_margin, cell = superharmonic_test(w)
        assert worst_margin == pytest.approx(-0.0625, abs=1e-12)
        assert cell == (_LATTICE_CENTERS[1], 0.25)

    def test_log_green_passes_on_lattice(self):
        worst_margin, _ = superharmonic_test(LogGreen(0.4))
        assert worst_margin >= -1e-8

    def test_harmonic_boundary_passes_with_near_equality(self, harm_weight):
        worst_margin, _ = superharmonic_test(harm_weight)
        # harmonic: circle means equal the center value up to quadrature
        assert abs(worst_margin) < 1e-8

    def test_lattice_circles_lie_inside_the_disk(self):
        assert max(abs(c) for c in _LATTICE_CENTERS) + max(_LATTICE_RADII) < 1.0

    def test_cells_at_an_interior_pole_are_skipped(self):
        # the pole of log:0,0 is the first center: its five cells go, and it is
        # never evaluated, which would raise SingularPointError
        sizes = []
        w = LogGreen(0.0)
        evaluate = w.eval_many
        w.eval_many = lambda z: sizes.append(np.size(z)) or evaluate(z)
        worst_margin, cell = superharmonic_test(w)
        assert worst_margin >= -1e-8 and cell[0] != 0j
        assert sum(sizes) == 9 * (5 * 256 + 1)

    def test_each_center_is_read_once_after_its_first_circle(self):
        # a circle's error comes before its center's, as when each cell read both
        sizes = []
        w = Custom(lambda z: sizes.append(np.size(z)) or np.ones(np.shape(z)))
        assert superharmonic_test(w) == (0.0, (0j, 0.05))
        assert sizes == len(_LATTICE_CENTERS) * ([256, 1] + [256] * 4)

    def test_no_cell_left_gives_inf_and_no_cell(self):
        # a singular point at every center skips every cell, unevaluated
        w = Custom(lambda z: 1 / 0, singularities=_LATTICE_CENTERS)
        assert superharmonic_test(w) == (math.inf, None)


class TestCircleMean:
    """The lattice's circle mean: fsum of the weight on 256 nodes, over 256."""

    u = _unit_nodes(256, np.arange(256), 0.0)

    def test_odd_integrand_has_an_exact_zero_mean(self):
        # antipodal nodes: the values cancel exactly and fsum certifies the zero
        w = Custom(lambda z: np.real(z))
        assert _circle_mean(w, 0j, 0.25, self.u) == 0.0

    def test_constant_has_mean_exactly_one(self):
        c = _LATTICE_CENTERS[4]
        assert _circle_mean(uniform_weight(), c, 0.2, self.u) == 1.0

    def test_trigonometric_moments(self):
        # |1 - z/2|^2 on the circle of radius r about c has mean |1 - c/2|^2 + r^2/4
        c = _LATTICE_CENTERS[2]
        w = Custom(lambda z: np.abs(1 - z / 2) ** 2)
        mean = _circle_mean(w, c, 0.15, self.u)
        assert mean == pytest.approx(abs(1 - c / 2) ** 2 + 0.15**2 / 4, abs=1e-14)

    def test_a_sum_out_of_float_range_is_a_singular_integrand(self):
        # every value is finite; their sum is not
        w = Custom(lambda z: np.full(z.shape, 1e308))
        with pytest.raises(SingularIntegrandError, match="over the 256 circle nodes overflows"):
            _circle_mean(w, 0j, 0.1, self.u)
        with pytest.raises(SingularIntegrandError, match="over the 256 circle nodes overflows"):
            superharmonic_test(Scaled(1e308, uniform_weight()))

    def test_non_finite_value_names_its_unit_node_and_index(self):
        w = Custom(lambda z: np.where(np.arange(z.size) == 17, np.nan, 1.0))
        with pytest.raises(SingularIntegrandError) as err:
            _circle_mean(w, 0j, 0.1, self.u)
        assert str(err.value) == f"integrand is not finite at node {complex(self.u[17])!r} (index 17)"


class TestSynthesize:
    def test_single_interior_atom_matches_log_green(self, coarse_disk_grid):
        zeta = 0.35 - 0.2j
        mass = (1.0 - abs(zeta) ** 2) / 2.0
        w = AtomicWeight(interior=((zeta, mass),), label="synthesized")
        ref = LogGreen(zeta)
        zs = np.array([0.1, 0.5j, -0.3 + 0.55j, 0.8])
        np.testing.assert_allclose(w.eval_many(zs), ref.eval_many(zs), atol=1e-12)

    def test_single_boundary_atom_matches_harmonic(self):
        zeta = np.exp(0.6j)
        w = AtomicWeight(boundary=(((zeta), 1.0),), label="synthesized")
        ref = HarmonicBoundary(zeta)
        zs = np.array([0.0, 0.2 + 0.1j, -0.6j])
        np.testing.assert_allclose(w.eval_many(zs), ref.eval_many(zs), atol=1e-13)

    def test_empty_decomposition_is_zero_weight(self):
        w = AtomicWeight(label="synthesized")
        assert w(0.3) == 0.0

    def test_synthesis_is_additive(self):
        interior = ((0.2, 0.3),)
        boundary = ((1.0 + 0j, 0.7),)
        zs = np.array([0.4j, -0.1 + 0.2j])
        np.testing.assert_allclose(
            AtomicWeight(interior=interior, boundary=boundary, label="synthesized").eval_many(zs),
            AtomicWeight(interior=interior, label="synthesized").eval_many(zs)
            + AtomicWeight(boundary=boundary, label="synthesized").eval_many(zs),
            atol=1e-13,
        )

    def test_masses_must_be_positive(self):
        with pytest.raises(DomainError):
            AtomicWeight(interior=((0.3, -1.0),), label="synthesized")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: AtomicWeight(interior=((0.3, math.nan),), label="synthesized"),
            lambda: AtomicWeight(interior=((0.3, math.inf),), label="synthesized"),
            lambda: AtomicWeight(interior=((complex(0.3, math.nan), 0.1),), label="synthesized"),
            lambda: AtomicWeight(boundary=((complex(math.nan, 0.0), 1.0),), label="synthesized"),
            lambda: AtomicWeight(boundary=((1.0, math.nan),), label="synthesized"),
            lambda: AtomicWeight(boundary=((1.0, math.inf),), label="synthesized"),
            lambda: HarmonicBoundary(math.nan),
            lambda: HarmonicBoundary(complex(math.inf, 0.0)),
            lambda: LogGreen(math.nan),
            lambda: LogGreen(complex(0.0, math.nan)),
            lambda: LogGreen(-math.inf),
        ],
        ids=["interior-nan-mass", "interior-inf-mass", "interior-nan-point",
             "boundary-nan-point", "boundary-nan-mass", "boundary-inf-mass",
             "harm-nan", "harm-inf", "log-nan", "log-nan-imag", "log-inf"],
    )
    def test_non_finite_atoms_are_rejected(self, build):
        with pytest.raises(DomainError):
            build()

    def test_synthesized_weight_carries_its_atoms(self):
        w = AtomicWeight(interior=((0.2, 0.3),), boundary=((1j, 0.5),), label="synthesized")
        assert isinstance(w, AtomicWeight) and w.label == "synthesized"
        assert not w.is_harmonic
        assert w.atoms == ((0.2 + 0j, 0.3), (1j, 0.5))
        assert Scaled(2.0, w).atoms == ((0.2 + 0j, 0.6), (1j, 1.0))
        assert AtomicWeight(boundary=((1j, 0.5),), label="synthesized").is_harmonic

    def test_synthesized_mass_is_total_atom_mass(self, disk_grid):
        w = AtomicWeight(interior=((0.2, 0.3),), boundary=((1j, 0.5),), label="synthesized")
        grid = grid_for_weight(w, 120, 256)
        assert l1_norm(w, grid) == pytest.approx(0.8, abs=1e-5)


class TestSpecParsing:
    def test_harm_spec(self):
        w = parse_weight_spec("harm:1,0")
        assert isinstance(w, HarmonicBoundary)
        assert w.zeta == 1.0

    def test_harm_spec_normalizes_to_circle(self):
        w = parse_weight_spec("harm:3,4")
        assert abs(w.zeta) == pytest.approx(1.0, abs=1e-15)
        assert w.zeta == pytest.approx((3 + 4j) / 5)

    def test_log_spec(self):
        w = parse_weight_spec("log:0.3,-0.2")
        assert isinstance(w, LogGreen)
        assert w.zeta == 0.3 - 0.2j

    def test_scaled_spec_recurses(self):
        w = parse_weight_spec("scaled:2:log:0,0")
        assert isinstance(w, Scaled)
        assert w.c == 2.0
        assert isinstance(w.inner, LogGreen)

    def test_uniform_spec(self):
        w = parse_weight_spec("uniform")
        assert w.is_harmonic
        assert w(0.5) == 1.0

    @pytest.mark.parametrize(
        "bad",
        ["", "harm:0,0", "harm:1", "log:2,0", "mystery:1,0", "scaled:x:uniform",
         "scaled:-1:uniform", "harm:a,b", "scaled:2"],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(WeightSpecError):
            parse_weight_spec(bad)


def _parameters(w):
    if isinstance(w, Scaled):
        return ("scaled", w.c) + _parameters(w.inner)
    return (type(w).__name__, w.zeta)


_coords = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(angle=st.floats(0.0, 2 * math.pi), point=st.tuples(_coords, _coords),
       pole=st.tuples(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99)),
       c=st.floats(1e-6, 1e6))
def test_labels_parse_back_to_the_weight_that_was_built(angle, point, pole, c):
    harm = HarmonicBoundary(complex(math.cos(angle), math.sin(angle)))
    weights = [harm, Scaled(c, harm)]
    if abs(complex(*point)) > 0:  # a spec point the parser normalizes
        weights.append(parse_weight_spec(f"harm:{point[0]!r},{point[1]!r}"))
    if abs(complex(*pole)) < 1:
        weights += [LogGreen(complex(*pole)), Scaled(c, LogGreen(complex(*pole)))]
    for w in weights:
        back = parse_weight_spec(w.label)
        assert _parameters(back) == _parameters(w)
        assert back.label == w.label


def test_labels_keep_the_short_form_when_it_is_exact():
    assert parse_weight_spec("harm:1,0").label == "harm:1,0"
    assert parse_weight_spec("scaled:2:log:0.4,0").label == "scaled:2:log:0.4,0"
    assert parse_weight_spec("log:0.123456789,0").label == "log:0.123456789,0"
    assert (parse_weight_spec("scaled:2.000001234:harm:1,0").label
            == "scaled:2.000001234:harm:1,0")


def test_uniform_weight_is_probability_measure(coarse_disk_grid):
    assert l1_norm(uniform_weight(), coarse_disk_grid) == pytest.approx(
        1.0, abs=1e-13
    )


def test_grid_for_weight_guards_interior_radius(log04_weight):
    grid = grid_for_weight(log04_weight, 40, 64)
    assert grid.singular_radii == (0.4,)
    assert max(grid.ring_counts) > 64


def test_boundary_pole_is_not_an_interior_radius():
    # |(1+i)/|1+i|| rounds to 0.9999999999999999; it must not become a
    # singular radius (a zero ring distance at grid construction)
    tilted = HarmonicBoundary(complex(1, 1) / abs(complex(1, 1)))
    assert abs(tilted.zeta) < 1.0
    assert tilted.singular_radii == ()
    assert disk_grid_size(120, 256, tilted.singular_radii) == disk_grid_size(
        120, 256, HarmonicBoundary(1.0).singular_radii
    )


def test_one_circle_test_decides_which_poles_are_interior():
    tilted = HarmonicBoundary(complex(1, 1) / abs(complex(1, 1)))
    assert _on_circle(tilted.zeta) and _interior(tilted.singularities) == []
    w = Custom(lambda z: np.ones(z.shape), singularities=[1 - 1e-13, 1 - 1e-11, 0.5, 2.0])
    assert _interior(w.singularities) == [1 - 1e-11, 0.5]
    assert w.singular_radii == (0.5, 1 - 1e-11)
    with pytest.raises(DomainError, match="is not on the circle"):
        AtomicWeight(boundary=((1 - 1e-11, 1.0),), label="synthesized")
    assert AtomicWeight(boundary=((1 - 1e-13, 1.0),), label="synthesized").is_harmonic
