import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disklab import (
    DomainError,
    SingularIntegrandError,
    integrate,
    make_disk_grid,
)
from disklab import quadrature
from disklab.quadrature import ALIAS_GUARD, MAX_DISK_NODES, NODE_BLOCK

from reference import disk_grid_size


def poisson_kernel(zeta):
    def f(z):
        return (1.0 - np.abs(z) ** 2) / np.abs(z - zeta) ** 2

    return f


class TestDiskGridInvariants:
    def test_weights_sum_to_one(self, disk_grid):
        assert abs(math.fsum(disk_grid.weights) - 1.0) <= 1e-12

    def test_weights_positive(self, disk_grid):
        assert (disk_grid.weights > 0).all()

    def test_nodes_strictly_inside(self, disk_grid):
        assert (np.abs(disk_grid.nodes) < 1.0).all()

    def test_gauss_legendre_rule_built_once_and_read_only(self, monkeypatch):
        quadrature._gauss_legendre.cache_clear()
        calls = []
        real = quadrature._legendre_rule
        monkeypatch.setattr(
            quadrature, "_legendre_rule", lambda n: calls.append(n) or real(n)
        )
        disk_grid_size(40, 64)
        grid = make_disk_grid(40, 64)
        assert calls == [40]
        x, w = quadrature._gauss_legendre(40)
        assert not x.flags.writeable and not w.flags.writeable
        ref_x, ref_w = real(40)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        again = make_disk_grid(40, 64)
        assert np.array_equal(again.nodes, grid.nodes)
        assert np.array_equal(again.weights, grid.weights)

    def test_orders_below_minimum_rejected(self):
        with pytest.raises(DomainError):
            make_disk_grid(0, 64)
        with pytest.raises(DomainError):
            make_disk_grid(10, 3)

    def test_bad_singular_radius_rejected(self):
        with pytest.raises(DomainError):
            make_disk_grid(10, 8, singular_radii=(1.0,))

    def test_node_count_matches_built_grid(self, disk_grid):
        assert disk_grid_size(120, 256) == disk_grid.size == 290_926
        assert disk_grid_size(40, 64, (0.4,)) == make_disk_grid(40, 64, (0.4,)).size

    def test_inconsistent_ring_table_rejected(self):
        from disklab import DiskGrid

        with pytest.raises(DomainError):  # a count with no radius and weight
            DiskGrid((0.5,), (0.1,), (8, 8), radial_order=1, angular_order=8)
        with pytest.raises(DomainError):
            DiskGrid((), (), (), radial_order=1, angular_order=8)
        with pytest.raises(DomainError):
            DiskGrid((0.5,), (0.1,), (0,), radial_order=1, angular_order=8)
        grid = DiskGrid((0.5,), (0.125,), (8,), radial_order=1, angular_order=8)
        assert grid.size == 8 and np.array_equal(grid.weights, np.full(8, 0.125))

    def test_node_budget(self, monkeypatch):
        # a pole this close to the circle asks for ~1e12 nodes; only the
        # count is computed, the grid is never built
        assert disk_grid_size(120, 256, (0.9999999,)) > MAX_DISK_NODES
        size = disk_grid_size(10, 16)
        monkeypatch.setattr(quadrature, "MAX_DISK_NODES", size - 1)
        with pytest.raises(DomainError, match="budget"):
            make_disk_grid(10, 16)


class TestDiskIntegration:
    def test_measure_normalization(self, disk_grid):
        val = integrate(disk_grid, lambda z: np.ones(z.shape))
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_radial_oracle_abs_square(self, disk_grid):
        # integral of |z|^2 dA = int_0^1 r^2 * 2r dr = 1/2
        val = integrate(disk_grid, lambda z: np.abs(z) ** 2)
        assert val == pytest.approx(0.5, abs=1e-14)

    def test_angular_symmetry_kills_z(self, disk_grid):
        val = integrate(disk_grid, lambda z: z)
        assert abs(val) <= 1e-14

    def test_poisson_kernel_integrates_to_one(self):
        # exact angular mean of 1/|zeta - r e^{it}|^2 is 1/(1-r^2), which
        # cancels the numerator; the graded grid must resolve the pole
        grid = make_disk_grid(80, 256)
        for zeta in (1.0, np.exp(0.7j)):
            val = integrate(grid, poisson_kernel(zeta))
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_log_singularity_at_origin(self, disk_grid):
        # int log(1/|z|) dA = int_0^1 -log(r) 2r dr = 1/2
        val = integrate(disk_grid, lambda z: np.log(1.0 / np.abs(z)))
        assert val == pytest.approx(0.5, abs=1e-6)

    def test_singular_integrand_names_node(self, coarse_disk_grid):
        bad_node = coarse_disk_grid.nodes[17]

        def f(z):
            vals = np.ones(z.shape)
            return np.where(z == bad_node, np.inf, vals)

        with pytest.raises(SingularIntegrandError) as err:
            integrate(coarse_disk_grid, f)
        assert "17" in str(err.value)

    def test_singular_node_past_the_first_block_names_its_grid_index(self, disk_grid):
        index = 3 * NODE_BLOCK + 5
        bad_node = disk_grid.nodes[index]

        def f(z):
            return np.where(z == bad_node, np.nan, 1.0)

        with pytest.raises(SingularIntegrandError, match=rf"\(index {index}\)"):
            integrate(disk_grid, f)

    def test_array_valued_scalar_fallback_is_refused(self, coarse_disk_grid):
        # like a closure over whole-grid values, it gives an array per node
        vals = np.ones(7)
        with pytest.raises(DomainError, match="one value per node"):
            integrate(coarse_disk_grid, lambda z: vals)

    def test_linearity(self, coarse_disk_grid):
        f = lambda z: np.abs(z) ** 2
        g = lambda z: np.real(z) ** 2
        lhs = integrate(coarse_disk_grid, lambda z: 2.0 * f(z) + 3.0 * g(z))
        rhs = 2.0 * integrate(coarse_disk_grid, f) + 3.0 * integrate(
            coarse_disk_grid, g
        )
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_nonnegative_integrand_nonnegative_result(self, coarse_disk_grid):
        val = integrate(coarse_disk_grid, lambda z: np.abs(z - 0.3) ** 2)
        assert val >= 0.0

    def test_radial_integrand_independent_of_angular_order(self):
        vals = []
        for na in (4, 16, 64, 256):
            grid = make_disk_grid(60, na)
            vals.append(integrate(grid, lambda z: np.exp(-np.abs(z) ** 2)))
        assert max(vals) - min(vals) <= 1e-13


def _refined(small, large, f):
    """The fine-grid value and |fine - coarse|, the refinement pair of ``weights info``."""
    fine = integrate(large, f)
    return fine, abs(fine - integrate(small, f))


class TestRichardson:
    def test_constant_has_tiny_error_estimate(self):
        small = make_disk_grid(40, 64)
        large = make_disk_grid(80, 128)
        value, est = _refined(small, large, lambda z: np.ones(z.shape))
        assert value == pytest.approx(1.0, abs=1e-14)
        assert est < 1e-14

    def test_estimates_decrease_under_refinement(self):
        # branch-point integrand converges algebraically, so the
        # refinement differences sit well above the roundoff floor
        f = lambda z: np.sqrt(1.0 - np.abs(z))
        _, est1 = _refined(make_disk_grid(10, 16), make_disk_grid(20, 32), f)
        _, est2 = _refined(make_disk_grid(20, 32), make_disk_grid(40, 64), f)
        assert est2 < est1

    def test_poisson_estimate_certifies_accuracy(self):
        f = poisson_kernel(np.exp(0.3j))
        value, est = _refined(make_disk_grid(40, 80), make_disk_grid(80, 160), f)
        assert est < 1e-8
        assert value == pytest.approx(1.0, abs=1e-7)

    def test_interior_singularity_reported_finite(self):
        # all nodes interior: boundary-singular integrands stay finite
        small = make_disk_grid(20, 32)
        large = make_disk_grid(40, 64)
        value, est = _refined(small, large, poisson_kernel(1.0))
        assert np.isfinite(est) and np.isfinite(value)


def test_grading_grows_angular_counts_near_boundary():
    grid = make_disk_grid(80, 64)
    assert max(grid.ring_counts) > 64
    assert min(grid.ring_counts) == 64


def test_summation_is_reproducible():
    grid = make_disk_grid(60, 128)
    f = poisson_kernel(np.exp(1.1j))
    vals = {integrate(grid, f) for _ in range(5)}
    assert len(vals) == 1


# ------------------------------------------------------------- ring counts


def _least_even_5_smooth(need: int) -> int:
    """Smallest even 2^a 3^b 5^c >= need, from the list of all of them up to 2 need."""
    limit = 2 * max(need, 2)  # a power of two lies in [need, 2 need]
    lengths = []
    p5 = 1
    while p5 <= limit:
        p35 = p5
        while p35 <= limit:
            length = 2 * p35
            while length <= limit:
                lengths.append(length)
                length *= 2
            p35 *= 3
        p5 *= 5
    return min(length for length in lengths if length >= need)


def _is_even_5_smooth(m: int) -> bool:
    if m % 2:
        return False
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(radial=st.integers(1, 120), angular=st.integers(4, 1024),
       radii=st.lists(st.floats(0.0, 0.9999999), max_size=3))
def test_ring_counts_are_the_least_even_5_smooth_lengths(radial, angular, radii):
    # checked on the counts alone: a pole near the circle asks for ~1e12 nodes
    _, rings = quadrature._disk_rings(radial, angular, radii)
    guarded = [1.0] + [s for s in radii if s >= np.finfo(float).tiny]
    for r, _, m in rings:
        dist = min(abs(math.log(r) - math.log(s)) for s in guarded)
        need = max(angular, math.ceil(ALIAS_GUARD / dist))
        assert _is_even_5_smooth(m) and m >= need
        assert m == _least_even_5_smooth(need)
    assert disk_grid_size(radial, angular, radii) == sum(m for _, _, m in rings)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(radial=st.integers(1, 16), angular=st.integers(4, 128),
       radii=st.lists(st.floats(0.0, 0.9), max_size=2))
def test_counted_size_is_the_built_size(radial, angular, radii):
    grid = make_disk_grid(radial, angular, radii)
    assert disk_grid_size(radial, angular, radii) == grid.size == sum(grid.ring_counts)
    assert all(_is_even_5_smooth(m) for m in grid.ring_counts)


@pytest.mark.parametrize("orders", [(4, 8), (120, 256)])
def test_singular_radii_an_ulp_apart_are_a_domain_error(orders):
    # the one-ulp segment's Gauss nodes round onto its ends, at distance 0
    radii = (0.5, 0.5000000000000001)
    with pytest.raises(DomainError, match="too close"):
        disk_grid_size(*orders, radii)
    with pytest.raises(DomainError, match="too close"):
        make_disk_grid(*orders, radii)


def test_subnormal_singular_radius_is_the_origin():
    # its segment's Gauss nodes would underflow to r = 0
    assert make_disk_grid(4, 8, (5e-324,)).ring_counts == make_disk_grid(4, 8).ring_counts


def test_ring_counts_of_a_pole_near_the_circle_are_found_fast():
    start = time.perf_counter()
    size = disk_grid_size(120, 256, (0.9999999,))
    assert time.perf_counter() - start < 1.0
    assert size > MAX_DISK_NODES


@pytest.mark.parametrize("radial", [10**8, 10**30])
def test_a_huge_radial_order_is_refused_before_its_rule(radial, small_gauss_rules_only):
    with pytest.raises(DomainError, match=rf"needs more than \d+ nodes, over the budget "
                                          rf"{MAX_DISK_NODES}$"):
        make_disk_grid(radial, 256)


@pytest.mark.parametrize("radii", [(), (0.4,), (0.9999999,)])
@pytest.mark.parametrize("angular", [4, 256])
@pytest.mark.parametrize("radial", [1, 2, 120, 240, 1000, 1500, 3000])
def test_early_node_bound_never_exceeds_the_count(radial, angular, radii, monkeypatch):
    # the budget raised, so the count is made wherever the early bound would refuse
    n = max(1, radial // (len(radii) + 1))
    least = quadrature._least_outer_ring_count(n)
    monkeypatch.setattr(quadrature, "MAX_DISK_NODES", 2**62)
    assert least <= disk_grid_size(radial, angular, radii)


# ---------------------------------------------------------- Gauss-Legendre


def _mp_gauss_legendre(n: int, mpmath):
    """50-digit Gauss-Legendre nodes and weights: Newton on P_n from leggauss."""
    mpmath.mp.dps = 50

    def legendre(x):
        p0, p1 = mpmath.mpf(1), x
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        return p1, n * (x * p1 - p0) / (x * x - 1)

    nodes, weights = [], []
    for x0 in np.polynomial.legendre.leggauss(n)[0]:
        x = mpmath.mpf(float(x0))
        for _ in range(8):
            p, dp = legendre(x)
            x -= p / dp
        _, dp = legendre(x)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


@pytest.mark.parametrize("n", [30, 60, 120])
def test_gauss_legendre_rule_against_50_digit_reference(n):
    mpmath = pytest.importorskip("mpmath")
    ref_x, ref_w = _mp_gauss_legendre(n, mpmath)
    x, w = quadrature._gauss_legendre(n)
    eps = np.finfo(float).eps

    def node_error(xs):
        return max(float(abs(mpmath.mpf(float(a)) - b)) for a, b in zip(xs, ref_x))

    def weight_error(ws):
        return max(float(abs((mpmath.mpf(float(a)) - b) / b)) for a, b in zip(ws, ref_w))

    assert node_error(x) <= 2 * eps
    lx, lw = np.polynomial.legendre.leggauss(n)
    assert weight_error(w) <= 1e-12
    assert weight_error(w) < weight_error(lw)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(math.fsum(w) - 2.0) <= 4 * eps


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8])
def test_small_gauss_legendre_rules(n):
    x, w = quadrature._gauss_legendre(n)
    lx, lw = np.polynomial.legendre.leggauss(n)
    assert np.allclose(x, lx, rtol=0, atol=4e-16) and np.allclose(w, lw, rtol=1e-14, atol=0)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    if n % 2:
        assert x[n // 2] == 0.0


# -------------------------------------------------------------- integrate


def test_disk_integral_is_summed_in_node_blocks(disk_grid):
    def poisson(z):
        return 1.0 / np.abs(1.0 - z) ** 2 * (1 - np.abs(z) ** 2)

    vals = poisson(disk_grid.nodes)
    unblocked = float(np.sum(disk_grid.weights * vals))
    tracemalloc.start()
    try:
        value = integrate(disk_grid, poisson)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert disk_grid.size > 10 * NODE_BLOCK
    assert peak <= 2**20  # evaluated block by block: no node-sized array
    assert abs(value - unblocked) <= 4 * np.finfo(float).eps * abs(unblocked)
    blocks = [
        np.sum(disk_grid.weights[i : i + NODE_BLOCK] * vals[i : i + NODE_BLOCK])
        for i in range(0, disk_grid.size, NODE_BLOCK)
    ]
    assert value == float(sum(blocks))


# -------------------------------------------------------------- ring table


def _plain_nodes(count, offset):
    """exp(2j pi (t + offset) / count) of a whole ring, second half of an even
    count negated from the first."""
    half = count // 2 if count % 2 == 0 else count
    t = np.arange(count)
    plain = np.exp(2j * np.pi * (t - half * (t >= half) + offset) / count)
    np.negative(plain[half:], out=plain[half:])
    return plain


@pytest.mark.parametrize("offset", [0.0, 0.25, 0.35, 0.5])
def test_unit_nodes_are_the_complex_formula_bit_for_bit(offset):
    # the angle is formed in real arithmetic; a node keeps the bits of
    # exp(2j pi (t + offset) / count), second half negated, in any index array
    rng = np.random.default_rng(7)
    for count in [*range(1, 300), 4096, 13_122, 36_000, 99_999, 186_624]:
        plain = _plain_nodes(count, offset)
        got = quadrature._unit_nodes(count, np.arange(count), offset)
        assert got.tobytes() == plain.tobytes()
        shape = tuple(int(n) for n in rng.integers(1, 6, size=rng.integers(0, 4)))
        t = rng.integers(0, count, size=shape)
        got = quadrature._unit_nodes(count, t, offset)
        assert got.shape == shape and got.tobytes() == plain[t].tobytes()


@pytest.mark.parametrize("m", [256, 36_000, 13_122], ids=["one-column", "even-L", "odd-L"])
def test_column_chunks_are_the_ring_nodes_bit_for_bit(m):
    # _circle_sums forms its (L, k) chunks of node t = a (m / L) + b from the
    # indices: L = 4000 is even (top rows negated), 13,122 = 2 * 3^8 has the
    # odd L = 2,187 (every row formed, the second half negated by the mask)
    chunks = []

    def values(u):
        chunks.append(u.copy())
        return np.zeros(u.shape)

    quadrature._circle_sums(m, (1.0,), values, np.empty((1, 1), dtype=complex))
    columns = np.concatenate(chunks, axis=1)
    split = {256: 256, 36_000: 4000, 13_122: 2187}[m]
    assert columns.shape == (split, m // split)
    assert columns.tobytes() == _plain_nodes(m, 0.5).reshape(split, m // split).tobytes()


def test_unit_nodes_are_unimodular():
    assert np.abs(np.abs(quadrature._unit_nodes(256, np.arange(256), 0.0)) - 1.0).max() <= 1e-15


def test_half_offset_nodes_avoid_angle_zero():
    assert np.abs(quadrature._unit_nodes(64, np.arange(64)) - 1.0).min() > 1e-3


def _materialised_disk_grid(radial_order, angular_order, singular_radii=()):
    """Reference: the whole rule's node and weight arrays, each ring written in place."""
    _, rings = quadrature._disk_rings(radial_order, angular_order, singular_radii)
    size = sum(m for _, _, m in rings)
    nodes, weights = np.empty(size, dtype=complex), np.empty(size)
    start = 0
    for r, w, m in rings:
        if m % 2 == 0:
            half = np.exp(2j * np.pi * (np.arange(m // 2) + 0.5) / m)
            angles = np.concatenate([half, -half])
        else:
            angles = np.exp(2j * np.pi * (np.arange(m) + 0.5) / m)
        np.multiply(r, angles, out=nodes[start : start + m])
        weights[start : start + m] = w / m
        start += m
    return nodes, weights


@pytest.mark.parametrize(
    "orders",
    [(120, 256, ()), (120, 256, (0.4,)), (3, 4, ()), (5, 8, (0.5,)), (9, 6, (0.2, 0.9))],
    ids=["harm-and-uniform", "log-0.4", "tiny", "one-radius", "two-radii"],
)
def test_blocks_are_the_materialised_rule_bit_for_bit(orders):
    grid = make_disk_grid(*orders)
    nodes, weights = _materialised_disk_grid(*orders)
    assert grid.size == nodes.size
    starts = []
    for start, z, wts in quadrature._disk_blocks(grid):
        starts.append(start)
        stop = min(start + NODE_BLOCK, grid.size)
        # bytes, so signed zeros count
        assert z.tobytes() == nodes[start:stop].tobytes()
        assert wts.tobytes() == weights[start:stop].tobytes()
    assert starts == list(range(0, grid.size, NODE_BLOCK))
    assert grid.nodes.tobytes() == nodes.tobytes()
    assert grid.weights.tobytes() == weights.tobytes()


def test_grid_holds_no_node_sized_array():
    quadrature._gauss_legendre.cache_clear()
    tracemalloc.start()
    try:
        grid = make_disk_grid(120, 256, (0.4,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.size == 240_460
    assert peak < 2**16
