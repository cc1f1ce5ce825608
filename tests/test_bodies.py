import decimal
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftguard import bodies, cli
from driftguard.bodies import (
    Box,
    Density,
    FisherMatrix,
    cube_eigen_density,
    dirichlet_lambda1_box,
    fisher_closed_form_cube,
    fisher_monte_carlo,
    fisher_operator_norm,
    fisher_quadrature,
)
from driftguard.bounds import matching_bounds
from driftguard.metropolis import rejection_rate_exact_1d
from helpers import (
    contains_interior,
    contains_scaled,
    cube_coordinate_cdf,
    direction_information,
    finite_difference_score,
    fisher_monte_carlo_serial,
    fisher_outer_mean,
    kepler_quantile_where,
    leggauss_integrate,
    reference_quantile,
    seed_fingerprint,
)


class TestBox:
    def test_cube_constructor(self):
        box = Box.cube(3, 16.0)
        assert box.dimension == 3
        assert box.is_cube
        assert np.array_equal(box.half_widths, [16.0, 16.0, 16.0])

    def test_rejects_nonpositive_half_widths(self):
        with pytest.raises(ValueError):
            Box(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            Box(np.array([-1.0]))
        with pytest.raises(ValueError):
            Box(np.array([np.inf]))

    def test_rejects_empty_and_nonvector(self):
        with pytest.raises(ValueError):
            Box(np.array([]))
        with pytest.raises(ValueError):
            Box(np.ones((2, 2)))

    def test_half_widths_follow_the_number_rule(self):
        # a bool was taken as 1.0, an int beyond float range overflowed, and
        # NaN passed, as abs(nan) > float max is False
        for bad in (True, "2", 10**400, np.inf, math.nan):
            message = f"^half_width must be a finite number, not {bad!r}$"
            with pytest.raises(ValueError, match=message):
                Box.cube(2, bad)
        for bad in ([True, 2.0], (2.0, "1"), [1.0, 10**400]):
            with pytest.raises(ValueError, match="^half_widths must be a finite number"):
                Box(bad)
        with pytest.raises(ValueError, match="^half_widths must be ints or floats, not bool$"):
            Box(np.array([True, False]))
        # numpy would cast a string array to the half-widths it spells
        for bad in (np.array(["2.0"]), np.array([2.0, None])):
            message = f"^half_widths must be ints or floats, not {bad.dtype}$"
            with pytest.raises(ValueError, match=message):
                Box(bad)
        assert np.array_equal(Box.cube(2, np.int64(2)).half_widths, [2.0, 2.0])
        assert np.array_equal(Box([1, np.float32(2.5)]).half_widths, [1.0, 2.5])

    def test_half_widths_are_a_read_only_float64_copy(self):
        for source in (np.array([1.0, 2.0]), np.array([1, 2])):
            box = Box(source)
            source[0] = 5  # the box keeps its own copy
            assert box.half_widths.dtype == np.float64 and not box.half_widths.flags.writeable
            assert box.half_widths.tolist() == [1.0, 2.0]

    def test_non_cube_box(self):
        assert not Box(np.array([1.0, 2.0])).is_cube

    def test_contains(self):
        box = Box(np.array([1.0, 2.0]))
        assert contains_interior(box, [0.5, -1.9])
        assert not contains_interior(box, [1.0, 0.0])  # boundary is outside
        assert contains_scaled(box, [2.0, -4.0], 2.0)
        assert not contains_scaled(box, [2.1, 0.0], 2.0)


class TestRowNorms:
    # both sides of the d = 8 branch: below it the squares add a whole column
    # at a time, from it on the rows are np.linalg.norm's own
    DIMS = [*range(1, 21), 24, 64, 127, 128, 129, 256]

    @staticmethod
    def assert_bits(x):
        got, expected = bodies._row_norms(x), np.linalg.norm(x, axis=-1)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", DIMS)
    def test_bits_of_np_linalg_norm_in_every_layout(self, d):
        rng = np.random.default_rng(d)
        steps = rng.normal(size=(4, 50, d)) * np.exp(rng.uniform(-30.0, 30.0, size=(4, 50, d)))
        rows = steps[0]
        spaced = np.zeros((50, 2 * d))
        spaced[:, ::2] = rows
        layouts = [rows, np.asfortranarray(rows), rows[::3], spaced[:, ::2], rows[::-1, ::-1],
                   steps, np.asfortranarray(steps), steps.transpose(1, 0, 2), steps[::-1, :, ::-1]]
        for x in layouts:
            self.assert_bits(x)

    @pytest.mark.parametrize("d", DIMS)
    def test_bits_on_zeros_subnormals_and_non_finite_entries(self, d):
        specials = [0.0, -0.0, 5e-324, -1e-310, np.nan, np.inf, -np.inf, 1e200, -1e200, 1.5]
        rng = np.random.default_rng(d)
        x = rng.choice(specials, size=(300, d))
        x[: len(specials)] = np.array(specials)[:, None]  # rows of one value each
        with np.errstate(over="ignore"):
            self.assert_bits(x)
            self.assert_bits(np.asfortranarray(x))
            assert np.all(bodies._row_norms(np.full((2, d), 1e200)) == np.inf)

    def test_a_huge_step_still_overflows_the_bound(self):
        steps = np.zeros((5, 3))
        steps[2, 1] = 1e200  # its norm is finite, but not the square numpy sums
        with pytest.raises(ValueError, match=r"^steps too large: the bound overflows$"):
            matching_bounds(Box.cube(3, 4.0), steps)


class TestCubeEigenDensity:
    def test_peak_value_d1(self):
        den = cube_eigen_density(Box.cube(1, 1.0))
        assert math.exp(den.log_density(np.zeros(1))) == pytest.approx(1.0, abs=1e-15)

    def test_boundary_is_minus_inf(self):
        den = cube_eigen_density(Box.cube(1, 1.0))
        assert den.log_density(np.array([1.0])) == -math.inf
        assert den.log_density(np.array([-1.0])) == -math.inf
        assert den.log_density(np.array([1.5])) == -math.inf

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_coordinate_is_minus_inf_without_a_warning(self, d, value):
        # cos(inf) warns "invalid value", which the suite's -W error raises
        den = cube_eigen_density(Box.cube(d, 1.0))
        point = np.zeros(d)
        point[-1] = value
        assert den.log_density(point) == -math.inf
        batch = np.stack([point, np.zeros(d), point[::-1]])
        expected = [-math.inf, den.log_density(np.zeros(d)), -math.inf]
        assert den.log_density(batch).tolist() == expected

    def test_normalization_d2(self):
        # independent tensor quadrature, not the module's grid helper
        den = cube_eigen_density(Box.cube(2, 1.0))
        total = leggauss_integrate(
            lambda pts: np.exp(den.log_density(pts)), [1.0, 1.0], 96
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("half_widths", [[1.0], [2.5], [0.5, 3.0], [1.0, 1.0]])
    def test_normalization_low_dim(self, half_widths):
        den = cube_eigen_density(Box(np.array(half_widths)))
        total = leggauss_integrate(
            lambda pts: np.exp(den.log_density(pts)), half_widths, 96
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_log_density_vectorized_matches_scalar(self):
        den = cube_eigen_density(Box(np.array([1.0, 2.0])))
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(40, 2)) * np.array([1.0, 2.0])
        batch = den.log_density(pts)
        for i in range(40):
            assert batch[i] == den.log_density(pts[i])

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 64, 256])
    def test_log_density_sums_axes_in_order_whatever_the_layout(self, d):
        # numpy sums a contiguous row pairwise from 8 terms on, so at d >= 8
        # a sum that followed the memory layout would differ in the last bits
        box = Box(np.linspace(0.5, 4.0, d))
        hw = box.half_widths
        den = cube_eigen_density(box)
        pts = den.sample(np.random.default_rng(d), 60)
        pts[7, -1] = hw[-1]  # on the boundary
        pts[8, 0] = -hw[0]
        pts[9, 0] = -2.0 * hw[0]  # outside
        pts[10, -1] = np.nextafter(hw[-1], 0.0)  # the last float inside
        pts[11, 0] = np.nextafter(-hw[0], 0.0)
        pts[12] = -0.0
        pts[13, d // 2] = 1e300  # far outside
        log_norm = den.log_density(np.zeros(d))  # every term is log(1) = 0 there
        expected = []
        for point in pts:
            terms = np.log(np.abs(np.cos(point * (np.pi / (2.0 * hw)))))
            total = terms[0]
            for term in terms[1:]:
                total += term
            inside = np.all(np.abs(point) < hw)
            expected.append(log_norm + 2.0 * total if inside else -math.inf)
        expected = np.array(expected).view(np.int64)
        spaced = np.zeros((60, 2 * d))
        spaced[:, ::2] = pts
        # the pre-fetching round's candidates: rows 1: of a step-major (W + 1, m, d) block
        window = np.empty((7, 10, d))
        window[1:] = pts.reshape(6, 10, d)
        layouts = [pts, np.asfortranarray(pts), spaced[:, ::2], spaced[::-1, ::2][::-1],
                   pts.reshape(6, 10, d), np.asfortranarray(pts.reshape(6, 10, d)), window[1:]]
        for points in layouts:
            assert np.array_equal(den.log_density(points).reshape(-1).view(np.int64), expected)
        lone = [[den.log_density(point) for point in pts],
                [den.log_density(point[None])[0] for point in pts],
                [den.log_density(spaced[i : i + 1, ::2])[0] for i in range(60)],
                [den.log_density(pts[i].reshape(1, 1, d))[0, 0] for i in range(60)]]
        for values in lone:
            assert np.array_equal(np.array(values).view(np.int64), expected)

    def test_log_density_rejects_points_of_another_dimension(self):
        den = cube_eigen_density(Box.cube(2, 1.0))
        for points in (np.zeros(3), np.zeros((4, 1)), 0.0):
            with pytest.raises(ValueError, match=r"expected \(\.\.\., 2\)"):
                den.log_density(points)

    @pytest.mark.parametrize(
        "points",
        [["1.5", "0"], [True, False], np.array([[None, 1]], dtype=object), np.array([0.5j, 0.0])],
    )
    def test_points_must_be_ints_or_floats(self, points):
        # strings and bools were cast to floats, and an object array read -inf
        den = cube_eigen_density(Box.cube(2, 3.0))
        for reader in (den.log_density, den.log_gradient):
            with pytest.raises(ValueError, match=r"^points must be ints or floats"):
                reader(points)

    def test_float32_int_and_fortran_points_read_as_float64(self):
        den = cube_eigen_density(Box(np.array([1.5, 4.0, 2.0])))
        pts = den.sample(np.random.default_rng(8), 40)
        for points in (pts.astype(np.float32), np.round(pts).astype(int), np.asfortranarray(pts)):
            as_float = np.array(points, dtype=float, order="C")
            for reader in (den.log_density, den.log_gradient):
                assert reader(points).tobytes() == reader(as_float).tobytes()

    def test_score_matches_finite_differences(self):
        # 100 random interior points, step 1e-6 * T, relative error < 1e-5
        box = Box(np.array([1.0, 3.0]))
        den = cube_eigen_density(box)
        rng = np.random.default_rng(11)
        pts = den.sample(rng, 100)
        fd = finite_difference_score(den.log_density, pts, 1e-6)
        exact = den.log_gradient(pts)
        rel = np.abs(fd - exact) / np.maximum(np.abs(exact), 1.0)
        assert np.max(rel) < 1e-5

    def test_sampler_strictly_interior(self):
        for hw in ([1.0], [0.25, 8.0], [16.0, 16.0, 16.0]):
            box = Box(np.array(hw))
            den = cube_eigen_density(box)
            pts = den.sample(np.random.default_rng(3), 20000)
            assert np.all(contains_interior(box, pts))
            assert np.all(np.isfinite(den.log_density(pts)))

    @given(st.floats(-300.0, 12.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sampler_interior_across_scales(self, exponent, seed):
        t = 10.0**exponent
        box = Box.cube(2, t)
        pts = cube_eigen_density(box).sample(np.random.default_rng(seed), 64)
        assert np.all(contains_interior(box, pts))
        assert np.unique(pts).size > 1

    def test_tiny_half_width_scales_samples(self):
        # the quantile is T times a function of u, so a tiny cube samples the
        # unit cube's points scaled down, and its Fisher matrix is the closed form
        tiny, unit = Box.cube(1, 1e-13), Box.cube(1, 1.0)
        a = cube_eigen_density(tiny).sample(np.random.default_rng(5), 1000)
        b = cube_eigen_density(unit).sample(np.random.default_rng(5), 1000)
        assert np.allclose(a, 1e-13 * b, rtol=1e-9, atol=0.0)
        mc = fisher_monte_carlo(cube_eigen_density(tiny), 4000, 2)
        ref = fisher_monte_carlo(cube_eigen_density(unit), 4000, 2)
        assert mc.entries[0, 0] == pytest.approx(1e26 * ref.entries[0, 0], rel=1e-6)

    def test_overflowing_half_width_rejected(self):
        with pytest.raises(ValueError):
            cube_eigen_density(Box.cube(1, 5e-324))

    def test_huge_half_width_rejected(self):
        # 2 T overflowed above ~9e307 and the density went flat: -709.196...
        # at x = 0 and at x = 9e307 for T = 1e308
        largest = np.finfo(float).max / 2.0  # the largest T whose 2 T is finite
        for t in (1e308, np.nextafter(largest, np.inf)):
            with pytest.raises(ValueError, match=r"^half_widths too large: 2 T overflows$"):
                cube_eigen_density(Box(np.array([1.0, t])))
        den = cube_eigen_density(Box.cube(1, largest))
        assert den.log_density([0.0]) > den.log_density([0.5 * largest]) > -np.inf

    def test_sampler_matches_cdf(self):
        den = cube_eigen_density(Box.cube(1, 2.0))
        x = np.sort(den.sample(np.random.default_rng(17), 10**5)[:, 0])
        ecdf = np.arange(1, x.size + 1) / x.size
        assert np.max(np.abs(ecdf - cube_coordinate_cdf(2.0, x))) < 0.01

    def test_coordinate_cdf_endpoints(self):
        assert cube_coordinate_cdf(3.0, -3.0) == pytest.approx(0.0, abs=1e-15)
        assert cube_coordinate_cdf(3.0, 3.0) == pytest.approx(1.0, abs=1e-15)
        assert cube_coordinate_cdf(3.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_sample_single_matches_batch_stream(self):
        den = cube_eigen_density(Box.cube(2, 1.0))
        one = den.sample(np.random.default_rng(9))
        batch = den.sample(np.random.default_rng(9), 1)
        assert np.array_equal(one, batch[0])

    def test_dimension_is_the_supports(self):
        den = cube_eigen_density(Box(np.array([0.5, 3.0, 1.0])))
        assert den.dimension == den.support.dimension == 3
        with pytest.raises(TypeError):
            Density(3, den.support, den.log_density, den.log_gradient, den.quantile)

    def test_sample_is_quantile_of_uniforms(self):
        den = cube_eigen_density(Box(np.array([0.5, 3.0])))
        u = np.random.default_rng(4).uniform(size=(50, 2))
        assert np.array_equal(den.sample(np.random.default_rng(4), 50), den.quantile(u))

    @pytest.mark.parametrize("hw", [[16.0, 16.0, 16.0], [0.3], [0.25, 8.0, 1.0, 2.0, 40.0]])
    def test_quantile_batch_equals_rows(self, hw):
        # the run_ensemble origins contract: sin on a large batch (SIMD main
        # loop) and on one row (remainder path) must agree bit for bit
        den = cube_eigen_density(Box(np.array(hw)))
        u = np.random.default_rng(21).uniform(size=(2000, len(hw)))
        batch = den.quantile(u)
        rows = np.concatenate([den.quantile(u[i : i + 1]) for i in range(u.shape[0])])
        assert np.array_equal(batch, rows)
        assert np.array_equal(den.quantile(u.reshape(40, 50, len(hw))), batch.reshape(40, 50, -1))

    @pytest.mark.parametrize(
        "hw",
        [[1e-13], [1.0], [16.0], [1e12], [0.3, 5.0, 1e3]],
        ids=["1e-13", "1", "16", "1e12", "box"],
    )
    def test_quantile_within_two_ulp_of_decimal_reference(self, hw):
        den = cube_eigen_density(Box(np.array(hw)))
        fixed = [2.0**-53, 1e-12, 0.25, 0.5, 1.0 - 2.0**-53]
        u = np.concatenate([fixed, np.random.default_rng(len(hw)).uniform(size=100)])
        u = np.repeat(u[:, None], len(hw), axis=1)
        x = den.quantile(u)
        for axis, t in enumerate(hw):
            for ui, xi in zip(u[:, axis], x[:, axis]):
                err = abs(decimal.Decimal(float(xi)) - reference_quantile(ui, t))
                assert err <= 2 * decimal.Decimal(float(np.spacing(t))), (t, ui, xi)

    def test_quantile_edges_strictly_inside(self):
        box = Box(np.array([1e-13, 1.0, 16.0, 1e12]))
        den = cube_eigen_density(box)
        for u in (0.0, 1.0 - 2.0**-53, 1.0):
            x = den.quantile(np.full((1, 4), u))
            assert np.all(contains_interior(box, x)), (u, x)
            assert np.all(np.isfinite(den.log_density(x)))

    def test_quantile_slabs_equal_one_pass(self, monkeypatch):
        # 7 values per slab: two rows of d = 3, the last slab a partial one
        den = cube_eigen_density(Box(np.array([0.5, 3.0, 16.0])))
        u = np.random.default_rng(8).uniform(size=(2, 25, 3))
        whole = den.quantile(u)
        monkeypatch.setattr(bodies, "_SLAB", 7)
        assert np.array_equal(den.quantile(u), whole)

    # the edges: 0, 1, 1/2 and its neighbours, the least subnormal, a tiny
    # uniform, the largest below 1, and three where phi crosses the series
    # cutoff (phi = 1 near u = 0.0252) during the Newton solve
    QUANTILE_EDGES = [0.0, 1.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 5e-324,
                      1e-300, 1.0 - 2.0**-53, 0.02520, 0.02524, 0.02530]

    @pytest.mark.parametrize("d", [1, 3, 64])
    @pytest.mark.parametrize("t", [1e-3, 1.0, 8.0, 16.0, 1e200])
    def test_quantile_is_the_where_loop_bit_for_bit(self, t, d):
        # the series is computed only where it is taken, each element by
        # the arithmetic np.where picked for it, so the same float
        box = Box.cube(d, t)
        rng = np.random.default_rng(33)
        near_edges = np.concatenate([rng.uniform(0.0, 0.05, 5000),
                                     1.0 - rng.uniform(0.0, 0.05, 5000)])
        for u in (rng.uniform(size=(-(-10**5 // d), d)), np.resize(near_edges, (10**4 // d, d)),
                  np.resize(self.QUANTILE_EDGES, (len(self.QUANTILE_EDGES), d))):
            got, want = cube_eigen_density(box).quantile(u), kepler_quantile_where(box, u)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_quantile_rejects_uniforms_outside_unit_interval(self):
        den = cube_eigen_density(Box.cube(1, 2.0))
        for bad in (1.5, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                den.quantile(np.array([[bad]]))
        with pytest.raises(ValueError):
            den.quantile(np.array([[0.25], [1.5], [0.75]]))

    def test_quantile_reads_uniforms_by_the_array_rule(self):
        # numpy would cast np.array([["0.5"]]) to the uniform 0.5
        den = cube_eigen_density(Box.cube(1, 2.0))
        for bad in (np.array([["0.5"]]), np.array([[True]]), [["0.5"]]):
            with pytest.raises(ValueError, match="^uniforms must be ints or floats, not "):
                den.quantile(bad)
        assert np.array_equal(den.quantile([[0.5]]), den.quantile(np.array([[0.5]])))

    def test_quantile_shape_guard(self):
        den = cube_eigen_density(Box.cube(2, 1.0))
        for bad in (np.zeros((3, 1)), np.zeros((3, 3)), np.float64(0.5)):
            with pytest.raises(ValueError):
                den.quantile(bad)


class TestDirichletLambda1:
    def test_cube_d3(self):
        assert dirichlet_lambda1_box(Box.cube(3, 1.0)) == pytest.approx(
            3.0 * math.pi**2 / 4.0, rel=1e-15
        )

    def test_half_pi_width_gives_one(self):
        assert dirichlet_lambda1_box(Box.cube(1, math.pi / 2)) == pytest.approx(1.0, rel=1e-15)

    def test_box_1_2_value(self):
        lam = dirichlet_lambda1_box(Box(np.array([1.0, 2.0])))
        assert lam == pytest.approx(math.pi**2 / 4 + math.pi**2 / 16, rel=1e-15)

    def test_box_1_2_matches_dirichlet_energy_quadrature(self):
        # Rayleigh quotient of the product ground state, integrated from scratch:
        # energy of psi(x) = cos(pi x1 / 2) cos(pi x2 / 4) over its L2 mass.
        def psi_sq_grad(pts):
            a1, a2 = math.pi / 2.0, math.pi / 4.0
            g1 = -a1 * np.sin(a1 * pts[:, 0]) * np.cos(a2 * pts[:, 1])
            g2 = -a2 * np.cos(a1 * pts[:, 0]) * np.sin(a2 * pts[:, 1])
            return g1**2 + g2**2

        def psi_sq(pts):
            return (np.cos(math.pi * pts[:, 0] / 2.0) * np.cos(math.pi * pts[:, 1] / 4.0)) ** 2

        energy = leggauss_integrate(psi_sq_grad, [1.0, 2.0], 96)
        mass = leggauss_integrate(psi_sq, [1.0, 2.0], 96)
        assert energy / mass == pytest.approx(
            dirichlet_lambda1_box(Box(np.array([1.0, 2.0]))), rel=1e-12
        )

    def test_huge_half_width_rejected(self):
        # 4 T**2 overflows for T above ~6.7e153, where the sum read 0.0
        for hw in ([1e154], [6.8e153, 6.8e153], [1.0, 1e200], [1e308]):
            with pytest.raises(ValueError, match="too large"):
                dirichlet_lambda1_box(Box(np.array(hw)))
        # just below, the value is today's expression bit for bit
        for hw in ([6.7e153], [1e150, 3.0], [1e-150], [1.0, 2.0, 0.5]):
            box = Box(np.array(hw))
            expected = float(np.sum(np.pi**2 / (4.0 * box.half_widths**2)))
            assert dirichlet_lambda1_box(box) == expected

    def test_tiny_half_width_rejected(self):
        # 4 T**2 underflows to 0 or a subnormal, and pi**2 over it overflows
        for t in (1e-160, 1e-200, 5e-324):
            with pytest.raises(ValueError, match="too small"):
                dirichlet_lambda1_box(Box.cube(1, t))


class TestFisherClosedForm:
    def test_d2_t1_is_pi_squared_identity(self):
        fisher = fisher_closed_form_cube(Box.cube(2, 1.0))
        assert np.allclose(fisher.entries, np.eye(2) * math.pi**2, rtol=0, atol=1e-15)
        assert fisher.estimator_kind == "closed_form"

    def test_t_pi_gives_identity(self):
        fisher = fisher_closed_form_cube(Box.cube(1, math.pi))
        assert fisher.entries[0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_rejects_non_cube(self):
        with pytest.raises(ValueError):
            fisher_closed_form_cube(Box(np.array([1.0, 2.0])))

    def test_tiny_half_width_rejected(self):
        # T**2 underflows to 0 (1e-200) or to a subnormal (1e-160); either
        # way pi**2 / T**2 is not finite
        for t in (1e-200, 1e-160, 5e-324):
            with pytest.raises(ValueError):
                fisher_closed_form_cube(Box.cube(2, t))
        small = fisher_closed_form_cube(Box.cube(1, 1e-150))
        assert small.entries[0, 0] == pytest.approx(math.pi**2 * 1e300, rel=1e-15)

    def test_huge_half_width_rejected(self):
        # T**2 overflows for T above ~1.3e154; just below, the closed form is finite
        for t in (1.4e154, 1e200, 1e308):
            with pytest.raises(ValueError, match="too large"):
                fisher_closed_form_cube(Box.cube(2, t))
        big = fisher_closed_form_cube(Box.cube(1, 1e154))
        assert big.entries[0, 0] == pytest.approx(math.pi**2 * 1e-308, rel=1e-15)

    def test_matches_quadrature_t2(self):
        quad = fisher_quadrature(cube_eigen_density(Box.cube(1, 2.0)), 256)
        assert quad.entries[0, 0] == pytest.approx(math.pi**2 / 4.0, abs=1e-6)


class TestFisherQuadrature:
    def test_d1_t1_is_pi_squared(self):
        fisher = fisher_quadrature(cube_eigen_density(Box.cube(1, 1.0)), 256)
        assert fisher.entries[0, 0] == pytest.approx(math.pi**2, abs=1e-6)

    def test_d2_off_diagonal_vanishes(self):
        fisher = fisher_quadrature(cube_eigen_density(Box.cube(2, 1.0)), 128)
        assert abs(fisher.entries[0, 1]) < 1e-8
        assert abs(fisher.entries[1, 0]) < 1e-8

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            fisher_quadrature(cube_eigen_density(Box.cube(1, 1.0)), 8)

    @pytest.mark.parametrize(
        "half_widths",
        [[1.0] * 4, [3.0] * 8, [16.0] * 64, [0.5, 1.0, 2.0, 7.0, 33.0]],
        ids=["cube4", "cube8", "cube64", "box5"],
    )
    def test_any_dimension_matches_per_axis_closed_form(self, half_widths):
        fisher = fisher_quadrature(cube_eigen_density(Box(half_widths)), 128)
        expected = math.pi**2 / np.square(half_widths)
        assert np.max(np.abs(np.diag(fisher.entries) / expected - 1.0)) <= 1e-13
        assert np.array_equal(fisher.entries, np.diag(np.diag(fisher.entries)))

    def test_non_finite_score_rejected(self):
        base = cube_eigen_density(Box.cube(1, 1.0))
        bad = Density(
            support=base.support,
            log_density=base.log_density,
            log_gradient=lambda x: np.full_like(np.asarray(x, dtype=float), np.inf),
            quantile=base.quantile,
        )
        with pytest.raises(ValueError):
            fisher_quadrature(bad, 32)

    def test_trace_identity_cubes(self):
        # trace of the Fisher matrix = 4 * principal Dirichlet eigenvalue
        for d, t in [(1, 1.0), (1, 2.0), (2, 1.0), (2, 4.0)]:
            box = Box.cube(d, t)
            fisher = fisher_quadrature(cube_eigen_density(box), 128)
            assert fisher.trace == pytest.approx(4.0 * dirichlet_lambda1_box(box), abs=1e-5)

    @pytest.mark.parametrize("t", [0.005, 1e-3, 1e-6])
    @pytest.mark.parametrize("d,nodes", [(2, 128), (3, 64)])
    def test_small_cubes_match_closed_form(self, d, nodes, t):
        closed = fisher_closed_form_cube(Box.cube(d, t)).entries
        quad = fisher_quadrature(cube_eigen_density(Box.cube(d, t)), nodes).entries
        assert np.max(np.abs(quad - closed)) <= 1e-10 * np.max(closed)

    def test_box_quadrature_matches_per_axis_closed_form(self):
        box = Box(np.array([1.0, 2.0]))
        fisher = fisher_quadrature(cube_eigen_density(box), 128)
        expected = np.diag([math.pi**2, math.pi**2 / 4.0])
        assert np.allclose(fisher.entries, expected, atol=1e-8)


class TestGaussLegendreRule:
    def test_one_rule_per_node_count(self, monkeypatch):
        built = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(nodes):
            built.append(nodes)
            return leggauss(nodes)

        bodies._leggauss.cache_clear()
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        den = cube_eigen_density(Box.cube(3, 2.0))
        first = fisher_quadrature(den, 128)
        assert np.array_equal(fisher_quadrature(den, 128).entries, first.entries)
        line = cube_eigen_density(Box.cube(1, 8.0))
        rates = [rejection_rate_exact_1d(line, v) for v in (0.5, 1.0, 3.0, 7.5, 12.0)]
        assert rates == [rejection_rate_exact_1d(line, v) for v in (0.5, 1.0, 3.0, 7.5, 12.0)]
        assert sorted(built) == [64, 128]

    @pytest.mark.parametrize("nodes", [16, 64, 128])
    def test_rule_is_read_only(self, nodes):
        for array in bodies._leggauss(nodes):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_cli_import_builds_no_rule(self):
        src = Path(bodies.__file__).resolve().parent.parent
        code = ("import driftguard.cli; from driftguard import bodies;"
                " print(bodies._leggauss.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "0\n"


class TestFisherMonteCarlo:
    def test_d1_t1_within_three_se(self):
        closed = fisher_closed_form_cube(Box.cube(1, 1.0))
        mc = fisher_monte_carlo(cube_eigen_density(Box.cube(1, 1.0)), 10**5, 42)
        assert abs(mc.entries[0, 0] - closed.entries[0, 0]) <= 3.0 * mc.std_error[0, 0]

    def test_d3_trace_within_three_se(self):
        box = Box.cube(3, 2.0)
        mc = fisher_monte_carlo(cube_eigen_density(box), 10**5, 43)
        target = 4.0 * dirichlet_lambda1_box(box)
        trace_se = float(np.sqrt(np.sum(np.diag(mc.std_error) ** 2)))
        assert abs(mc.trace - target) <= 3.0 * trace_se

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            fisher_monte_carlo(cube_eigen_density(Box.cube(1, 1.0)), 10, 0)

    def test_deterministic_for_fixed_seed(self):
        den = cube_eigen_density(Box.cube(2, 1.0))
        a = fisher_monte_carlo(den, 2000, 7)
        b = fisher_monte_carlo(den, 2000, 7)
        assert np.array_equal(a.entries, b.entries)
        assert np.array_equal(a.std_error, b.std_error)

    def test_matches_outer_product_mean(self):
        # two chunks, the second partial, from the same substreams
        den = cube_eigen_density(Box(np.array([1.0, 3.0])))
        samples = bodies._MC_CHUNK + 5000
        mc = fisher_monte_carlo(den, samples, 21)
        mean, se = fisher_outer_mean(den, samples, 21, bodies._MC_CHUNK)
        scale = float(np.max(np.abs(mean)))
        np.testing.assert_allclose(mc.entries, mean, rtol=1e-14, atol=1e-14 * scale)
        np.testing.assert_allclose(mc.std_error, se, rtol=1e-12)

    def test_tiny_half_width_finite(self):
        # squared score products overflowed below T ~ 1e-75, so the standard
        # error was NaN; the same draws on a unit-scale box agree after 1 / T**2
        tiny = np.array([1e-76, 3e-77])
        mc = fisher_monte_carlo(cube_eigen_density(Box(tiny)), 1000, 5)
        assert np.all(np.isfinite(mc.entries)) and np.all(np.isfinite(mc.std_error))
        unit = fisher_monte_carlo(cube_eigen_density(Box(tiny * 1e76)), 1000, 5)
        scale = np.outer(tiny * 1e76, tiny * 1e76) / np.outer(tiny, tiny)
        np.testing.assert_allclose(mc.entries, unit.entries * scale, rtol=1e-9)
        np.testing.assert_allclose(mc.std_error, unit.std_error * scale, rtol=1e-9)

    @pytest.mark.parametrize("t", [1e160, 1e200])
    def test_huge_half_width_underflow_rejected(self, t):
        # scaling back to 1 / T**2 gave a subnormal [[1.05e-319]] at 1e160,
        # and [[0.]] with a standard error of [[0.]] at 1e200
        for box in (Box.cube(1, t), Box(np.array([1.0, t]))):
            with pytest.raises(ValueError, match=r"^half_width too large: Fisher entries"):
                fisher_monte_carlo(cube_eigen_density(box), 1000, 5)

    def test_large_half_width_scales_back(self):
        # below the underflow the unscaling is exact: the unit box's draws times 1 / T**2
        mc = fisher_monte_carlo(cube_eigen_density(Box.cube(2, 2.0**400)), 1000, 5)
        unit = fisher_monte_carlo(cube_eigen_density(Box.cube(2, 1.0)), 1000, 5)
        assert np.array_equal(mc.entries, unit.entries * 2.0**-800)
        assert np.array_equal(mc.std_error, unit.std_error * 2.0**-800)

    def test_estimator_kind_and_se_shape(self):
        mc = fisher_monte_carlo(cube_eigen_density(Box.cube(2, 1.0)), 2000, 1)
        assert mc.estimator_kind == "monte_carlo"
        assert mc.std_error.shape == (2, 2)
        assert np.all(mc.std_error >= 0.0)


class TestFisherMonteCarloShards:
    # chunks of 1000 samples: 1, 2 and 7 chunks, the last two with a part
    # chunk, split over 1, 2 and 3 processes
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("samples", [1000, 1500, 6500])
    @pytest.mark.parametrize("d", [1, 3])
    def test_shards_give_the_serial_bits(self, monkeypatch, d, samples, k):
        monkeypatch.setattr(bodies, "_MC_CHUNK", 1000)
        monkeypatch.setattr(bodies, "_cpus", lambda: k)
        den = cube_eigen_density(Box(np.linspace(0.5, 3.0, d)))
        got = fisher_monte_carlo(den, samples, 17)
        want = fisher_monte_carlo_serial(den, samples, 17)
        assert np.array_equal(got.entries, want.entries)
        assert np.array_equal(got.std_error, want.std_error)

    def test_one_chunk_forks_nothing(self, monkeypatch):
        def fork():
            raise AssertionError("a one-chunk estimate forked")

        monkeypatch.setattr(bodies, "_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", fork)
        fisher_monte_carlo(cube_eigen_density(Box.cube(2, 1.0)), bodies._MC_CHUNK, 4)

    def test_a_shard_error_is_raised(self, monkeypatch):
        # a score that fails in the child's chunks alone reaches the caller
        parent, scores = os.getpid(), bodies._scaled_scores

        def failing(density, points):
            if os.getpid() != parent:
                raise ValueError("log_gradient failed in a child")
            return scores(density, points)

        monkeypatch.setattr(bodies, "_MC_CHUNK", 1000)
        monkeypatch.setattr(bodies, "_cpus", lambda: 2)
        monkeypatch.setattr(bodies, "_scaled_scores", failing)
        with pytest.raises(ValueError, match="^log_gradient failed in a child$"):
            fisher_monte_carlo(cube_eigen_density(Box.cube(2, 1.0)), 2000, 4)

    def test_child_killed_mid_result(self, monkeypatch, capsys):
        # the child's result ends with 4 MB of array data, already in the
        # pipe, and then an object that kills the child as it is pickled:
        # the CLI reports the shard with one error line, and the autouse
        # fixture sees no child left
        class Killer:
            def __reduce__(self):
                os.kill(os.getpid(), signal.SIGKILL)

        fork = bodies._fork

        def killing_fork(fn, item):
            return fork(lambda chunks: fn(chunks) + [np.arange(1 << 19, dtype=float), Killer()],
                        item)

        monkeypatch.setattr(bodies, "_MC_CHUNK", 1000)
        monkeypatch.setattr(bodies, "_cpus", lambda: 2)
        monkeypatch.setattr(bodies, "_fork", killing_fork)
        code = cli.main(["fisher", "--dim", "2", "--half-width", "2", "--method", "mc",
                         "--samples", "2000", "--seed", "3"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == ("error: Monte Carlo shard 1 ended without a result"
                                f" (signal {int(signal.SIGKILL)})\n")


class TestCpus:
    # four CPUs in the affinity mask, and quota files written per test
    @pytest.fixture
    def cgroup(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        paths = {name: tmp_path / name for name in ("cpu.max", "quota", "period")}
        monkeypatch.setattr(bodies, "_CPU_MAX", str(paths["cpu.max"]))
        monkeypatch.setattr(bodies, "_CFS_QUOTA", str(paths["quota"]))
        monkeypatch.setattr(bodies, "_CFS_PERIOD", str(paths["period"]))

        def write(**texts):
            for name, text in texts.items():
                paths[name.replace("_", ".")].write_text(text)

        return write

    @pytest.mark.parametrize("texts, cpus", [
        ({}, 4),  # no quota files
        ({"cpu_max": "max 100000\n"}, 4),
        ({"cpu_max": "50000 100000\n"}, 1),
        ({"cpu_max": "150000 100000\n"}, 2),  # 1.5 CPUs round up
        ({"cpu_max": "800000 100000\n"}, 4),  # above the mask
        ({"quota": "-1\n", "period": "100000\n"}, 4),
        ({"quota": "250000\n", "period": "100000\n"}, 3),
        ({"quota": "100000\n", "period": "100000\n"}, 1),
        ({"quota": "100000\n"}, 4),  # no period file
        ({"cpu_max": "max 100000\n", "quota": "100000\n", "period": "100000\n"}, 4),
        ({"cpu_max": "200000 100000\n", "quota": "100000\n", "period": "100000\n"}, 2),
        ({"cpu_max": "garbage\n"}, 4),
        ({"cpu_max": "100000 0\n"}, 4),
    ])
    def test_a_quota_caps_the_mask(self, cgroup, texts, cpus):
        cgroup(**texts)
        assert bodies._cpus() == cpus

    def test_a_directory_is_no_quota(self, cgroup, monkeypatch, tmp_path):
        monkeypatch.setattr(bodies, "_CPU_MAX", str(tmp_path))
        assert bodies._cpus() == 4

    def test_another_thread_means_one(self, cgroup, monkeypatch):
        monkeypatch.setattr(bodies.threading, "active_count", lambda: 2)
        assert bodies._cpus() == 1


class TestFisherMatrixInvariants:
    @pytest.mark.parametrize("entries", [np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2)), 1.0])
    def test_rejects_a_non_square_matrix(self, entries):
        with pytest.raises(ValueError, match="^entries must be a square matrix$"):
            FisherMatrix(entries, "closed_form")

    def test_rejects_asymmetry_beyond_tolerance(self):
        with pytest.raises(ValueError):
            FisherMatrix(np.array([[1.0, 1e-11], [0.0, 1.0]]), "closed_form")

    def test_accepts_asymmetry_within_tolerance(self):
        FisherMatrix(np.array([[1.0, 1e-13], [0.0, 1.0]]), "closed_form")

    def test_symmetry_tolerance_scales_with_entries(self):
        FisherMatrix(np.array([[1e6, 9e-7], [0.0, 1e6]]), "closed_form")
        with pytest.raises(ValueError, match="asymmetry"):
            FisherMatrix(np.array([[1e6, 2e-6], [0.0, 1e6]]), "quadrature")
        # a Monte Carlo matrix may also differ by se + se^T
        se = np.array([[0.0, 1e-3], [0.0, 0.0]])
        FisherMatrix(np.array([[1.0, 1e-3], [0.0, 1.0]]), "monte_carlo", std_error=se)
        with pytest.raises(ValueError, match="asymmetry"):
            FisherMatrix(np.array([[1.0, 2e-3], [0.0, 1.0]]), "monte_carlo", std_error=se)

    def test_arrays_follow_the_array_rule(self):
        # numpy would cast [["1.0"]] and [[True]] alike to the matrix [[1.0]]
        for bad in ([["1.0"]], [[True]], np.array([["1.0"]]), np.array([[True]])):
            with pytest.raises(ValueError, match="^entries must be ints or floats, not "):
                FisherMatrix(bad, "closed_form")
            with pytest.raises(ValueError, match="^std_error must be ints or floats, not "):
                FisherMatrix([[1.0]], "monte_carlo", std_error=bad)

    def test_std_error_is_a_read_only_float64_copy(self):
        source = np.array([[0.5]])
        for given in ([[0.5]], np.array([[0.5]], dtype=np.float32), source):
            fisher = FisherMatrix([[1]], "monte_carlo", std_error=given)
            assert isinstance(fisher.std_error, np.ndarray)
            assert fisher.std_error.dtype == np.float64 and not fisher.std_error.flags.writeable
            assert fisher.entries.dtype == np.float64 and not fisher.entries.flags.writeable
        source[0, 0] = 9.0  # the matrix keeps its own copy
        assert fisher.std_error.tolist() == [[0.5]]
        assert FisherMatrix(np.eye(2), "closed_form").std_error is None

    def test_std_error_has_the_entries_shape(self):
        # a (1, 1) or 0-d standard error would broadcast over the whole matrix
        for bad in ([[0.1]], 0.5, np.zeros((2, 2, 1))):
            with pytest.raises(ValueError, match="^std_error must have the entries' shape"):
                FisherMatrix(np.eye(2), "monte_carlo", std_error=bad)
        mc = fisher_monte_carlo(cube_eigen_density(Box.cube(2, 1.0)), 1000, 3)
        again = FisherMatrix(mc.entries, mc.estimator_kind, std_error=mc.std_error)
        assert again.std_error.shape == again.entries.shape == (2, 2)

    def test_rejects_negative_definite(self):
        with pytest.raises(ValueError):
            FisherMatrix(np.diag([1.0, -1e-6]), "closed_form")

    def test_accepts_tiny_negative_eigenvalue(self):
        FisherMatrix(np.diag([1.0, -1e-10]), "closed_form")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FisherMatrix(np.diag([bad, 1.0]), "closed_form")
        with pytest.raises(ValueError, match="finite"):
            FisherMatrix(np.eye(2), "monte_carlo", std_error=np.diag([bad, 0.0]))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FisherMatrix(np.eye(2), "guesswork")

    def test_estimators_agree_pairwise(self):
        box = Box.cube(2, 2.0)
        den = cube_eigen_density(box)
        closed = fisher_closed_form_cube(box)
        quad = fisher_quadrature(den, 128)
        mc = fisher_monte_carlo(den, 10**5, 99)
        assert np.max(np.abs(closed.entries - quad.entries)) < 1e-6
        assert np.all(np.abs(mc.entries - closed.entries) <= 3.0 * mc.std_error + 1e-12)

    def test_all_estimators_pass_psd_floor(self):
        den = cube_eigen_density(Box.cube(2, 1.0))
        for fisher in (
            fisher_closed_form_cube(Box.cube(2, 1.0)),
            fisher_quadrature(den, 64),
            fisher_monte_carlo(den, 2000, 3),
        ):
            assert np.min(np.linalg.eigvalsh(fisher.entries)) >= -1e-9


class TestDirectionInformation:
    def test_pi_squared_identity_unit_vector(self):
        fisher = FisherMatrix(np.eye(2) * math.pi**2, "closed_form")
        assert direction_information(fisher, [1.0, 0.0]) == pytest.approx(math.pi, rel=1e-15)

    def test_zero_vector(self):
        fisher = FisherMatrix(np.eye(3), "closed_form")
        assert direction_information(fisher, np.zeros(3)) == 0.0

    def test_diag_4_9(self):
        fisher = FisherMatrix(np.diag([4.0, 9.0]), "closed_form")
        assert direction_information(fisher, [1.0, 1.0]) == pytest.approx(
            math.sqrt(13.0), rel=1e-15
        )

    def test_dimension_mismatch(self):
        fisher = FisherMatrix(np.eye(2), "closed_form")
        with pytest.raises(ValueError):
            direction_information(fisher, [1.0, 0.0, 0.0])

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative(self, d, seed):
        rng = np.random.default_rng(seed)
        root = rng.standard_normal((d, d))
        fisher = FisherMatrix(root @ root.T, "closed_form")
        v = rng.standard_normal(d)
        assert direction_information(fisher, v) >= 0.0


class TestOperatorNorm:
    def test_diagonal(self):
        fisher = FisherMatrix(np.diag([1.0, 5.0, 2.0]), "closed_form")
        assert fisher_operator_norm(fisher) == pytest.approx(5.0, rel=1e-12)

    def test_matches_eigvalsh_on_random_psd(self):
        rng = np.random.default_rng(123)
        for d in (1, 2, 3, 5):
            for _ in range(5):
                root = rng.standard_normal((d, d))
                m = root @ root.T
                fisher = FisherMatrix(m, "closed_form")
                assert fisher_operator_norm(fisher) == pytest.approx(
                    float(np.max(np.linalg.eigvalsh(m))), rel=1e-9, abs=1e-9
                )


class TestTrialSeeds:
    # _trial_seeds computes numpy's SeedSequence hash itself, so a change to
    # that hash in numpy must fail here rather than move every report
    @pytest.mark.parametrize("key", [0, 1])
    @pytest.mark.parametrize("trial", [0, 1, 2**32 - 1, 2**32])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64])
    def test_pinned_to_seed_sequence(self, seed, trial, key):
        [hashed] = bodies._trial_seeds(seed, range(trial, trial + 1), key)
        reference = np.random.SeedSequence((seed, trial), spawn_key=(key,))
        assert seed_fingerprint(hashed) == seed_fingerprint(reference)
        for request in ((4,), (4, np.uint32), (8, np.uint64), (3, np.uint64), (1,)):
            assert np.array_equal(hashed.generate_state(*request), reference.generate_state(*request))
            assert hashed.generate_state(*request).dtype == reference.generate_state(*request).dtype

    @pytest.mark.parametrize("seed, trials", [(5, range(0, 700)), (2**32 - 1, range(9, 400, 7)),
                                              (3, range(2**32 - 3, 2**32 + 3)), (7, range(0))])
    def test_a_whole_range_is_per_trial_seed_sequences(self, seed, trials):
        for key in (0, 1):
            hashed = bodies._trial_seeds(seed, trials, key)
            assert len(hashed) == len(trials)
            for trial, h in zip(trials, hashed):
                expected = np.random.SeedSequence((seed, trial), spawn_key=(key,))
                assert np.array_equal(h.generate_state(4, np.uint64), expected.generate_state(4, np.uint64))

    def test_words_are_not_shared(self):
        [hashed] = bodies._trial_seeds(5, range(1), 0)
        hashed.generate_state(4, np.uint64)[:] = 0
        assert seed_fingerprint(hashed) == seed_fingerprint(np.random.SeedSequence((5, 0), spawn_key=(0,)))
