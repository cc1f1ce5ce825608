import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftguard import bodies
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
    gauss_legendre_grid,
)
from helpers import (
    contains_interior,
    contains_scaled,
    cube_coordinate_cdf,
    direction_information,
    finite_difference_score,
    fisher_outer_mean,
    leggauss_integrate,
    reference_quantile,
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
        # a bool was taken as 1.0, and an int beyond float range overflowed
        for bad in (True, "2", 10**400, np.inf):
            message = f"^half_width must be a finite number, not {bad!r}$"
            with pytest.raises(ValueError, match=message):
                Box.cube(2, bad)
        for bad in ([True, 2.0], (2.0, "1"), [1.0, 10**400]):
            with pytest.raises(ValueError, match="^half_widths must be a finite number"):
                Box(bad)
        with pytest.raises(ValueError, match="booleans"):
            Box(np.array([True, False]))
        assert np.array_equal(Box.cube(2, np.int64(2)).half_widths, [2.0, 2.0])
        assert np.array_equal(Box([1, np.float32(2.5)]).half_widths, [1.0, 2.5])

    def test_non_cube_box(self):
        assert not Box(np.array([1.0, 2.0])).is_cube

    def test_contains(self):
        box = Box(np.array([1.0, 2.0]))
        assert contains_interior(box, [0.5, -1.9])
        assert not contains_interior(box, [1.0, 0.0])  # boundary is outside
        assert contains_scaled(box, [2.0, -4.0], 2.0)
        assert not contains_scaled(box, [2.1, 0.0], 2.0)


class TestCubeEigenDensity:
    def test_peak_value_d1(self):
        den = cube_eigen_density(Box.cube(1, 1.0))
        assert math.exp(den.log_density(np.zeros(1))) == pytest.approx(1.0, abs=1e-15)

    def test_boundary_is_minus_inf(self):
        den = cube_eigen_density(Box.cube(1, 1.0))
        assert den.log_density(np.array([1.0])) == -math.inf
        assert den.log_density(np.array([-1.0])) == -math.inf
        assert den.log_density(np.array([1.5])) == -math.inf

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
        monkeypatch.setattr(bodies, "_QUANTILE_SLAB", 7)
        assert np.array_equal(den.quantile(u), whole)

    def test_quantile_rejects_uniforms_outside_unit_interval(self):
        den = cube_eigen_density(Box.cube(1, 2.0))
        for bad in (1.5, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                den.quantile(np.array([[bad]]))
        with pytest.raises(ValueError):
            den.quantile(np.array([[0.25], [1.5], [0.75]]))

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

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            fisher_quadrature(cube_eigen_density(Box.cube(4, 1.0)), 32)

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

    def test_box_quadrature_matches_per_axis_closed_form(self):
        box = Box(np.array([1.0, 2.0]))
        fisher = fisher_quadrature(cube_eigen_density(box), 128)
        expected = np.diag([math.pi**2, math.pi**2 / 4.0])
        assert np.allclose(fisher.entries, expected, atol=1e-8)


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


class TestFisherMatrixInvariants:
    def test_rejects_asymmetry_beyond_tolerance(self):
        with pytest.raises(ValueError):
            FisherMatrix(np.array([[1.0, 1e-11], [0.0, 1.0]]), "closed_form")

    def test_accepts_asymmetry_within_tolerance(self):
        FisherMatrix(np.array([[1.0, 1e-13], [0.0, 1.0]]), "closed_form")

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


class TestGaussLegendreGrid:
    def test_interior_and_weight_total(self):
        box = Box(np.array([1.0, 2.0]))
        pts, w = gauss_legendre_grid(box, 24)
        assert pts.shape == (576, 2)
        assert np.all(contains_interior(box, pts))
        # weights integrate the constant 1 to the box volume
        assert float(np.sum(w)) == pytest.approx(8.0, rel=1e-12)

    def test_polynomial_exactness(self):
        box = Box.cube(1, 1.0)
        pts, w = gauss_legendre_grid(box, 16)
        assert float(np.sum(w * pts[:, 0] ** 4)) == pytest.approx(2.0 / 5.0, rel=1e-12)
