import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftguard.bodies import Box, FisherMatrix, fisher_closed_form_cube
from driftguard.bounds import (
    BoundReport,
    _bound_pass,
    isotropic_bound,
    lower_bound_1d,
    matching_bounds,
    upper_bound_cube,
    upper_bound_general,
)
from driftguard.harness import (
    ExperimentConfig,
    StepGenerator,
    _matching_bounds,
    run_experiment,
    trial_streams,
)
from driftguard.oracle1d import exact_chain_expectation
from helpers import direction_information


class TestUpperBoundGeneral:
    def test_empty_steps(self):
        fisher = FisherMatrix(np.eye(2), "closed_form")
        assert upper_bound_general(fisher, np.zeros((0, 2))).value == 0.0

    def test_hundred_unit_steps_pi_squared_identity(self):
        fisher = FisherMatrix(np.eye(2) * math.pi**2, "closed_form")
        steps = np.tile([1.0, 0.0], (100, 1))
        assert upper_bound_general(fisher, steps).value == pytest.approx(
            50.0 * math.pi, rel=1e-13
        )

    def test_cube_t16_unit_steps(self):
        fisher = fisher_closed_form_cube(Box.cube(3, 16.0))
        rng = np.random.default_rng(1)
        gauss = rng.normal(size=(10**4, 3))
        steps = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
        value = upper_bound_general(fisher, steps).value
        assert value == pytest.approx(math.pi * 10**4 / 32.0, rel=1e-9)

    def test_dimension_mismatch(self):
        fisher = FisherMatrix(np.eye(2), "closed_form")
        with pytest.raises(ValueError):
            upper_bound_general(fisher, np.zeros((3, 3)))

    def test_peak_memory_is_the_forms(self):
        # the quadratic forms are summed a slab of whole trials at a time
        fisher = fisher_closed_form_cube(Box.cube(3, 16.0))
        steps = np.random.default_rng(2).normal(size=(200, 1000, 3))
        tracemalloc.start()
        try:
            upper_bound_general(fisher, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 1000 * 8  # no (m, n) float array

    def test_kind_and_digest(self):
        fisher = FisherMatrix(np.eye(1), "closed_form")
        report = upper_bound_general(fisher, np.ones((4, 1)))
        assert report.kind == "general_fisher"
        assert "n=4" in report.inputs_digest


def random_psd_fisher(rng, d):
    root = rng.standard_normal((d, d))
    m = root @ root.T
    return FisherMatrix(0.5 * (m + m.T), "quadrature")


def row_loop_bound(fisher, steps):
    """Reference: the per-row information lengths, summed one by one."""
    return 0.5 * sum(direction_information(fisher, row) for row in steps)


class TestVectorisedBounds:
    def test_general_matches_row_loop(self):
        rng = np.random.default_rng(8)
        for d in (1, 2, 3, 5):
            fisher = random_psd_fisher(rng, d)
            steps = rng.standard_normal((4, 300, d))
            ref = row_loop_bound(fisher, steps[0])
            assert upper_bound_general(fisher, steps[0]).value == pytest.approx(ref, rel=1e-12)
            mean_ref = float(np.mean([row_loop_bound(fisher, s) for s in steps]))
            report = upper_bound_general(fisher, steps)
            assert report.value == pytest.approx(mean_ref, rel=1e-12)
            assert report.inputs_digest.endswith(", mean over 4 trials")

    def test_cube_trials_axis_is_mean_of_runs(self):
        norms = np.random.default_rng(9).uniform(0.0, 2.0, size=(5, 40))
        per_run = [upper_bound_cube(3.0, row).value for row in norms]
        report = upper_bound_cube(3.0, norms)
        assert report.value == pytest.approx(float(np.mean(per_run)), rel=1e-12)
        assert report.inputs_digest == "n=40, T=3.0, mean over 5 trials"

    def test_rejects_bad_ranks(self):
        fisher = FisherMatrix(np.eye(2), "closed_form")
        with pytest.raises(ValueError):
            upper_bound_general(fisher, np.zeros(2))
        with pytest.raises(ValueError):
            upper_bound_general(fisher, np.zeros((1, 1, 1, 2)))
        with pytest.raises(ValueError):
            upper_bound_cube(1.0, np.zeros((1, 1, 1)))

    def test_general_rejects_finite_steps_whose_forms_overflow(self):
        fisher = FisherMatrix(np.eye(2), "closed_form")
        with pytest.raises(ValueError, match="overflow"):
            upper_bound_general(fisher, [[1e200, 1e200]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_general_rejects_non_finite_steps(self, bad):
        # a zero matrix turns an infinite step into NaN forms, not inf ones
        for entries in (np.eye(2), np.zeros((2, 2))):
            fisher = FisherMatrix(entries, "closed_form")
            one_run = np.ones((5, 2))
            one_run[3, 1] = bad
            trials = np.ones((3, 5, 2))
            trials[2, 4, 0] = bad
            for steps in (one_run, trials):
                with pytest.raises(ValueError, match="non-finite"):
                    upper_bound_general(fisher, steps)

    def test_matching_bounds_is_mean_of_single_runs(self):
        box = Box.cube(3, 4.0)
        config = ExperimentConfig(
            body=box,
            generator=StepGenerator("random_unit_sphere", 3),
            n_steps=200,
            n_trials=6,
            seed=3,
        )
        steps, _ = trial_streams(config)
        fisher = fisher_closed_form_cube(box)
        by_kind = {b.kind: b for b in _matching_bounds(config, steps)}
        general = [upper_bound_general(fisher, s).value for s in steps]
        cube = [upper_bound_cube(4.0, np.linalg.norm(s, axis=1)).value for s in steps]
        assert by_kind["general_fisher"].value == pytest.approx(np.mean(general), rel=1e-12)
        assert by_kind["cube_l2"].value == pytest.approx(np.mean(cube), rel=1e-12)
        assert by_kind["general_fisher"].inputs_digest == (
            "n=200, d=3, fisher=closed_form, mean over 6 trials"
        )
        assert by_kind["cube_l2"].inputs_digest == "n=200, T=4.0, mean over 6 trials"


class TestMatchingBounds:
    def test_one_run_is_the_four_calculators(self):
        # the Fisher bound is the cube bound's float under the general digest
        box = Box.cube(1, 3.0)
        steps = np.array([[1.0], [-1.0], [1.0], [1.0]])
        general = upper_bound_general(fisher_closed_form_cube(box), steps)
        cube = upper_bound_cube(3.0, np.abs(steps[:, 0]))
        assert matching_bounds(box, steps) == [
            BoundReport("general_fisher", cube.value, general.inputs_digest),
            cube,
            lower_bound_1d(3, 4),
        ]
        assert cube.value == pytest.approx(general.value, rel=1e-15)

    @pytest.mark.parametrize(
        "box,steps",
        [
            (Box.cube(1, 2.5), np.ones((4, 1))),  # half-width not an integer
            (Box.cube(1, 2.0), np.full((4, 1), 0.1)),  # steps not +-1
            (Box.cube(1, 2.0), np.full((3, 4, 1), -2.0)),
            (Box.cube(2, 2.0), np.eye(2)),  # more than one dimension
        ],
    )
    def test_lower_bound_only_for_unit_steps_on_integer_band(self, box, steps):
        kinds = [b.kind for b in matching_bounds(box, steps)]
        assert kinds == ["general_fisher", "cube_l2"]

    def test_lower_bound_attaches_to_empty_runs(self):
        kinds = [b.kind for b in matching_bounds(Box.cube(1, 2.0), np.zeros((3, 0, 1)))]
        assert kinds == ["general_fisher", "cube_l2", "lower_1d"]

    def test_non_cube_gets_only_general_fisher(self):
        kinds = [b.kind for b in matching_bounds(Box(np.array([1.0, 2.0])), np.ones((5, 2)))]
        assert kinds == ["general_fisher"]

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64, 256])
    def test_fisher_pass_is_the_einsum_on_any_box(self, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            half_widths = np.exp(rng.uniform(-4.0, 4.0, size=d))
            fisher = FisherMatrix(np.diag(np.pi**2 / half_widths**2), "closed_form")
            for shape in ((30, d), (4, 30, d)):
                steps = rng.normal(size=shape) * np.exp(rng.uniform(-3.0, 3.0, size=d))
                report = matching_bounds(Box(half_widths), steps)[0]
                oracle = upper_bound_general(fisher, steps)
                assert report == BoundReport("general_fisher", report.value, oracle.inputs_digest)
                assert report.value == pytest.approx(oracle.value, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("d", [3, 8, 24, 64, 256])
    def test_pass_is_the_same_bits_in_any_layout(self, d):
        # F-ordered steps once gave per-trial sums 1.8e-12 off at d = 64
        steps = np.random.default_rng(0).normal(size=(5, 2000, d))
        box = Box.cube(d, 1.0)
        sums = _bound_pass(box, steps)[0]
        reports = [matching_bounds(box, trial) for trial in steps]
        trial_major = steps.transpose(1, 0, 2).copy().transpose(1, 0, 2)
        for layout in (np.asfortranarray(steps), trial_major):
            assert not layout.flags.c_contiguous
            assert np.array_equal(_bound_pass(box, layout)[0], sums)
            assert matching_bounds(box, layout) == matching_bounds(box, steps)
            assert [matching_bounds(box, trial) for trial in layout] == reports

    def test_fisher_pass_on_an_eccentric_box(self):
        # T_max / T_min overflows, and so does T_max**2: both zero the long axis
        half_widths = np.array([1e-10, 3.0, 1e300])
        with np.errstate(over="ignore"):
            fisher = FisherMatrix(np.diag(np.pi**2 / half_widths**2), "closed_form")
        steps = np.random.default_rng(4).normal(size=(3, 20, 3))
        (report,) = matching_bounds(Box(half_widths), steps)
        assert report.value == pytest.approx(upper_bound_general(fisher, steps).value, rel=1e-14)

    @pytest.mark.parametrize("d", [1, 3, 64])
    @pytest.mark.parametrize("t", [1e-300, 0.7, 16.0, 1e300])
    def test_general_fisher_is_cube_l2_on_cubes(self, d, t):
        steps = np.random.default_rng(d).normal(size=(3, 50, d))
        general, cube = matching_bounds(Box.cube(d, t), steps)[:2]
        assert (general.kind, cube.kind, general.value) == ("general_fisher", "cube_l2", cube.value)

    @pytest.mark.parametrize("shape", [(5,), (5, 2), (2, 5, 3), (1, 2, 5, 1)])
    def test_rejects_steps_not_matching_the_box(self, shape):
        with pytest.raises(ValueError, match="matching the box"):
            matching_bounds(Box(np.array([1.0])), np.ones(shape))


    def test_rejects_zero_trials(self):
        # a mean over no trials is NaN, not a bound
        with pytest.raises(ValueError, match="at least one trial"):
            matching_bounds(Box.cube(1, 1.0), np.zeros((0, 5, 1)))
        with pytest.raises(ValueError, match="at least one trial"):
            upper_bound_general(FisherMatrix(np.eye(1), "closed_form"), np.zeros((0, 5, 1)))
        with pytest.raises(ValueError, match="at least one trial"):
            upper_bound_cube(1.0, np.zeros((0, 3)))

    @pytest.mark.parametrize("bad", [[["1.0"]], [[True], [True]]], ids=["str", "bool"])
    def test_steps_must_be_ints_or_floats(self, bad):
        # such steps were cast to float and bounded as numbers
        with pytest.raises(ValueError, match="^steps must be ints or floats"):
            matching_bounds(Box.cube(1, 2.0), bad)
        with pytest.raises(ValueError, match="^steps must be ints or floats"):
            upper_bound_general(FisherMatrix(np.eye(1), "closed_form"), bad)
        with pytest.raises(ValueError, match="^step_l2_norms must be ints or floats"):
            upper_bound_cube(2.0, np.ravel(bad))
        ints = np.array([[1], [-1]])
        assert matching_bounds(Box.cube(1, 2.0), ints) == matching_bounds(
            Box.cube(1, 2.0), ints.astype(float)
        )

    @pytest.mark.parametrize("steps", [[[math.nan]], [[math.inf]], [[1.0], [-math.inf]]])
    def test_rejects_non_finite_steps(self, steps):
        with pytest.raises(ValueError, match="^steps have non-finite entries$"):
            matching_bounds(Box.cube(1, 1.0), steps)
        with pytest.raises(ValueError, match="^steps have non-finite entries$"):
            matching_bounds(Box.cube(1, 1.0), [steps, steps])

    def test_rejects_finite_steps_whose_norms_overflow(self):
        # each entry is finite, but the squares under the norm are not
        with pytest.raises(ValueError, match="overflow"):
            matching_bounds(Box.cube(2, 1.0), [[1e200, 1e200]])
        # the norm is finite, but pi / (2 T) times it is not
        with pytest.raises(ValueError, match="overflow"):
            matching_bounds(Box.cube(1, 1e-300), [[1e10]])


class TestUpperBoundCube:
    def test_t16_ten_thousand_unit_norms(self):
        report = upper_bound_cube(16.0, np.ones(10**4))
        assert report.value == pytest.approx(math.pi * 10**4 / 32.0, rel=1e-13)
        assert report.value < 0.1 * 10**4  # under 10 percent of the steps

    def test_zero_norms(self):
        assert upper_bound_cube(2.0, np.zeros(5)).value == 0.0

    def test_norms_1_2_3(self):
        assert upper_bound_cube(1.0, [1.0, 2.0, 3.0]).value == pytest.approx(
            3.0 * math.pi, rel=1e-13
        )

    def test_guards(self):
        with pytest.raises(ValueError):
            upper_bound_cube(0.0, [1.0])
        with pytest.raises(ValueError):
            upper_bound_cube(1.0, [-1.0])
        with pytest.raises(ValueError):
            upper_bound_cube(math.inf, [1.0])
        with pytest.raises(ValueError):
            upper_bound_cube(1.0, [math.nan])

    def test_half_width_follows_the_number_rule(self):
        for t in ("2", True, b"1", math.nan):
            with pytest.raises(ValueError, match="half_width must be a finite number"):
                upper_bound_cube(t, [1.0, 1.0])
        report = upper_bound_cube(np.float64(16.0), np.ones(4))
        assert report == upper_bound_cube(16, np.ones(4)) == upper_bound_cube(16.0, np.ones(4))
        assert report.inputs_digest == "n=4, T=16.0"

    def test_extreme_half_widths(self):
        # 2 T overflows above ~9e307 and pi / (2 T) below ~1e-308
        assert upper_bound_cube(1e308, np.ones(3)).value == 3.0 * ((0.5 * math.pi) / 1e308)
        for t in (1e-310, 1e-320):
            with pytest.raises(ValueError, match="too small"):
                upper_bound_cube(t, np.ones(3))

    @pytest.mark.parametrize("t, norms", [(1.0, [1e308, 1e308]), (1e-300, [1e10])])
    def test_rejects_a_bound_that_overflows(self, t, norms):
        # the sum of the norms, or pi / (2 T) times it, is not a finite float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                upper_bound_cube(t, norms)

    def test_rejects_infinite_norms(self):
        one_run = [math.inf, 1.0]
        trials = np.ones((3, 4))
        trials[1, 2] = math.inf
        for norms in (one_run, trials):
            with pytest.raises(ValueError, match="finite"):
                upper_bound_cube(1.0, norms)

    @given(
        st.floats(0.1, 50.0),
        st.lists(st.floats(0.0, 10.0), min_size=0, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_consistency_with_general(self, t, norms):
        # the cube shortcut must equal the Fisher route on axis-aligned steps
        steps = np.zeros((len(norms), 2))
        steps[:, 0] = norms
        fisher = fisher_closed_form_cube(Box.cube(2, t))
        a = upper_bound_cube(t, np.asarray(norms)).value
        b = upper_bound_general(fisher, steps).value
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_consistency_with_general_random_directions(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            t = float(rng.uniform(0.5, 20.0))
            steps = rng.normal(size=(n, 3)) * rng.uniform(0.1, 3.0)
            fisher = fisher_closed_form_cube(Box.cube(3, t))
            a = upper_bound_cube(t, np.linalg.norm(steps, axis=1)).value
            b = upper_bound_general(fisher, steps).value
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


class TestIsotropicBound:
    def test_lambda_one_case(self):
        assert isotropic_bound(Box.cube(1, math.pi / 2), 100).value == pytest.approx(
            100.0, rel=1e-13
        )

    def test_d3_t16(self):
        value = isotropic_bound(Box.cube(3, 16.0), 10**4).value
        assert value == pytest.approx(math.pi * math.sqrt(3.0) / 32.0 * 10**4, rel=1e-13)

    def test_zero_steps(self):
        assert isotropic_bound(Box.cube(2, 1.0), 0).value == 0.0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            isotropic_bound(Box.cube(1, 1.0), -1)

    @pytest.mark.parametrize("box, n", [(Box.cube(1, 1.0), 10**400), (Box.cube(1, 1e-150), 10**300)],
                             ids=["n=1e400", "T=1e-150,n=1e300"])
    def test_overflow_raises_value_error(self, box, n):
        # n beyond the float range raised OverflowError; a finite n whose
        # bound is inf raised the report's own non-finite value error
        with pytest.raises(ValueError, match="^n_steps too large: the isotropic bound overflows$"):
            isotropic_bound(box, n)


class TestLowerBound1d:
    def test_t2_n100(self):
        assert lower_bound_1d(2, 100).value == pytest.approx(18.0, abs=0.0)

    def test_zero_case(self):
        assert lower_bound_1d(0, 0).value == 0.0

    def test_t3_n10000_below_exact_chain(self):
        bound = lower_bound_1d(3, 10**4).value
        assert bound == pytest.approx(10**4 / 7.0 - 3.0, rel=1e-13)
        assert exact_chain_expectation(3, 10**4, 0) >= bound

    def test_negative_value_reported_raw(self):
        assert lower_bound_1d(5, 10).value == pytest.approx(10.0 / 11.0 - 5.0, rel=1e-13)

    def test_digest_writes_t_in_full_only_below_2_53(self):
        assert lower_bound_1d(8, 100000).inputs_digest == "n=100000, T=8"
        assert lower_bound_1d(2**53 - 1, 3).inputs_digest == f"n=3, T={2**53 - 1}"
        assert lower_bound_1d(2**53, 3).inputs_digest == "n=3, T=9007199254740992.0"
        assert lower_bound_1d(1e308, 3).inputs_digest == "n=3, T=1e+308"

    def test_guards(self):
        with pytest.raises(ValueError):
            lower_bound_1d(-1, 10)
        with pytest.raises(ValueError):
            lower_bound_1d(1, -10)

    # n / (2T + 1) beyond the float range, the bound's -T, and T's digest
    # alone (the last bound is -0.5 to a float)
    @pytest.mark.parametrize("t, n", [(1, 10**400), (10**400, 5), (10**400, 2 * 10**800)],
                             ids=["n=1e400", "T=1e400", "T=1e400,n=2e800"])
    def test_overflow_raises_value_error(self, t, n):
        message = "^n_steps or half_width too large: the lower_1d bound overflows$"
        with pytest.raises(ValueError, match=message):
            lower_bound_1d(t, n)


class TestOrderingAndMonotonicity:
    @pytest.mark.parametrize("t", [4, 8, 16])
    def test_bound_sandwich_1d_unit_steps(self, t):
        config = ExperimentConfig(
            body=Box.cube(1, float(t)),
            generator=StepGenerator("coordinate_basis_cycle", 1, rademacher=True),
            n_steps=10**4,
            n_trials=200,
            seed=7 + t,
        )
        stats = run_experiment(config)
        lower = lower_bound_1d(t, 10**4).value
        upper = upper_bound_cube(float(t), np.ones(10**4)).value
        assert stats.mean >= lower - 3.0 * stats.std_error
        assert stats.mean <= upper + 3.0 * stats.std_error

    def test_upper_bounds_nonincreasing_in_t(self):
        norms = np.ones(10**4)
        cube_values = [upper_bound_cube(float(t), norms).value for t in range(1, 33)]
        iso_values = [isotropic_bound(Box.cube(1, float(t)), 10**4).value for t in range(1, 33)]
        assert all(a >= b for a, b in zip(cube_values, cube_values[1:]))
        assert all(a >= b for a, b in zip(iso_values, iso_values[1:]))

    def test_lower_bound_nonincreasing_on_grid(self):
        # n = 1e4 >= (2T+1)T holds across T in 1..32
        values = [lower_bound_1d(t, 10**4).value for t in range(1, 33)]
        assert all(a >= b for a, b in zip(values, values[1:]))
