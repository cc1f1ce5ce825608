import dataclasses
import math
import pickle
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftguard import bodies, metropolis
from driftguard.bodies import Box, Density, cube_eigen_density, fisher_closed_form_cube
from driftguard.metropolis import (
    ContainmentError,
    filter_run,
    rejection_rate_exact_1d,
    run_ensemble,
)
from helpers import (
    closed_rejection_1d,
    contains_scaled,
    cube_coordinate_cdf,
    direction_information,
    filter_loop,
    reference_rejection_1d,
    rejection_rate_monte_carlo,
)


def unit_density(t=1.0):
    return cube_eigen_density(Box.cube(1, t))


def liar_density(t=0.5, d=1):
    """A "density" that starts at 0 and accepts everything, so sums escape 2K."""
    return Density(
        support=Box.cube(d, t),
        log_density=lambda x: 0.0 if np.ndim(x) == 1 else np.zeros(np.shape(x)[:-1]),
        log_gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        quantile=lambda u: np.zeros_like(u),
    )


def triangle_density(t):
    """pi(x) = (T - |x|) / T**2 on (-T, T): even and non-increasing in |x|."""

    def log_density(x):
        x = np.asarray(x, dtype=float)[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(np.abs(x) < t, np.log((t - np.abs(x)) / t**2), -np.inf)
        return float(out) if out.ndim == 0 else out

    def quantile(u):
        # inverts F(x) = (T + x)**2 / (2 T**2) below 0, mirrored above
        u = np.asarray(u, dtype=float)
        return np.copysign(t - t * np.sqrt(2.0 * np.minimum(u, 1.0 - u)), u - 0.5)

    return Density(
        support=Box.cube(1, t),
        log_density=log_density,
        log_gradient=lambda x: -np.sign(x) / (t - np.abs(x)),
        quantile=quantile,
    )


def block_budget(n_values):
    """Shrink the one memory budget so small runs span many kernel blocks."""
    return mock.patch.object(bodies, "_SLAB", n_values)


BODIES = ("lockstep", "speculative")


def kernel_body(body, window=metropolis._WINDOW):
    """Send every run_ensemble call through one inner body, at this window."""
    width = 0 if body == "lockstep" else 1 << 62
    return mock.patch.multiple(metropolis, _SPECULATIVE_WIDTH=width, _WINDOW=window)


class TestFilterInit:
    def test_origin_equals_current_with_positive_density(self):
        loop = filter_loop(unit_density(), np.zeros((0, 1)), 7)
        assert np.array_equal(loop.origin, loop.final)
        assert math.isfinite(unit_density().log_density(loop.origin))
        traj = filter_run(unit_density(), np.zeros((0, 1)), 7)
        assert np.array_equal(traj.origin, loop.origin)
        assert np.array_equal(traj.final, loop.origin)

    def test_fresh_counters(self):
        traj = filter_run(unit_density(), np.zeros((0, 1)), 0)
        assert traj.n_steps == 0
        assert traj.n_discarded == 0
        assert traj.max_abs_sum == 0.0

    def test_equal_seeds_equal_origin(self):
        a = filter_run(unit_density(), np.zeros((0, 1)), 12345)
        b = filter_run(unit_density(), np.zeros((0, 1)), 12345)
        assert np.array_equal(a.origin, b.origin)
        assert np.array_equal(a.origin, filter_loop(unit_density(), [], 12345).origin)


class TestFilterStep:
    def test_zero_step_always_accepted(self):
        loop = filter_loop(unit_density(), np.zeros((1, 1)), 3)
        assert loop.accept_prob[0] == 1.0
        assert loop.accepted[0]
        assert filter_run(unit_density(), np.zeros((1, 1)), 3).accepted[0]

    def test_proposal_outside_support_discarded(self):
        # from anywhere in (-1, 1), a step of 2.5 lands outside the support
        loop = filter_loop(unit_density(), [[2.5]], 3)
        assert loop.accept_prob[0] == 0.0
        assert not loop.accepted[0]
        assert np.array_equal(loop.final, loop.origin)
        traj = filter_run(unit_density(), [[2.5]], 3)
        assert traj.n_discarded == 1
        assert np.array_equal(traj.final, traj.origin)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            filter_run(unit_density(), np.array([[0.1, 0.2]]), 3)
        with pytest.raises(ValueError):
            filter_run(unit_density(), np.array([0.1, 0.2]), 3)
        with pytest.raises(ValueError, match="non-finite"):
            filter_run(unit_density(), np.array([[np.nan]]), 3)
        with pytest.raises(ValueError, match="non-finite"):
            filter_loop(unit_density(), np.array([[np.nan]]), 3)

    def test_counters_and_sum_tracking(self):
        den = cube_eigen_density(Box.cube(2, 4.0))
        steps = np.random.default_rng(5).normal(size=(100, 2)) * 0.5
        traj = filter_run(den, steps, 11)
        loop = filter_loop(den, steps, 11)
        assert traj.n_steps == 100
        assert traj.n_discarded == 100 - int(loop.accepted.sum())
        assert 0 < traj.n_discarded < 100
        assert contains_scaled(den.support, traj.final - traj.origin, 2.0, 1e-9)

    def test_sign_symmetry_from_center(self):
        # for an even density, a(0, +v) = a(0, -v) exactly
        den = dataclasses.replace(unit_density(), quantile=np.zeros_like)  # starts at 0
        for v in (0.1, 0.37, 0.9):
            probs = [filter_loop(den, [[sign * v]], 99).accept_prob[0] for sign in (1.0, -1.0)]
            assert probs[0] == probs[1] < 1.0


class TestFilterRun:
    def test_empty_sequence(self):
        traj = filter_run(unit_density(), [], 5)
        assert traj.n_steps == 0
        assert traj.n_discarded == 0
        assert traj.accepted.shape == (0,)
        assert traj.origin.shape == traj.final.shape == (1,)

    def test_accepted_sums_recomputable_from_outcomes(self):
        den = cube_eigen_density(Box.cube(2, 2.0))
        steps = np.random.default_rng(8).normal(size=(200, 2)) * 0.4
        traj = filter_run(den, steps, 21)
        loop = filter_loop(den, steps, 21)
        running = np.cumsum(np.where(loop.accepted[:, None], steps, 0.0), axis=0)
        assert np.allclose(loop.sums, running, atol=1e-12)
        assert np.allclose(traj.final - traj.origin, running[-1], atol=1e-12)
        assert traj.max_abs_sum == np.max(np.abs(loop.sums))

    def test_every_prefix_in_doubled_box(self):
        for t, d, seed in [(1.0, 1, 0), (4.0, 2, 1), (16.0, 3, 2)]:
            den = cube_eigen_density(Box.cube(d, t))
            steps = np.random.default_rng(seed).normal(size=(500, d))
            assert filter_run(den, steps, seed).max_abs_sum <= 2.0 * t + 1e-9 * t
            assert np.all(np.abs(filter_loop(den, steps, seed).sums) <= 2.0 * t + 1e-9 * t)

    def test_max_norm_at_most_2t(self):
        den = cube_eigen_density(Box.cube(3, 16.0))
        rng = np.random.default_rng(14)
        gauss = rng.normal(size=(2000, 3))
        steps = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
        assert filter_run(den, steps, 14).max_abs_sum <= 32.0

    def test_deterministic(self):
        steps = np.random.default_rng(2).normal(size=(150, 1)) * 0.3
        a = filter_run(unit_density(), steps, 77)
        b = filter_run(unit_density(), steps, 77)
        assert np.array_equal(a.accepted, b.accepted)
        assert np.array_equal(a.final, b.final)
        assert a.max_abs_sum == b.max_abs_sum

    def test_containment_tripwire_fires_on_dishonest_density(self):
        # a "density" that accepts everything lets the sum escape 2K; the
        # kernel and the per-step loop both name trial 0
        with pytest.raises(ContainmentError) as exc:
            filter_run(liar_density(), np.ones((5, 1)), 0)
        assert str(exc.value) == "trial 0 accepted sum [2.] left 2K at step 1"
        with pytest.raises(ContainmentError) as loop:
            filter_loop(liar_density(), np.ones((5, 1)), 0)
        assert str(loop.value) == "trial 0 accepted sum [2.] left 2K at step 1"
        # a record: its fields are its args, so a pickled copy keeps them
        assert exc.value.accepted_sum.base is None  # a copy, not a view of the kernel's block
        copy = pickle.loads(pickle.dumps(exc.value))
        assert (copy.step, copy.trial) == (1, 0)
        assert np.array_equal(copy.accepted_sum, [2.0])
        assert str(copy) == str(exc.value)

    def test_largest_half_width_runs_without_warning(self):
        # the largest T the density accepts, where 2T is finite but the
        # containment limit 2T + 1e-9 T is not; both bodies run it silently
        largest = np.finfo(float).max / 2.0
        den = cube_eigen_density(Box.cube(1, largest))
        steps = np.random.default_rng(3).choice([-1.0, 1.0], size=(200, 6, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = filter_run(den, steps[0], 3)
            wide = run_ensemble(den, steps, list(range(200)))  # m * d above the narrow width
        with np.errstate(over="ignore"):  # the oracle's own limit overflows
            loop = filter_loop(den, steps[0], 3)
        assert np.array_equal(traj.accepted, loop.accepted)
        assert np.array_equal(wide.accepted[3], filter_run(den, steps[3], 3).accepted)
        assert traj.max_abs_sum <= 6.0

    def test_escape_and_non_finite_step_in_one_block(self):
        # the block is screened for non-finite steps before it runs, so a
        # NaN after an escape in the same block is reported, not the escape
        steps = np.array([[2.0], [np.nan]])
        with pytest.raises(ValueError, match="non-finite"):
            filter_run(liar_density(), steps, 0)
        with pytest.raises(ContainmentError, match="at step 0"):
            filter_loop(liar_density(), steps, 0)


class TestRejectionRate:
    def test_zero_step_is_zero(self):
        assert rejection_rate_exact_1d(unit_density(), 0.0) == 0.0

    def test_monte_carlo_rate_is_pinned(self):
        # the accept test from its definition, complemented: these bits must not move
        den = cube_eigen_density(Box.cube(3, 2.0))
        freq, se = rejection_rate_monte_carlo(den, [1, 0, 0], 100000, 5)
        assert freq == 0.47554
        assert se == math.sqrt(0.47554 * (1.0 - 0.47554) / 100000)

    def test_matches_closed_form(self):
        den = unit_density()
        for v in (0.05, 0.2, 0.3, 0.8, 1.5, -0.3, 2.0, -2.0, 7.5, 1e300):
            quad = rejection_rate_exact_1d(den, v)
            assert quad == pytest.approx(closed_rejection_1d(1.0, v), abs=1e-12)
        # disjoint supports (|v| >= 2T) give exactly 1
        assert rejection_rate_exact_1d(unit_density(8.0), 1e300) == 1.0
        assert rejection_rate_exact_1d(unit_density(8.0), -16.0) == 1.0

    @pytest.mark.parametrize("t", [1e-13, 1e-3, 1.0, 8.0, 1e6, 1e12])
    def test_central_mass_across_scales(self, t):
        # tiny steps included: the rate is ~|v| / T there, not 0
        den = unit_density(t)
        rng = np.random.default_rng(13)
        fixed = [t * 1e-200, t * 1e-12, t * 1e-3, 1.999999 * t, -1.5 * t]
        for v in fixed + list(rng.uniform(-2.2 * t, 2.2 * t, 200)):
            value = rejection_rate_exact_1d(den, v)
            assert value == pytest.approx(closed_rejection_1d(t, v), rel=1e-14, abs=0.0), v
            assert value == pytest.approx(reference_rejection_1d(t, v), rel=1e-14, abs=0.0), v

    def test_triangle_density(self):
        # central mass of (T - |x|) / T**2 is 1 - (1 - a)**2 = a (2 - a), a = |v| / (2T)
        t = 3.0
        den = triangle_density(t)
        for i, v in enumerate((0.0, 0.01, 0.9, -3.0, 5.1, 6.0)):
            a = min(abs(v), 2.0 * t) / (2.0 * t)
            exact = a * (2.0 - a)
            assert rejection_rate_exact_1d(den, v) == pytest.approx(exact, rel=1e-14, abs=0.0)
            freq, se = rejection_rate_monte_carlo(den, [v], 2 * 10**5, 300 + i)
            assert abs(freq - exact) <= 3.0 * se + 1e-12

    def test_below_fisher_direction_bound(self):
        den = unit_density()
        fisher = fisher_closed_form_cube(Box.cube(1, 1.0))
        v = 0.3
        bound = 0.5 * direction_information(fisher, [v])
        value = rejection_rate_exact_1d(den, v)
        assert value <= bound
        assert bound == pytest.approx(0.15 * math.pi, rel=1e-15)

    def test_matches_monte_carlo(self):
        den = unit_density()
        quad = rejection_rate_exact_1d(den, 0.2)
        freq, se = rejection_rate_monte_carlo(den, [0.2], 10**6, 2024)
        assert abs(freq - quad) <= 3.0 * se

    def test_guards(self):
        with pytest.raises(ValueError):
            rejection_rate_exact_1d(cube_eigen_density(Box.cube(2, 1.0)), 0.1)
        for v in (math.nan, math.inf, -math.inf, "1.5", True, b"1"):
            with pytest.raises(ValueError, match=f"^step must be a finite number, not {v!r}$"):
                rejection_rate_exact_1d(unit_density(), v)
        assert rejection_rate_exact_1d(unit_density(), np.float64(1.5)) == (
            rejection_rate_exact_1d(unit_density(), 1.5)
        )

    def test_monte_carlo_rejection_bound(self):
        # empirical rejection frequency <= half the information length + 3 SE
        den = cube_eigen_density(Box.cube(1, 2.0))
        fisher = fisher_closed_form_cube(Box.cube(1, 2.0))
        for i, v in enumerate((0.1, 0.5, 1.0)):
            freq, se = rejection_rate_monte_carlo(den, [v], 10**5, 50 + i)
            assert freq <= 0.5 * direction_information(fisher, [v]) + 3.0 * se

    @given(st.floats(0.01, 1.9), st.floats(0.3, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_value_in_unit_interval(self, v, t):
        den = cube_eigen_density(Box.cube(1, t))
        value = rejection_rate_exact_1d(den, v)
        assert 0.0 <= value <= 1.0


class TestEnsembleEquivalence:
    @pytest.mark.parametrize("d,t", [(1, 1.0), (3, 2.0)])
    def test_bitwise_equal_to_sequential(self, d, t):
        den = cube_eigen_density(Box.cube(d, t))
        rng = np.random.default_rng(31)
        steps = rng.normal(size=(6, 250, d)) * 0.6
        seeds = [100 + i for i in range(6)]
        ens = run_ensemble(den, steps, seeds)
        for i, seed in enumerate(seeds):
            loop = filter_loop(den, steps[i], seed)
            assert np.array_equal(loop.accepted, ens.accepted[i])
            assert np.array_equal(loop.sums[-1], ens.finals[i] - ens.origins[i])
            assert float(np.max(np.abs(loop.sums))) == float(ens.max_abs_sums[i])
            assert filter_run(den, steps[i], seed).n_discarded == int(ens.discards[i])

    def test_zero_steps(self):
        den = unit_density()
        ens = run_ensemble(den, np.zeros((3, 0, 1)), [1, 2, 3])
        assert np.array_equal(ens.discards, [0, 0, 0])
        assert np.array_equal(ens.max_abs_sums, [0.0, 0.0, 0.0])

    def test_shape_guards(self):
        den = unit_density()
        with pytest.raises(ValueError):
            run_ensemble(den, np.zeros((2, 5, 2)), [1, 2])
        with pytest.raises(ValueError):
            run_ensemble(den, np.zeros((2, 5, 1)), [1])


def loop_or_escape(den, steps, seed):
    """(filter_loop's run, None), or (None, its ContainmentError)."""
    try:
        return filter_loop(den, steps, seed), None
    except ContainmentError as exc:
        return None, exc


def first_violation_per_step(den, steps, seeds):
    """The error of a check after every step: earliest step, lowest trial.

    Each trial runs through filter_loop, whose own per-step check names the
    step and the sum; the trial is the seed's index.
    """
    hits = []
    for i, seed in enumerate(seeds):
        _, escape = loop_or_escape(den, steps[i], seed)
        if escape is not None:
            hits.append((escape.step, i, escape.accepted_sum))
    return ContainmentError(*min(hits, key=lambda hit: hit[:2]))


def assert_same_escape(exc, expected):
    """Both errors name the same step and trial, in the same text."""
    assert (exc.step, exc.trial) == (expected.step, expected.trial)
    assert str(exc) == str(expected)


def assert_matches_filter_loop(den, steps, seeds):
    """run_ensemble and filter_run each equal filter_loop, bit for bit.

    Where a trial's loop leaves 2K, filter_run raises the loop's error, and
    the ensemble raises the first escape across its trials.
    """
    runs = [loop_or_escape(den, steps[i], seed) for i, seed in enumerate(seeds)]
    if any(escape is not None for _, escape in runs):
        with pytest.raises(ContainmentError) as exc:
            run_ensemble(den, steps, seeds)
        assert_same_escape(exc.value, first_violation_per_step(den, steps, seeds))
        ens = None
    else:
        ens = run_ensemble(den, steps, seeds)
    for i, (seed, (loop, escape)) in enumerate(zip(seeds, runs)):
        if escape is not None:
            with pytest.raises(ContainmentError) as exc:
                filter_run(den, steps[i], seed)
            assert_same_escape(exc.value, escape)
            continue
        max_abs = np.max(np.abs(loop.sums), initial=0.0)
        traj = filter_run(den, steps[i], seed)
        assert np.array_equal(traj.accepted, loop.accepted)
        assert np.array_equal(traj.origin, loop.origin)
        assert np.array_equal(traj.final, loop.final)
        assert traj.max_abs_sum == max_abs
        if ens is not None:
            assert np.array_equal(ens.accepted[i], loop.accepted)
            assert np.array_equal(ens.origins[i], loop.origin)
            assert np.array_equal(ens.finals[i], loop.final)
            assert ens.max_abs_sums[i] == max_abs


class TestChunkLength:
    # a chunk is whole kernel blocks of bodies._slab_items(width) steps, at
    # least _SLAB // 16 steps and an odd number of blocks, written out here
    @pytest.mark.parametrize("slab", [None, 7, 1000, 1 << 12])
    def test_is_the_written_out_formula(self, monkeypatch, slab):
        if slab is not None:
            monkeypatch.setattr(bodies, "_SLAB", slab)
        for width in range(1, 4097):
            block = max(1, bodies._SLAB // max(1, width))
            expected = block * (max(1, -(-(bodies._SLAB // 16) // block)) | 1)
            assert metropolis._chunk_length(width) == expected, width
            assert bodies._slab_items(width) == block, width


class TestEnsembleKernel:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="^need at least one trial$"):
            run_ensemble(unit_density(), np.zeros((0, 5, 1)), [])

    @pytest.mark.parametrize(
        "hw", [[2.0], [16.0, 16.0, 16.0], [1.0] * 5, [0.5, 3.0, 40.0], [0.01, 0.2]]
    )
    def test_batched_origins_equal_per_trial_draws(self, hw):
        den = cube_eigen_density(Box(np.array(hw)))
        seeds = [np.random.SeedSequence((7, i)) for i in range(300)]
        ens = run_ensemble(den, np.zeros((300, 4, len(hw))), seeds)
        one_by_one = np.stack([den.sample(np.random.default_rng(s)) for s in seeds])
        assert np.array_equal(ens.origins, one_by_one)

    @given(
        m=st.integers(1, 5),
        n=st.integers(0, 30),
        d=st.integers(1, 3),
        budget=st.integers(1, 16),
        window=st.integers(1, 8),
        t=st.floats(0.3, 4.0),
        seed=st.integers(0, 2**32 - 1),
        honest=st.booleans(),
    )
    # m * d above the budget: one-step blocks
    @example(m=4, n=12, d=3, budget=5, window=2, t=0.5, seed=1, honest=True)
    # below: 3-step blocks, which 5-step windows straddle, the last one at step 10
    @example(m=2, n=10, d=1, budget=6, window=5, t=0.5, seed=2, honest=True)
    @example(m=2, n=10, d=1, budget=6, window=5, t=4.0, seed=2, honest=True)
    @example(m=3, n=30, d=2, budget=6, window=4, t=0.5, seed=3, honest=False)  # escapes
    # one 30-step block: liars' sums leave 2K at steps 4, 13 and 16, two of
    # them in the middle of an 8-step window
    @example(m=3, n=30, d=1, budget=90, window=8, t=0.5, seed=8, honest=False)
    @settings(max_examples=60, deadline=None)
    def test_matches_filter_run_across_block_sizes(
        self, m, n, d, budget, window, t, seed, honest
    ):
        # a liar accepts every step from the origin, so its sums leave 2K
        den = cube_eigen_density(Box.cube(d, t)) if honest else liar_density(t, d)
        scale = t if honest else 0.4 * t
        steps = np.random.default_rng(seed).normal(size=(m, n, d)) * scale
        seeds = [np.random.SeedSequence((seed, i)) for i in range(m)]
        for body in BODIES:
            with block_budget(budget), kernel_body(body, window):
                assert_matches_filter_loop(den, steps, seeds)

    @pytest.mark.parametrize("d", [1, 3, 8, 64, 256])
    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_filter_run_in_high_dimension(self, d, m):
        # from 8 axes numpy's own row sums are pairwise, and the lockstep
        # body hands log_density a transposed view: every path must still
        # sum a point's axes as the loop's one-point calls do
        den = cube_eigen_density(Box(np.linspace(2.0, 6.0, d)))
        steps = np.random.default_rng(d).normal(size=(m, 40, d)) * (1.5 / math.sqrt(d))
        seeds = [np.random.SeedSequence((d, i)) for i in range(m)]
        for body in BODIES:
            with block_budget(7 * m * d), kernel_body(body, 4):
                assert_matches_filter_loop(den, steps, seeds)

    @pytest.mark.parametrize("budget", [12, bodies._SLAB])
    @pytest.mark.parametrize("escape", [3, 4, 9])
    def test_block_check_names_first_violation(self, budget, escape):
        # with budget 12, m = 3 and d = 1 the blocks are [0, 4), [4, 8) and
        # [8, 10): step 3 ends a block, 4 opens one, 9 ends the partial one
        liar = liar_density()
        steps = np.zeros((3, 10, 1))
        steps[0, 0] = 0.9  # inside 2K = [-1, 1]
        steps[2, escape] = 2.0
        steps[1, escape] = -2.0  # escapes with trial 2 and is the one named
        steps[0, min(escape + 1, 9)] += 1.5  # later in the block, or at 9 too
        for body in BODIES:
            with block_budget(budget), kernel_body(body, 4):
                with pytest.raises(ContainmentError) as exc:
                    run_ensemble(liar, steps, [5, 6, 7])
            assert_same_escape(exc.value, first_violation_per_step(liar, steps, [5, 6, 7]))
            if escape == 9:  # trial 0 reaches 0.9 + 1.5 at step 9 with the others
                assert str(exc.value) == "trial 0 accepted sum [2.4] left 2K at step 9"
            else:
                assert str(exc.value) == f"trial 1 accepted sum [-2.] left 2K at step {escape}"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 6])
    def test_rejects_non_finite_steps(self, bad, at):
        steps = np.full((3, 10, 1), 0.1)
        steps[1, at, 0] = bad
        for body in BODIES:
            with kernel_body(body):
                with block_budget(12), pytest.raises(ValueError, match="non-finite"):
                    run_ensemble(unit_density(), steps, [1, 2, 3])
                with pytest.raises(ValueError, match="non-finite"):
                    run_ensemble(unit_density(), steps, [1, 2, 3])
                with pytest.raises(ValueError, match="non-finite"):
                    run_ensemble(unit_density(), [[[bad]]], [0])

    @pytest.mark.parametrize(
        "bad",
        [[["1.5"], ["0.5"]], [[True], [False]], np.array([[0.5], [0.5]], dtype=object)],
        ids=["str", "bool", "object"],
    )
    def test_steps_must_be_ints_or_floats(self, bad):
        # such steps were cast to float and filtered as numbers
        with pytest.raises(ValueError, match="^steps must be ints or floats"):
            run_ensemble(unit_density(2.0), [bad], [0])
        with pytest.raises(ValueError, match="^signed_steps must be ints or floats"):
            filter_run(unit_density(2.0), bad, 0)
        ints = np.array([[[1], [-1]]])
        a, b = (run_ensemble(unit_density(2.0), s, [0]) for s in (ints, ints.astype(float)))
        for field in dataclasses.fields(a):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name))

    def test_non_finite_block_checked_before_it_runs(self):
        # an escape at step 5 and a NaN at step 6 share the block [4, 8)
        steps = np.zeros((3, 10, 1))
        steps[2, 5] = 2.0
        steps[0, 6] = math.nan
        later = steps.copy()
        later[0, 6] = 0.0
        later[0, 9] = math.nan  # now the escape's block finishes first
        for body in BODIES:
            with block_budget(12), kernel_body(body):
                with pytest.raises(ValueError, match="non-finite"):
                    run_ensemble(liar_density(), steps, [1, 2, 3])
                with pytest.raises(ContainmentError, match="at step 5"):
                    run_ensemble(liar_density(), later, [1, 2, 3])

    @pytest.mark.parametrize("m", [1, 3])
    def test_steps_are_read_not_written(self, m):
        # at m = 1 a block of steps is a contiguous view: the window body
        # must sum its positions in its padded copy of the block
        steps = np.random.default_rng(m).normal(size=(m, 50, 2))
        steps.setflags(write=False)
        for body in BODIES:
            with block_budget(12), kernel_body(body):
                run_ensemble(cube_eigen_density(Box.cube(2, 4.0)), steps, list(range(m)))


WINDOWS = (1, 2, 16, 64)


def signed_zero_density(value):
    """Log density 0 at -0.0 and ``value`` at any other point, from an origin
    of -0.0: a walk of -0.0 steps accepts every step, while a 0.0 padding
    step read past a block end turns its -0.0 into +0.0, a log ratio of
    ``value`` (+inf or NaN) that no coin of 1.0 may accept."""

    def log_density(x):
        x = np.asarray(x, dtype=float)[..., 0]
        out = np.where(np.signbit(x) & (x == 0.0), 0.0, value)
        return float(out) if out.ndim == 0 else out

    return Density(
        support=Box.cube(1, 1.0),
        log_density=log_density,
        log_gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        quantile=lambda u: np.full_like(u, -0.0),
    )


class TestPaddedWindows:
    """The pre-fetching body's rows padded past each block end, against filter_loop."""

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("m, d, block", [(1, 1, 7), (3, 2, 5), (4, 1, 37), (2, 3, 64)])
    def test_windows_match_filter_loop(self, window, m, d, block):
        # blocks shorter than a window, longer, and a multiple of none but 1
        # or of all; m = 1 as filter_run runs it
        den = cube_eigen_density(Box.cube(d, 1.5))
        steps = np.random.default_rng(window).normal(size=(m, 150, d))
        with block_budget(m * d * block), kernel_body("speculative", window):
            assert_matches_filter_loop(den, steps, list(range(m)))

    @pytest.mark.parametrize("window", WINDOWS)
    def test_a_trial_that_rejects_every_step_beside_ones_that_accept_every_step(self, window):
        # a step of 0.0 keeps the density, one of 3T always leaves the box
        steps = np.zeros((3, 100, 1))
        steps[1] = 3.0
        with block_budget(3 * 37), kernel_body("speculative", window):
            assert_matches_filter_loop(unit_density(), steps, [4, 5, 6])
            accepted = run_ensemble(unit_density(), steps, [4, 5, 6]).accepted
        assert accepted[[0, 2]].all() and not accepted[1].any()

    @pytest.mark.parametrize("window", WINDOWS)
    def test_an_escape_in_a_blocks_last_window(self, window):
        # blocks of 20 steps, every one accepted: step 39 ends the block
        # [20, 40) and lies in its last window whatever W is
        steps = np.zeros((2, 60, 1))
        steps[1, 38] = 0.9
        steps[1, 39] = 0.5  # the sum 1.4 leaves 2K = [-1, 1]
        steps[0, 41] = -2.0
        with block_budget(2 * 20), kernel_body("speculative", window):
            assert_matches_filter_loop(liar_density(), steps, [1, 2])
            with pytest.raises(ContainmentError, match=r"^trial 1 accepted sum \[1.4\] .* step 39$"):
                run_ensemble(liar_density(), steps, [1, 2])

    def test_any_layout_of_steps_gives_the_same_bits(self):
        # neither body needs a C-contiguous chunk, so none is copied into one
        den = cube_eigen_density(Box.cube(2, 1.5))
        steps = np.random.default_rng(3).normal(size=(3, 80, 2))
        spaced = np.zeros((3, 160, 2))
        spaced[:, ::2] = steps
        for body in BODIES:
            with block_budget(3 * 2 * 9), kernel_body(body, 4):
                runs = [run_ensemble(den, x, [7, 8, 9])
                        for x in (steps, np.asfortranarray(steps), spaced[:, ::2])]
            for run in runs[1:]:
                for field in dataclasses.fields(run):
                    assert np.array_equal(getattr(run, field.name), getattr(runs[0], field.name))

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_a_padding_coin_is_never_accepted(self, window, value):
        # blocks of 7 steps: an accepted padding step would leave the walk at
        # +0.0, where the next block's steps are all rejected
        den, steps = signed_zero_density(value), np.full((3, 50, 1), -0.0)
        with block_budget(3 * 7), kernel_body("speculative", window):
            assert_matches_filter_loop(den, steps, [1, 2, 3])
            ens = run_ensemble(den, steps, [1, 2, 3])
        assert ens.accepted.all()
        assert np.signbit(ens.finals).all()


class TestStationarity:
    def test_snapshot_matches_closed_form_cdf(self):
        # fixed-magnitude steps with fair signs; the chain is exactly
        # stationary, so a snapshot passes a KS test under a fixed seed
        den = unit_density()
        m, n = 2000, 200
        rng = np.random.default_rng(606)
        signs = rng.integers(0, 2, size=(m, n, 1)) * 2.0 - 1.0
        ens = run_ensemble(den, 0.3 * signs, list(range(m)))
        stat = scipy.stats.kstest(ens.finals[:, 0], lambda x: cube_coordinate_cdf(1.0, x))
        assert stat.pvalue > 0.001

    def test_expected_discard_bound(self):
        # mean discards over trials <= half the summed information lengths + 3 SE
        box = Box.cube(2, 2.0)
        den = cube_eigen_density(box)
        fisher = fisher_closed_form_cube(box)
        rng = np.random.default_rng(44)
        m, n = 100, 50
        steps = rng.normal(size=(m, n, 2)) * 0.5
        ens = run_ensemble(den, steps, list(range(m)))
        discards = ens.discards
        bound = np.mean(
            [0.5 * sum(direction_information(fisher, v) for v in steps[i]) for i in range(m)]
        )
        se = float(np.std(discards, ddof=1) / math.sqrt(m))
        assert float(np.mean(discards)) <= bound + 3.0 * se
