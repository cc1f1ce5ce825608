from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftguard.oracle1d import (
    _spectral_expectation,
    dp_longest_valid,
    exact_chain_expectation,
    exact_chain_expectation_fraction,
    reflected_walk,
    signs_from_string,
    verify_lex_optimality,
    verify_start_shift,
)
from helpers import (
    chain_expectation_loop,
    enumerate_longest,
    is_valid_for,
    mc_reflected_discards,
    reflected_kernel_matrix,
)

sign_lists = st.lists(st.sampled_from([-1, 1]), min_size=0, max_size=12)


class TestSignsParsing:
    def test_parse(self):
        assert signs_from_string("+-++") == (1, -1, 1, 1)
        assert signs_from_string("") == ()

    def test_bad_character(self):
        with pytest.raises(ValueError):
            signs_from_string("+0-")


class TestSignChecks:
    @pytest.mark.parametrize("bad", [1.5, True, np.True_, "1", float("nan"), 0, 2])
    def test_signs_must_be_plus_or_minus_one(self, bad):
        # 1.5 was taken as a +1 step
        for check in (reflected_walk, dp_longest_valid, verify_lex_optimality):
            with pytest.raises(ValueError, match=r"^signs must be \+1 or -1$"):
                check((1, bad, -1), 1)

    def test_integral_signs_count(self):
        ints = reflected_walk((1, 1, -1, 1), 1)
        for signs in ((1.0, 1.0, -1.0, 1.0), np.array([1, 1, -1, 1]), np.array([1.0, 1, -1, 1])):
            assert reflected_walk(signs, 1) == ints
            assert dp_longest_valid(signs, 1) == dp_longest_valid((1, 1, -1, 1), 1)


class TestReflectedWalk:
    def test_two_ups_t1(self):
        assert reflected_walk((1, 1), 1, 0).indices == (1,)

    def test_alternating_all_kept(self):
        eps = (1, -1) * 4
        assert reflected_walk(eps, 1, 0).indices == tuple(range(1, 9))

    def test_down_down_up_from_minus_one(self):
        assert reflected_walk((-1, -1, 1), 1, -1).indices == (3,)

    def test_start_out_of_range(self):
        with pytest.raises(ValueError):
            reflected_walk((1,), 1, 2)

    def test_bad_signs(self):
        with pytest.raises(ValueError):
            reflected_walk((1, 0), 1, 0)

    @given(sign_lists, st.integers(0, 3), st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_output_valid_and_complementary(self, eps, t, start):
        if abs(start) > t:
            start = 0
        walk = reflected_walk(eps, t, start)
        assert is_valid_for(walk, eps, t)
        assert all(a < b for a, b in zip(walk.indices, walk.indices[1:]))
        # discards are exactly the unkept steps
        assert len(walk.indices) + (len(eps) - len(walk.indices)) == len(eps)


class TestDpLongestValid:
    def test_two_ups_t1(self):
        assert dp_longest_valid((1, 1), 1, 0) == 1

    def test_wide_band_keeps_everything(self):
        eps = (1, 1, -1, 1, 1)
        assert dp_longest_valid(eps, len(eps), 0) == len(eps)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            dp_longest_valid((1,) * 31, 1, 0)

    def test_wide_band_answers_at_every_start(self):
        eps = (1, 1, 1, -1, 1, 1)
        for start in (-10**6, -3, 0, 5, 10**6 - 2, 10**6):
            assert dp_longest_valid(eps, 10**6, start) == enumerate_longest(eps, 10**6, start)[0]

    def test_matches_enumeration_random_instances(self):
        rng = np.random.default_rng(2718)
        for _ in range(1000):
            n = int(rng.integers(0, 15))
            eps = tuple(int(e) for e in rng.choice([-1, 1], size=n))
            t = int(rng.integers(0, 4))
            start = int(rng.integers(-t, t + 1)) if t else 0
            expected, _ = enumerate_longest(eps, t, start)
            assert dp_longest_valid(eps, t, start) == expected


class TestLexOptimality:
    def test_two_ups(self):
        assert verify_lex_optimality((1, 1), 1, 0)
        assert reflected_walk((1, 1), 1, 0).indices == (1,)

    def test_empty(self):
        assert verify_lex_optimality((), 1, 0)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            verify_lex_optimality((1,) * 15, 1, 0)

    def test_exhaustive_small(self):
        for n in range(0, 8):
            for t in (1, 2):
                for s in range(-t, t + 1):
                    for bits in range(1 << n):
                        eps = tuple(1 if bits & (1 << i) else -1 for i in range(n))
                        assert verify_lex_optimality(eps, t, s)


class TestStartShift:
    def test_zero_shift(self):
        assert verify_start_shift((1, -1, 1), 2, 0)

    def test_three_ups(self):
        assert verify_start_shift((1, 1, 1), 1, 1)

    def test_exhaustive_small(self):
        for n in range(0, 8):
            for t in (1, 2):
                for s in range(-t, t + 1):
                    for bits in range(1 << n):
                        eps = tuple(1 if bits & (1 << i) else -1 for i in range(n))
                        assert verify_start_shift(eps, t, s)

    def test_runs_to_the_dp_limit(self):
        # the DP's n <= 30 applies, not the brute-force n <= 14; the greedy
        # reflected walk, optimal by the exhaustive checks, is the oracle
        rng = np.random.default_rng(31)
        for n in (20, 30):
            for _ in range(20):
                eps = tuple(int(e) for e in rng.choice([-1, 1], size=n))
                t = int(rng.integers(1, 5))
                s = int(rng.integers(-t, t + 1))
                from_0, from_s = (len(reflected_walk(eps, t, x).indices) for x in (0, s))
                assert from_0 <= from_s + abs(s)
                assert verify_start_shift(eps, t, s) is True
        with pytest.raises(ValueError, match="^dp_longest_valid is limited to n <= 30$"):
            verify_start_shift((1,) * 31, 1, 0)


class TestKernel:
    def test_rows_stochastic(self):
        for t in (0, 1, 3):
            kernel = reflected_kernel_matrix(t)
            for row in kernel:
                assert sum(row) == Fraction(1)

    def test_t0_absorbs(self):
        assert reflected_kernel_matrix(0) == [[Fraction(1)]]

    def test_uniform_exactly_stationary_up_to_t32(self):
        for t in range(0, 33):
            kernel = reflected_kernel_matrix(t)
            width = 2 * t + 1
            u = Fraction(1, width)
            for j in range(width):
                assert sum(u * kernel[i][j] for i in range(width)) == u


class TestExactChain:
    def test_uniform_identity_t2(self):
        assert exact_chain_expectation_fraction(2, 1000, "uniform") == Fraction(200)

    def test_uniform_identity_small_grid(self):
        for t in (1, 3, 5):
            for n in (1, 17, 200):
                assert exact_chain_expectation_fraction(t, n, "uniform") == Fraction(n, 2 * t + 1)

    def test_zero_steps(self):
        assert exact_chain_expectation(3, 0, "uniform") == 0.0
        assert exact_chain_expectation_fraction(3, 0, 0) == Fraction(0)

    def test_t0_discards_everything(self):
        assert exact_chain_expectation_fraction(0, 25, 0) == Fraction(25)

    def test_start_zero_above_lower_bound_and_matches_mc(self):
        exact = exact_chain_expectation_fraction(2, 1000, 0)
        assert exact >= Fraction(1000, 5) - 2
        mc_mean, mc_se = mc_reflected_discards(2, 1000, 4000, 0, seed=31337)
        assert abs(mc_mean - float(exact)) <= 3.0 * mc_se

    def test_explicit_start_vector(self):
        uniform = [Fraction(1, 5)] * 5
        assert exact_chain_expectation_fraction(2, 100, uniform) == Fraction(20)
        point = [0, 0, 1, 0, 0]
        assert exact_chain_expectation_fraction(2, 50, point) == exact_chain_expectation_fraction(
            2, 50, 0
        )

    def test_numpy_floats_of_any_width_count_exactly(self):
        point = exact_chain_expectation_fraction(2, 10, [np.float64(0)] * 4 + [np.float64(1)])
        assert point == Fraction(2455, 1024)
        for kind in (np.float16, np.float32, np.longdouble):
            law = [kind(0)] * 4 + [kind(1)]
            assert exact_chain_expectation_fraction(2, 10, law) == point
            edges = [kind(0.5)] + [kind(0)] * 79 + [kind(0.5)]  # 81 states run in floats
            assert exact_chain_expectation(40, 7, edges) == exact_chain_expectation(
                40, 7, [0.5] + [0.0] * 79 + [0.5]
            )
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError, match="^start vector entries must be finite"):
                    exact_chain_expectation_fraction(2, 10, [kind(bad)] + law[1:])

    def test_point_start_far_from_the_edges(self):
        assert exact_chain_expectation(10**6, 10, 0) == 0.0
        with pytest.raises(ValueError, match="outside band"):
            exact_chain_expectation(10**6, 10, 10**6 + 1)
        with pytest.raises(ValueError, match="must be an integer"):
            exact_chain_expectation(10**6, 10, 0.5)

    def test_bad_start_vectors(self):
        with pytest.raises(ValueError):
            exact_chain_expectation_fraction(1, 5, [Fraction(1, 2)] * 3)
        with pytest.raises(ValueError):
            exact_chain_expectation_fraction(1, 5, [Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(ValueError):
            exact_chain_expectation_fraction(1, 5, 3)
        with pytest.raises(ValueError):
            exact_chain_expectation(1, 5, "gaussian")
        # Fraction would parse "1/5" and take True as 1
        message = "^start vector entries must be finite rationals or floats$"
        for bad in (
            ["1/5"] * 5,
            [True, False, False, False, False],
            [np.bool_(True)] + [0] * 4,
            np.array(["0.2"] * 5),
            np.eye(5, dtype=bool)[0],
        ):
            with pytest.raises(ValueError, match=message):
                exact_chain_expectation_fraction(2, 10, bad)
        point = exact_chain_expectation_fraction(2, 10, 0)
        for good in ([0, 0, 1, 0, 0], [0.0, 0, Fraction(1), np.int64(0), np.float64(0.0)]):
            assert exact_chain_expectation_fraction(2, 10, good) == point

    @pytest.mark.parametrize("t", [4, 40])
    def test_bad_start_vectors_on_both_sides_of_rational_limit(self, t):
        # 2T+1 = 9 runs in exact rationals, 81 in floats; both apply one rule
        width = 2 * t + 1
        uniform = [Fraction(1, width)] * width
        bad = [
            [Fraction(7, width)] * width,  # sums to 7
            [1.0 / width] * width,  # inexact floats, sum != 1
            [float("nan")] + uniform[1:],
            [float("inf")] + uniform[1:],
            [Fraction(2, width), -Fraction(1, width)] + uniform[2:],
            uniform[:-1],  # wrong length
            uniform + [Fraction(0)],
        ]
        for start in bad:
            with pytest.raises(ValueError):
                exact_chain_expectation(t, 50, start)
        assert exact_chain_expectation(t, 50, uniform) == exact_chain_expectation(
            t, 50, "uniform"
        )
        # a subnormal entry makes the common denominator 2**1074, past float range
        tiny = Fraction(5e-324)
        near_point = [Fraction(0), tiny, 1 - tiny] + [Fraction(0)] * (width - 3)
        assert exact_chain_expectation(t, 50, near_point) == pytest.approx(
            exact_chain_expectation(t, 50, 2 - t), rel=1e-15
        )

    def test_float_branch_beyond_rational_limit(self):
        # 2T+1 = 67 exceeds the rational-state limit, so this runs in floats
        with pytest.raises(ValueError):
            exact_chain_expectation_fraction(33, 10, "uniform")
        value = exact_chain_expectation(33, 1000, "uniform")
        assert value == pytest.approx(1000.0 / 67.0, abs=1e-9)

    def test_float_and_fraction_paths_agree(self):
        for t, n in [(4, 500), (8, 200)]:
            exact = float(exact_chain_expectation_fraction(t, n, 0))
            assert exact_chain_expectation(t, n, 0) == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("t", [33, 40, 100])
    def test_spectral_sum_matches_step_loop(self, t):
        # beyond 65 states the public path is the spectral sum; the loop
        # steps the same float law n times
        width = 2 * t + 1
        weights = np.random.default_rng(t).integers(0, 1000, size=width)
        rational = [Fraction(int(w), int(weights.sum())) for w in weights]
        tiny = Fraction(5e-324)
        subnormal = [Fraction(0), tiny, 1 - tiny] + [Fraction(0)] * (width - 3)
        starts = {
            "edge": (-t, np.eye(width)[0]),
            "centre": (0, np.eye(width)[t]),
            "uniform": ("uniform", np.full(width, 1.0 / width)),
            "rational": (rational, [float(p) for p in rational]),
            "subnormal": (subnormal, [float(p) for p in subnormal]),
        }
        for name, (start, probs) in starts.items():
            for n in (0, 1, 7, 1000):
                loop = chain_expectation_loop(probs, n)
                value = exact_chain_expectation(t, n, start)
                # the centre start's tiny expectations carry the sum's
                # ~1e-17 absolute error (its exact zeros are returned as 0.0)
                assert value == pytest.approx(loop, rel=1e-12, abs=1e-15), (name, n)

    @pytest.mark.parametrize("t", [0, 1, 2, 5, 16, 22, 29, 32])
    def test_spectral_sum_matches_fraction(self, t):
        # the modes cancel, so while E < 1 the error is absolute, ~1e-15, and
        # it is relative only once E >= 1
        width = 2 * t + 1
        for start in ("uniform", -t, 0, t // 2):
            probs = np.full(width, 1.0 / width) if start == "uniform" else np.eye(width)[start + t]
            for n in (0, 1, 7, 100, 1000):
                exact = float(exact_chain_expectation_fraction(t, n, start))
                value = _spectral_expectation(probs, n)
                assert abs(value - exact) <= 1e-15 * max(exact, 1.0), (start, n)

    @pytest.mark.parametrize("t", [33, 40, 100, 300, 1000])
    def test_unreachable_edges_give_exact_zero(self, t):
        # a start law that cannot reach an edge within n steps discards
        # nothing; the spectral sum returned +-3.3e-16 there, mostly negative
        width = 2 * t + 1
        for s in (0, t // 2, 3 - t, t - 1):
            reach = t - abs(s)
            probs = np.eye(width)[s + t]
            for n in (1, reach // 2, reach):
                assert exact_chain_expectation(t, n, s) == chain_expectation_loop(probs, n) == 0.0
            loop = chain_expectation_loop(probs, reach + 1)
            assert exact_chain_expectation(t, reach + 1, s) == pytest.approx(loop, abs=1e-15)
        law = [Fraction(0)] * width
        law[t - 2 : t + 3] = [Fraction(1, 5)] * 5
        probs = [float(p) for p in law]
        assert exact_chain_expectation(t, t - 2, law) == chain_expectation_loop(probs, t - 2) == 0.0

    def test_spectral_sum_uniform_is_n_over_width(self):
        assert exact_chain_expectation(40, 10_000, "uniform") == 10_000 / 81

    @given(st.integers(0, 4), st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_expectation_bounded_by_n(self, t, n):
        value = exact_chain_expectation_fraction(t, n, "uniform")
        assert 0 <= value <= n


class TestReflectedVsDp:
    @given(sign_lists, st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_reflected_length_equals_dp(self, eps, t):
        walk = reflected_walk(eps, t, 0)
        assert len(walk.indices) == dp_longest_valid(eps, t, 0)
