import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftguard import bodies, bounds, cli, oracle1d
from driftguard.oracle1d import (
    ValidSubsequence,
    _lexmin_longest,
    _reflected_walks,
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
    chain_fraction_loop,
    enumerate_longest,
    exhaustive_longest_table,
    is_valid_for,
    longest_valid_loop,
    mc_reflected_discards,
    reflected_kernel_matrix,
    signs_of_bits,
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

    def test_matches_the_height_loop_up_to_the_limit(self):
        # past the enumeration's n <= 14, the per-height loop is the oracle
        rng = np.random.default_rng(1530)
        for n in range(15, 31):
            for _ in range(12):
                eps = tuple(int(e) for e in rng.choice([-1, 1], size=n))
                t = int(rng.integers(0, 7))
                start = int(rng.integers(-t, t + 1))
                assert dp_longest_valid(eps, t, start) == longest_valid_loop(eps, t, start)


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


def all_signs(n):
    """Every sign string of length n, string b in row b, as exhaustive_failures takes them."""
    rows = [signs_of_bits(b, n) for b in range(1 << n)]
    return np.array(rows, dtype=np.int8).reshape(1 << n, n)


def indices(rows):
    """Each row of kept or taken flags as its 1-based index tuple."""
    return [tuple((np.flatnonzero(row) + 1).tolist()) for row in rows]


def read(scans):
    """``_lexmin_longest``'s {start: (lengths, taken)} as lists of lengths and witnesses."""
    return {s: (lengths.tolist(), indices(taken)) for s, (lengths, taken) in scans.items()}


class TestReflectedWalks:
    """The batched greedy against ``reflected_walk``, string by string."""

    def test_keeps_what_the_walk_keeps_on_every_string(self):
        for n in range(0, 13):
            signs = all_signs(n)
            rows = signs.tolist()
            for t in (0, 1, 2, 3):
                for s in range(-t, t + 1):
                    kept = _reflected_walks(signs, t, s)
                    assert kept.shape == signs.shape and kept.dtype == bool, (n, t, s)
                    assert indices(kept) == [reflected_walk(r, t, s).indices for r in rows], (
                        n, t, s)

    @pytest.mark.parametrize("n", [0, 8])
    @pytest.mark.parametrize("s", [2**70, -(2**70), 0])
    def test_a_band_beyond_int64_is_exact(self, n, s):
        # heights are offsets from the start, so T = 2**70 needs no wide dtype
        t = 2**70
        signs = all_signs(n)
        kept = _reflected_walks(signs, t, s)
        assert kept.shape == signs.shape and kept.dtype == bool
        assert indices(kept) == [reflected_walk(r, t, s).indices for r in signs.tolist()]


class TestLexminLongest:
    """The DP against the helpers' table and height loop, string by string."""

    def test_matches_the_independent_table_and_the_loop(self):
        for n in range(0, 11):
            signs = all_signs(n)
            rows = signs.tolist()
            for t in (0, 1, 2, 3):
                for s in range(-t, t + 1):
                    lengths, witnesses = read(_lexmin_longest(signs, t, [s]))[s]
                    table_lengths, table_witnesses = exhaustive_longest_table(n, t, s)
                    assert lengths == table_lengths.tolist(), (n, t, s)
                    assert witnesses == table_witnesses, (n, t, s)
                    assert lengths == [longest_valid_loop(r, t, s) for r in rows], (n, t, s)

    def test_no_steps(self):
        for t, s in ((0, 0), (1, -1), (2**70, 2**70)):
            assert read(_lexmin_longest(all_signs(0), t, [s])) == {s: ([0], [()])}

    def test_zero_band_keeps_nothing(self):
        lengths, witnesses = read(_lexmin_longest(all_signs(6), 0, [0]))[0]
        assert lengths == [0] * 64 and witnesses == [()] * 64

    @pytest.mark.parametrize("t, s", [(5, 0), (6, -1), (8, 2), (9, 3), (2**70, -(2**70) + 5)])
    def test_a_band_the_walk_cannot_leave_keeps_everything(self, t, s):
        # T >= |start| + n: every height any subsequence reaches is in the band
        lengths, witnesses = read(_lexmin_longest(all_signs(5), t, [s]))[s]
        assert lengths == [5] * 32 and witnesses == [(1, 2, 3, 4, 5)] * 32

    @pytest.mark.parametrize("s", [2**70, 2**70 - 1, 2**70 - 3, 0, -(2**70) + 2])
    def test_a_band_beyond_int64_is_exact(self, s):
        # heights are offsets from the table's lowest, so T = 2**70 needs no wide dtype
        t = 2**70
        signs = all_signs(7)
        lengths, witnesses = read(_lexmin_longest(signs, t, [s]))[s]
        for row, length, witness in zip(signs.tolist(), lengths, witnesses):
            assert (length, witness) == enumerate_longest(tuple(row), t, s)
            assert length == longest_valid_loop(row, t, s)
        assert verify_lex_optimality((1,) * 7, t, s)

    @pytest.mark.parametrize("t, starts", [
        (3, [3, -1, 0, -3, 2, 0]),  # one table of the whole band at n = 6
        (2**70, [2**70, -(2**70), 0]),  # disjoint reach: one table would span 2**71 heights
    ])
    def test_starts_answer_as_they_do_alone(self, t, starts):
        signs = all_signs(6)
        assert read(_lexmin_longest(signs, t, starts)) == {
            s: read(_lexmin_longest(signs, t, [s]))[s] for s in starts}

    def test_rows_resolve_alike_in_any_slab_size(self, monkeypatch):
        signs = all_signs(9)
        whole = read(_lexmin_longest(signs, 2, [-1, 2]))
        monkeypatch.setattr(bodies, "_SLAB", 7)
        assert read(_lexmin_longest(signs, 2, [-1, 2])) == whole


def strict_walk(signs, half_width, start=0):
    """A wrong greedy: it keeps only steps that end strictly inside the band."""
    height, kept = start, []
    for k, e in enumerate(signs, start=1):
        if abs(height + e) < half_width:
            height += e
            kept.append(k)
    return ValidSubsequence(tuple(kept), start)


def strict_walks(signs, half_width, start):
    """``strict_walk`` on each row of ``signs``, as the batched walk's kept flags."""
    kept = np.zeros(signs.shape, dtype=bool)
    for row, eps in zip(kept, signs.tolist()):
        row[[k - 1 for k in strict_walk(eps, half_width, start).indices]] = True
    return kept


class TestPlantedCounterexample:
    @pytest.mark.parametrize("t, n, start", [(2, 6, None), (1, 5, None), (3, 7, -2)])
    def test_each_failure_is_reported_as_the_per_instance_loop_reports_it(
        self, capsys, monkeypatch, t, n, start
    ):
        # the per-instance loop: the walk against enumerate_longest, then the DP shift check
        starts = [start] if start is not None else list(range(-t, t + 1))
        expected = []
        for b in range(1 << n):
            eps = signs_of_bits(b, n)
            for s in starts:
                walk = strict_walk(eps, t, s)
                if not (enumerate_longest(eps, t, s) == (len(walk.indices), walk.indices)
                        and verify_start_shift(eps, t, s)):
                    signs = "".join("+" if e > 0 else "-" for e in eps)
                    expected.append(json.dumps(
                        dict(mode="exhaustive", T=t, start=s, signs=signs, ok=False),
                        sort_keys=True))
        monkeypatch.setattr(oracle1d, "_reflected_walks", strict_walks)
        argv = ["oracle", "--mode", "exhaustive", f"--T={t}", f"--n={n}"]
        if start is not None:
            argv.append(f"--start={start}")
        code = cli.main(argv)
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert 0 < len(expected) < len(starts) << n
        assert (code, err, lines[:-1]) == (2, "", expected)
        assert json.loads(lines[-1]) == dict(
            mode="exhaustive", T=t, n=n, instances=len(starts) << n, failures=len(expected))

    def test_the_shift_check_reads_the_scans_lengths(self, monkeypatch):
        # a DP that finds one step too many from 0 breaks the inequality from
        # every other start where it is tight; the taken rows still match the
        # walk, and the expectation comes from the height loop, not the DP
        scan = oracle1d._lexmin_longest

        def longer_from_0(signs, t, starts):
            scans = scan(signs, t, starts)
            lengths, taken = scans[0]
            return {**scans, 0: (lengths + 1, taken)}

        monkeypatch.setattr(oracle1d, "_lexmin_longest", longer_from_0)
        t, n = 2, 6
        expected = [
            (eps, s)
            for eps in (signs_of_bits(b, n) for b in range(1 << n))
            for s in range(-t, t + 1)
            if s and longest_valid_loop(eps, t, 0) + 1 > longest_valid_loop(eps, t, s) + abs(s)
        ]
        assert 0 < len(expected) < 4 << n
        assert oracle1d.exhaustive_failures(n, t, range(-t, t + 1)) == expected

    def test_bad_input_is_rejected(self):
        for n, t, starts, message in (
            (15, 1, [0], "^exhaustive mode is limited to n <= 14$"),
            (-1, 1, [0], "^n must be at least 0$"),
            (3, -1, [], "^half_width must be at least 0$"),
            (3, 1, [0, 2], r"^start 2 outside band \[-1, 1\]$"),
        ):
            with pytest.raises(ValueError, match=message):
                oracle1d.exhaustive_failures(n, t, starts)


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

    @pytest.mark.parametrize("t", range(8))
    def test_matches_the_integer_step_loop(self, t):
        # the second-moment identity against stepping the chain's weights
        width = 2 * t + 1
        rng = np.random.default_rng(t)
        for n in [*range(41), 100, 257, 300]:
            weights = rng.integers(1, 10, width)
            rational = [Fraction(int(w), int(weights.sum())) for w in weights]
            # float64 entries at k / 64, which sum to exactly 1
            dyadic = list(rng.multinomial(64, np.full(width, 1.0 / width)) / 64.0)
            for start in ["uniform", *range(-t, t + 1), rational, dyadic]:
                assert exact_chain_expectation_fraction(t, n, start) == chain_fraction_loop(
                    t, n, start
                ), (n, start)

    @pytest.mark.parametrize("n, start", [(10_000, 0), (3000, 32), (3000, -32)])
    def test_matches_the_integer_step_loop_at_the_rational_limit(self, n, start):
        assert exact_chain_expectation_fraction(32, n, start) == chain_fraction_loop(32, n, start)

    @pytest.mark.parametrize("t", [3, 32, 33, 100])
    def test_within_the_second_moment_bounds(self, t):
        # E = (n + E[h_0^2] - E[h_n^2]) / (2T+1) and 0 <= h^2 <= T^2; the
        # spectral sum beyond 65 states carries an absolute error
        slack = 0.0 if 2 * t + 1 <= 65 else 1e-12
        width = 2 * t + 1
        rational = [Fraction(i + 1, width * (width + 1) // 2) for i in range(width)]
        for n in (0, 1, 50, 5000):
            lower = Fraction(n - t * t, width)
            upper = Fraction(n + t * t, width)
            assert float(lower) >= bounds.lower_bound_1d(t, n).value
            for start in ("uniform", -t, 0, t // 2, t, rational):
                value = exact_chain_expectation(t, n, start)
                assert float(lower) - slack <= value <= float(upper) + slack, (n, start)

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
