"""End-to-end acceptance checks.

Every test pins its seeds and tolerances, runs one numbered criterion, and
records a single PASS or FAIL line with elapsed time; conftest replays the
lines in a terminal-summary section so they survive pytest's capture.
Runtime targets are reported, not asserted.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from scipy import stats as sps

import conftest

from driftguard.bodies import (
    Box,
    cube_eigen_density,
    dirichlet_lambda1_box,
    fisher_closed_form_cube,
    fisher_monte_carlo,
    fisher_quadrature,
)
from driftguard.bounds import upper_bound_general
from driftguard.harness import (
    ExperimentConfig,
    StepGenerator,
    emit_report,
    run_experiment,
)
from driftguard.metropolis import rejection_rate_exact_1d
from driftguard.oracle1d import exact_chain_expectation_fraction, reflected_walk
from helpers import (
    cube_coordinate_cdf,
    exhaustive_longest_table,
    mc_reflected_discards,
    rejection_rate_monte_carlo,
    run_experiment_ensemble,
    signs_of_bits,
)


@contextmanager
def criterion(number, target_seconds):
    started = time.perf_counter()
    detail = {}
    try:
        yield detail
    except BaseException:
        elapsed = time.perf_counter() - started
        line = (
            f"criterion {number}: FAIL - {detail.get('text', 'assertion failed')} "
            f"({elapsed:.1f}s, target {target_seconds}s)"
        )
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    elapsed = time.perf_counter() - started
    line = (
        f"criterion {number}: PASS - {detail['text']} "
        f"({elapsed:.1f}s, target {target_seconds}s)"
    )
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def cube_headline_config():
    return ExperimentConfig(
        body=Box.cube(3, 16.0),
        generator=StepGenerator("random_unit_sphere", 3),
        n_steps=10_000,
        n_trials=200,
        seed=20260816,
    )


def mixed_norm_config(j, rng):
    # directions uniform on the circle, norms log-uniform in [0.25, 2.5]
    n = int(rng.integers(50, 201))
    directions = rng.standard_normal((n, 2))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    norms = np.exp(rng.uniform(np.log(0.25), np.log(2.5), size=n))
    vectors = tuple(tuple(float(x) for x in row) for row in directions * norms[:, None])
    config = ExperimentConfig(
        body=Box.cube(2, 4.0),
        generator=StepGenerator("fixed_list", 2, vectors=vectors),
        n_steps=n,
        n_trials=100,
        seed=1000 + j,
    )
    return config, np.asarray(vectors)


def snapshot_config():
    return ExperimentConfig(
        body=Box.cube(1, 1.0),
        generator=StepGenerator("fixed_list", 1, vectors=((0.3,),)),
        n_steps=1000,
        n_trials=5000,
        seed=424242,
    )


@lru_cache(maxsize=None)
def longest_table(n, t, start):
    lengths, witnesses = exhaustive_longest_table(n, t, start)
    return lengths, witnesses


def test_criterion_01_cube_containment_and_discard_bound():
    with criterion(1, 60) as detail:
        stats, ensemble = run_experiment_ensemble(cube_headline_config())
        worst = float(ensemble.max_abs_sums.max())
        assert worst <= 32.0
        assert stats.containment_violations == 0
        cube = next(r for r in stats.bound_reports if r.kind == "cube_l2")
        assert cube.value == pytest.approx(math.pi * 1e4 / 32, rel=1e-9)
        assert cube.value <= 982.0
        assert stats.mean <= cube.value + 3.0 * stats.std_error
        detail["text"] = (
            f"max |sum| {worst:.3f} <= 32, zero violations, "
            f"mean {stats.mean:.1f} <= {cube.value:.1f} + 3*{stats.std_error:.2f}"
        )


def test_criterion_02_general_fisher_bound_mixed_norms():
    with criterion(2, 120) as detail:
        rng = np.random.default_rng(777)
        fisher = fisher_closed_form_cube(Box.cube(2, 4.0))
        worst_margin = math.inf
        for j in range(50):
            config, vectors = mixed_norm_config(j, rng)
            stats = run_experiment(config)
            bound = upper_bound_general(fisher, vectors)
            attached = next(
                r for r in stats.bound_reports if r.kind == "general_fisher"
            )
            # sign flips keep every v^T I v, so both routes must agree
            assert attached.value == pytest.approx(bound.value, rel=1e-9)
            margin = bound.value + 3.0 * stats.std_error - stats.mean
            worst_margin = min(worst_margin, margin)
            assert stats.mean <= bound.value + 3.0 * stats.std_error
        detail["text"] = f"50 step sets, worst margin {worst_margin:.2f} discards"


def test_criterion_03_rejection_identity_quad_vs_mc():
    with criterion(3, 30) as detail:
        density = cube_eigen_density(Box.cube(1, 1.0))
        worst_z = 0.0
        for i, v in enumerate((0.05, 0.1, 0.2, 0.4)):
            quad = rejection_rate_exact_1d(density, v)
            freq, se = rejection_rate_monte_carlo(density, [v], 1_000_000, 7000 + i)
            z = abs(quad - freq) / se
            worst_z = max(worst_z, z)
            assert abs(quad - freq) <= 3.0 * se
            assert quad <= math.pi * v / 2 + 1e-15
        detail["text"] = f"4 step sizes, worst |z| {worst_z:.2f}, all <= pi*v/2"


def test_criterion_04_fisher_estimators_agree():
    with criterion(4, 60) as detail:
        worst_quad = 0.0
        worst_z = 0.0
        worst_trace = 0.0
        combos = itertools.product((1.0, 2.0, 16.0), (1, 2))
        for idx, (t, d) in enumerate(combos):
            density = cube_eigen_density(Box.cube(d, t))
            closed = np.pi**2 / t**2 * np.eye(d)
            quad = fisher_quadrature(density, 256 if d == 1 else 128)
            quad_err = float(np.max(np.abs(quad.entries - closed)))
            worst_quad = max(worst_quad, quad_err)
            assert quad_err <= 1e-6
            mc = fisher_monte_carlo(density, 1_000_000, rng_seed=9200 + idx)
            z = float(np.max(np.abs(mc.entries - closed) / mc.std_error))
            worst_z = max(worst_z, z)
            assert np.all(np.abs(mc.entries - closed) <= 3.0 * mc.std_error)
            lam = dirichlet_lambda1_box(Box.cube(d, t))
            trace_gap = abs(float(np.trace(quad.entries)) - 4.0 * lam)
            worst_trace = max(worst_trace, trace_gap)
            assert trace_gap <= 1e-5
        detail["text"] = (
            f"6 (T, d) combos: quad err <= {worst_quad:.1e}, "
            f"mc |z| <= {worst_z:.2f}, trace gap <= {worst_trace:.1e}"
        )


def test_criterion_05_reflected_walk_exhaustive_optimality():
    with criterion(5, 120) as detail:
        instances = 0
        for n in range(1, 11):
            for t in (1, 2, 3):
                for start in range(-t, t + 1):
                    lengths, witnesses = longest_table(n, t, start)
                    for b in range(1 << n):
                        eps = signs_of_bits(b, n)
                        walk = reflected_walk(eps, t, start)
                        assert len(walk.indices) == lengths[b]
                        assert walk.indices == witnesses[b]
                        instances += 1
        assert instances == 30_690
        detail["text"] = f"{instances} instances, zero counterexamples"


def test_criterion_06_start_shift_inequality_exhaustive():
    with criterion(6, 60) as detail:
        instances = 0
        for n in range(1, 11):
            for t in (0, 1, 2, 3):
                base, _ = longest_table(n, t, 0)
                for start in range(-t, t + 1):
                    shifted, _ = longest_table(n, t, start)
                    assert np.all(base <= shifted + abs(start))
                    instances += int(len(base))
        detail["text"] = f"{instances} string/start pairs, zero counterexamples"


def test_criterion_07_uniform_start_exact_identity():
    with criterion(7, 5) as detail:
        for t in range(1, 9):
            for n in (1, 10, 1000):
                value = exact_chain_expectation_fraction(t, n, "uniform")
                assert value == Fraction(n, 2 * t + 1)
        detail["text"] = "24 (T, n) pairs match n/(2T+1) in exact arithmetic"


def test_criterion_08_origin_start_lower_bound():
    with criterion(8, 30) as detail:
        n = 10_000
        worst_z = 0.0
        for t in range(1, 9):
            exact = exact_chain_expectation_fraction(t, n, 0)
            assert exact >= Fraction(n, 2 * t + 1) - t
            mc_mean, mc_se = mc_reflected_discards(t, n, 500, 0, seed=1234 + t)
            z = abs(mc_mean - float(exact)) / mc_se
            worst_z = max(worst_z, z)
            assert abs(mc_mean - float(exact)) <= 3.0 * mc_se
        detail["text"] = f"T=1..8 exact >= n/(2T+1) - T, worst mc |z| {worst_z:.2f}"


def test_criterion_09_snapshot_matches_stationary_cdf():
    with criterion(9, 60) as detail:
        _, ensemble = run_experiment_ensemble(snapshot_config())
        result = sps.kstest(
            ensemble.finals[:, 0], lambda x: cube_coordinate_cdf(1.0, x)
        )
        assert result.pvalue > 0.001
        detail["text"] = (
            f"ks stat {result.statistic:.4f}, pvalue {result.pvalue:.3f} > 0.001"
        )


def test_criterion_10_reports_are_byte_identical():
    with criterion(10, 300) as detail:
        checked = 0
        for make in (cube_headline_config, snapshot_config):
            first = run_experiment(make())
            second = run_experiment(make())
            for fmt in ("json", "csv"):
                assert emit_report(first, fmt) == emit_report(second, fmt)
                checked += 1
        config_a, _ = mixed_norm_config(0, np.random.default_rng(777))
        config_b, _ = mixed_norm_config(0, np.random.default_rng(777))
        for fmt in ("json", "csv"):
            assert emit_report(run_experiment(config_a), fmt) == emit_report(
                run_experiment(config_b), fmt
            )
            checked += 1
        detail["text"] = f"{checked} report pairs byte-identical across re-runs"


def test_criterion_11_discard_fraction_is_dimension_free():
    # unit Euclidean steps in a cube: the discard fraction stays under the
    # d-free bound pi / (2T) as d grows
    with criterion(11, 30) as detail:
        t, n = 16.0, 4000
        fractions = []
        for d in (1, 4, 16, 64, 256):
            config = ExperimentConfig(
                body=Box.cube(d, t),
                generator=StepGenerator("random_unit_sphere", d),
                n_steps=n,
                n_trials=50,
                seed=3,
            )
            stats, ensemble = run_experiment_ensemble(config)
            cube = next(r for r in stats.bound_reports if r.kind == "cube_l2")
            assert cube.value == pytest.approx(math.pi * n / (2.0 * t), rel=1e-9)
            assert stats.mean <= cube.value + 3.0 * stats.std_error, d
            assert stats.containment_violations == 0
            assert float(ensemble.max_abs_sums.max()) <= 2.0 * t
            fractions.append(f"d={d} {stats.mean / n:.3f}")
        detail["text"] = (
            f"discard fraction {', '.join(fractions)} <= pi/(2T) {math.pi / (2.0 * t):.3f} "
            f"+ 3 SE, zero violations"
        )
