"""One integer rule for every count, dimension and band radius.

Each entry point below takes an integer argument: ints, numpy ints and
integral floats give the same result, and bools, non-integral floats (NaN
included) and strings raise ValueError naming the argument.  Before the
rule, 2.5 was truncated (``lower_bound_1d(2.5, 10)`` reported T = 2) and
``Box.cube(True, 1.0)`` built a 1-d box.  Seeds follow it too, with a
minimum of 0: ``seed=True`` ran as seed 1, and ``seed=2.5`` failed later
with a TypeError.
"""

import json
import re

import numpy as np
import pytest

from driftguard import (
    Box,
    ExperimentConfig,
    StepGenerator,
    cube_eigen_density,
    dp_longest_valid,
    exact_chain_expectation,
    exact_chain_expectation_fraction,
    fisher_monte_carlo,
    fisher_quadrature,
    lower_bound_1d,
    filter_run,
    reflected_walk,
    run_ensemble,
    run_stats_from_json,
)

_BOX = Box.cube(2, 2.0)
_DENSITY = cube_eigen_density(_BOX)
_GENERATOR = StepGenerator("random_unit_sphere", 2)
_SIGNS = (1, 1, 1, -1, 1, 1)
_STEPS = np.full((3, 2), 0.5)


def _config(**counts):
    return ExperimentConfig(_BOX, _GENERATOR, **{"n_steps": 3, "n_trials": 3, "seed": 0, **counts})


# entry point: (argument name, a valid integer k, its minimum, k -> result)
ENTRY_POINTS = {
    "Box.cube": ("dimension", 3, 1, lambda k: Box.cube(k, 2.0).half_widths),
    "Density.sample": ("n", 3, 0, lambda k: _DENSITY.sample(np.random.default_rng(0), k)),
    "fisher_quadrature": (
        "grid_points_per_axis", 16, 16, lambda k: fisher_quadrature(_DENSITY, k).entries
    ),
    "fisher_monte_carlo": ("samples", 1000, 1000, lambda k: fisher_monte_carlo(_DENSITY, k, 0)),
    "lower_bound_1d T": ("half_width", 3, 0, lambda k: lower_bound_1d(k, 10)),
    "lower_bound_1d n": ("n_steps", 3, 0, lambda k: lower_bound_1d(2, k)),
    "StepGenerator": ("dimension", 3, 1, lambda k: StepGenerator("random_unit_sphere", k)),
    "ExperimentConfig n_trials": ("n_trials", 3, 1, lambda k: _config(n_trials=k)),
    "ExperimentConfig n_steps": ("n_steps", 3, 0, lambda k: _config(n_steps=k)),
    "reflected_walk T": ("half_width", 3, 0, lambda k: reflected_walk(_SIGNS, k, 1)),
    "reflected_walk start": ("start", 3, None, lambda k: reflected_walk(_SIGNS, 4, k)),
    "dp_longest_valid T": ("half_width", 3, 0, lambda k: dp_longest_valid(_SIGNS, k)),
    "chain_fraction T": ("half_width", 3, 0, lambda k: exact_chain_expectation_fraction(k, 9)),
    "chain_fraction n": ("n_steps", 3, 0, lambda k: exact_chain_expectation_fraction(3, k, 0)),
    "chain_float T": ("half_width", 40, 0, lambda k: exact_chain_expectation(k, 9, 0)),
    "chain_float n": ("n_steps", 3, 0, lambda k: exact_chain_expectation(40, k, "uniform")),
    "ExperimentConfig seed": ("seed", 3, 0, lambda k: _config(seed=k)),
    "run_ensemble seed": ("seeds", 3, 0, lambda k: run_ensemble(_DENSITY, _STEPS[None], [k])),
    "filter_run seed": ("rng_seed", 3, 0, lambda k: filter_run(_DENSITY, _STEPS, k)),
    "fisher_monte_carlo seed": ("rng_seed", 3, 0, lambda k: fisher_monte_carlo(_DENSITY, 1000, k)),
}


def _result(call, k) -> str:
    """``repr`` tells 3 from 3.0 and shows arrays in full."""
    with np.printoptions(threshold=np.inf, floatmode="unique"):
        return repr(call(k))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [2.5, True, "3", float("nan")], ids=repr)
def test_non_integers_raise_naming_the_argument(entry, bad):
    name, _, _, call = ENTRY_POINTS[entry]
    message = rf"^{name} must be an integer, not {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        call(bad)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_integral_values_give_the_same_result(entry):
    _, k, _, call = ENTRY_POINTS[entry]
    results = [_result(call, v) for v in (k, float(k), np.int64(k))]
    assert results == [results[0]] * 3


@pytest.mark.parametrize("entry", [e for e, spec in ENTRY_POINTS.items() if spec[2] is not None])
def test_below_minimum_raises(entry):
    name, _, minimum, call = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=rf"^{name} must be at least {minimum}$"):
        call(minimum - 1)


def test_chain_point_starts_follow_the_rule():
    # a string names a start law, so "3" is not a point; other scalars are
    for chain, t in ((exact_chain_expectation_fraction, 16), (exact_chain_expectation, 40)):
        results = [repr(chain(t, 50, start)) for start in (3, 3.0, np.int64(3))]
        assert results == [results[0]] * 3
        for bad in (2.5, True, float("nan")):
            with pytest.raises(ValueError, match=rf"^start must be an integer, not {bad!r}$"):
                chain(t, 50, bad)


def test_report_counts_are_integers():
    record = {"per_trial_discards": [4, 2.0], "mean": 3.0, "std_error": 1.0,
              "containment_violations": 0, "bound_reports": []}
    assert run_stats_from_json(json.dumps(record)).per_trial_discards == (4, 2)
    for key, bad in (("per_trial_discards", [4, 2.5]), ("containment_violations", True)):
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            run_stats_from_json(json.dumps({**record, key: bad}))
