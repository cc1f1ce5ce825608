"""The CLI's contract over edge half-widths and edge oracle bands.

Every command line either exits 0 with each stdout line a JSON object of
finite numbers, or exits 2 with stderr starting ``error:``.  It never ends
in a traceback, never prints NaN or inf, and raises no RuntimeWarning.
The lines are drawn from the subcommands that read a half-width, over
d in {1, 2, 3} and half-widths from NaN through subnormals to 1e308, and
from the three oracle modes over bands, step counts and starts at and
beyond their limits, from the count flags at 0, 1 and their floors, and
from each ``simulate --config`` key at an edge value or of a wrong type.
"""

import contextlib
import io
import itertools
import json
import math
import time
import warnings

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from driftguard import cli

COMMANDS = (
    ("fisher", "--method", "closed"),
    ("fisher", "--method", "quadrature", "--nodes", "16"),
    ("fisher", "--method", "mc", "--samples", "1000"),
    ("bounds", "--steps", "5"),
    ("simulate", "--steps", "5", "--trials", "2", "--format", "json"),
)
HALF_WIDTHS = (
    "nan", "inf", "-1", "0", "5e-324", "1e-310", "1e-200", "1e-170", "1e-160", "1e-76",
    "1e-6", "1e-3", "0.005", "0.5", "1", "16", "1e150", "1e154", "1e200", "1e307", "1e308",
)
# 2T + 1 = 65 states is the last in rationals; n = 14 the last exhaustive and
# n = 30 the last DP, so the grid's exhaustive lines run at n <= 4 or are refused
# at n >= 15; the cost-ceiling test below runs it at n = 12 and 14
ORACLE_TS = ("-1", "0", "1", "2", "32", "33", "40")
ORACLE_NS = (-1, 0, 1, 4, 15, 31)
ORACLE_STARTS = (None, "0", "-1", "1", "41", "-41")


def _finite_json(line: str):
    """``line`` parsed as JSON; ValueError on NaN, Infinity or 1e999, which json.loads accepts."""
    def finite(text):
        if not math.isfinite(float(text)):
            raise ValueError(f"non-finite {text} in {line!r}")
        return float(text)
    return json.loads(line, parse_float=finite, parse_constant=finite)


# 315 lines in all, few enough that hypothesis runs each one and stops
@settings(derandomize=True, deadline=None, max_examples=1000)
@given(
    command=st.sampled_from(COMMANDS),
    dim=st.sampled_from(("1", "2", "3")),
    half_width=st.sampled_from(HALF_WIDTHS),
)
def test_exits_0_with_finite_json_or_2_with_an_error(command, dim, half_width):
    assert_meets_contract([*command, "--dim", dim, f"--half-width={half_width}"])


@pytest.mark.parametrize("mode", ["chain", "single", "exhaustive"])
def test_oracle_grid_meets_the_contract(mode):
    # 252 lines a mode; single gets signs of length n, none at n <= 0
    for t, n, start in itertools.product(ORACLE_TS, ORACLE_NS, ORACLE_STARTS):
        argv = ["oracle", "--mode", mode, f"--T={t}", f"--n={n}"]
        if start is not None:
            argv.append(f"--start={start}")
        if mode == "single":
            argv.append("--signs=" + ("++-" * 11)[: max(n, 0)])
        assert_meets_contract(argv)


# exhaustive mode's cost ceilings: n = 14 is the last n it takes, and T = 0
# keeps no step of any string.  With the (step, height) DP each takes under a
# second on 2 cores; n = 14 took 2-3 s when one scan tried every subset and
# 38-45 s when each instance enumerated its subsets in Python, so the budgets
# are generous and still catch the last
@pytest.mark.parametrize("t, n, budget", [(2, 14, 30.0), (0, 12, 10.0)])
def test_exhaustive_runs_within_a_wall_budget(t, n, budget):
    began = time.perf_counter()
    code, out, _ = assert_meets_contract(
        ["oracle", "--mode", "exhaustive", f"--T={t}", f"--n={n}"])
    assert time.perf_counter() - began < budget
    summary = json.loads(out.splitlines()[-1])
    assert (code, summary["instances"], summary["failures"]) == (0, (2 * t + 1) << n, 0)


# the exact chain's cost ceiling: 65 states is the last it takes in rationals,
# and its O(n) big-int steps take 1.4-1.9 s at n = 1e5 on 2 cores, where stepping
# every state took 13-19 s; its p/q has too many digits to print
def test_exact_chain_runs_within_a_wall_budget():
    began = time.perf_counter()
    code, out, _ = assert_meets_contract(
        ["oracle", "--mode", "chain", "--T=32", "--n=100000", "--start=0"])
    assert time.perf_counter() - began < 10.0
    assert code == 0 and json.loads(out)["exact"] is None


def test_oracle_at_a_wide_band_meets_the_contract():
    assert_meets_contract(["oracle", "--mode", "chain", "--T=1000000", "--n=10", "--start=0"])
    assert_meets_contract(["oracle", "--mode", "single", "--T=1000000", "--n=2", "--signs=++"])
    # the DP's heights are offsets from its table's lowest, so a band past int64
    # is exact, and its starts 2**70 and 0 (for the shift check) get a table each
    for start in (f"--start={2**70}", f"--start={-(2**70) + 3}", "--start=0"):
        code, out, _ = assert_meets_contract(
            ["oracle", "--mode", "exhaustive", f"--T={2**70}", "--n=8", start])
        assert (code, json.loads(out)["failures"]) == (0, 0)


def test_oracle_n_when_given_must_match_the_signs():
    # --n 0 was once read as "not given", so it passed for any sign string
    single = ["oracle", "--mode", "single", "--T=1", "--signs=+++"]
    assert assert_meets_contract([*single, "--n=0"])[0] == 2
    assert assert_meets_contract([*single, "--n=4"])[0] == 2
    assert assert_meets_contract([*single, "--n=3"]) == assert_meets_contract(single)
    assert assert_meets_contract(single)[0] == 0
    # chain and exhaustive take n = 0 without --n
    for mode in ("chain", "exhaustive"):
        bare = assert_meets_contract(["oracle", "--mode", mode, "--T=1"])
        assert bare == assert_meets_contract(["oracle", "--mode", mode, "--T=1", "--n=0"])
        assert bare[0] == 0 and json.loads(bare[1].splitlines()[-1])["n"] == 0


@pytest.mark.parametrize("half_width", HALF_WIDTHS)
def test_quadrature_verdict_does_not_depend_on_the_dimension(half_width):
    # each axis is integrated alone; the tensor grid's weights, T**d, once
    # gave d = 1, 2 and 3 different verdicts at 1e150, 1e154, 1e200 and 1e307
    verdicts = []
    for dim in ("1", "2", "3"):
        code, _, err = assert_meets_contract(
            ["fisher", "--method", "quadrature", "--nodes", "16", f"--dim={dim}",
             f"--half-width={half_width}"]
        )
        verdicts.append((code, err))
    assert verdicts == [verdicts[0]] * 3


# each count flag at 0, 1 and either side of its floor, with the exit code it gives
COUNT_FLAGS = [
    *[(("fisher", "--method", "quadrature", "--nodes", n), 2) for n in ("0", "1", "15")],
    (("fisher", "--method", "quadrature", "--nodes", "16"), 0),
    *[(("fisher", "--method", "mc", "--samples", n), 2) for n in ("0", "1", "999")],
    (("fisher", "--method", "mc", "--samples", "1000"), 0),
    *[(("simulate", "--format=json", "--trials=2", "--steps", n), 0) for n in ("0", "1")],
    (("simulate", "--format=json", "--steps=5", "--trials", "0"), 2),
    (("simulate", "--format=json", "--steps=5", "--trials", "1"), 0),
]


@pytest.mark.parametrize("argv, code", COUNT_FLAGS, ids=[" ".join(a) for a, _ in COUNT_FLAGS])
def test_count_flags_at_their_floors_meet_the_contract(argv, code):
    assert assert_meets_contract([*argv, "--dim=2", "--half-width=2"])[0] == code


# one config key at a time, at an edge value or of a wrong type, laid over a
# small json run; "file:" names a step file that does not exist
CONFIG_VALUES = (
    None, True, False, 0, -1, 8, 2.5, -0.0, math.nan, 1e308, 5e-324,
    "", "pm1", "json", "1", "file:no-such-steps.txt",
    [], [2.0], [1, 2, 3], [[1.0]], [[1, 2], [3]], {}, {"dim": 1},
)


# 11 keys times 23 values, few enough that hypothesis runs each pair and stops
@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(cli._SIM_DEFAULTS)), value=st.sampled_from(CONFIG_VALUES))
def test_config_keys_meet_the_contract(tmp_path, monkeypatch, key, value):
    # a run of 1e308 trials is a cost ceiling, not this contract, and a
    # nonempty out string is a path the report goes to instead of stdout
    assume(not (key in ("steps", "trials", "dim") and isinstance(value, (int, float))
                and abs(value) > 8))
    assume(not (key == "out" and isinstance(value, str) and value))
    monkeypatch.chdir(tmp_path)  # where the missing step file is looked for
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": 5, "trials": 2, "format": "json", key: value}))
    assert_meets_contract(["simulate", "--config", str(config)])


def assert_meets_contract(argv):
    """``driftguard argv`` exits 0 with finite JSON lines or 2 with one error line.

    Returns the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    if code == 0:
        lines = out.getvalue().splitlines()
        assert lines and err.getvalue() == ""
        for line in lines:
            assert isinstance(_finite_json(line), dict)
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    return code, out.getvalue(), err.getvalue()


# a step file's text for each way it can be wrong, read at --dim 3; the
# last overflows the bound's sum of squares though every entry is finite
BAD_STEP_FILES = {
    "empty": b"",
    "comment_only": b"# no steps\n",
    "ragged": b"1 0 0\n0 1\n",
    "comma_separated": b"1,0,0\n0,1,0\n",
    "non_numeric": b"1 0 zero\n",
    "nan": b"1 0 0\nnan 0 0\n",
    "beyond_float_range": b"1e400 0 0\n",
    "wrong_dimension": b"1 0\n0 1\n",
    "not_utf8": b"1 0 0\n\xff\xfe 0 0\n",
    "huge": b"1e300 1e300 1e300\n",
}


def step_file_lines(path):
    """``simulate --generator file:`` and ``bounds --norms file:`` on ``path``."""
    return (
        ["simulate", "--dim=3", "--half-width=4", "--steps=5", "--trials=2", "--format=json",
         f"--generator=file:{path}"],
        ["bounds", "--dim=3", "--half-width=4", f"--norms=file:{path}"],
    )


def assert_step_file_lines_exit(path, code):
    for argv in step_file_lines(path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # any warning at all is recorded
            assert assert_meets_contract(argv)[0] == code, argv
        assert caught == [], argv


@pytest.mark.parametrize("name", sorted(BAD_STEP_FILES))
def test_bad_step_files_exit_2(tmp_path, name):
    path = tmp_path / "steps.txt"
    path.write_bytes(BAD_STEP_FILES[name])
    assert_step_file_lines_exit(path, 2)


def test_a_directory_or_a_missing_step_file_exits_2(tmp_path):
    assert_step_file_lines_exit(tmp_path, 2)
    assert_step_file_lines_exit(tmp_path / "missing.txt", 2)


def test_step_files_that_fit_exit_0(tmp_path):
    path = tmp_path / "steps.txt"
    path.write_bytes(b"# two steps\n1 0 0\n0.5 -0.5 2\n")
    assert_step_file_lines_exit(path, 0)
    simulate = step_file_lines(path)[0]
    assert assert_meets_contract([*simulate, "--steps=0"])[0] == 0  # a run of zero steps
