"""The CLI's contract over edge half-widths.

Every command line either exits 0 with each stdout line a JSON object of
finite numbers, or exits 2 with stderr starting ``error:``.  It never ends
in a traceback, never prints NaN or inf, and raises no RuntimeWarning.
The lines are drawn from the subcommands that read a half-width, over
d in {1, 2, 3} and half-widths from NaN through subnormals to 1e308.
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import given, settings
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
    argv = [*command, "--dim", dim, f"--half-width={half_width}"]
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
