"""The repo's pytest settings report a failing test instead of aborting.

``filterwarnings`` starts with ``error``, so a warning fails the test that
raised it.  A failing hypothesis test imports libcst while it reports the
falsifying example, and libcst's import warns that ``mypy_extensions.TypedDict``
is deprecated; as an error there it ended the session with an INTERNALERROR
and ran no later test.  The repo's settings are copied into a scratch
project, so its own tests run under them in a fresh process.
"""

import json
import subprocess
import sys
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TESTS = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_hypothesis_fails(x):
    assert x < 5


def test_warns_another_deprecation():
    warnings.warn("another deprecation", DeprecationWarning)


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported(tmp_path):
    options = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]
    # a json string, or list of them, is a toml value too
    lines = [f"{key} = {json.dumps(value)}" for key, value in options.items()]
    (tmp_path / "pyproject.toml").write_text("\n".join(["[tool.pytest.ini_options]", *lines]))
    (tmp_path / "test_three.py").write_text(TESTS)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1, out
    assert "2 failed, 1 passed" in out
    assert "Falsifying example: test_hypothesis_fails(" in out
