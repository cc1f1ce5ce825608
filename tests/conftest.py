"""Shared pytest wiring.

ACCEPTANCE_LINES collects the one-line verdicts emitted by the acceptance
tests; the terminal-summary hook replays them at the end of the run so they
appear even under output capture.  Every test must leave no child process
behind: a run that forks trial shards reaps them all, whatever it raised.
"""

import os

import pytest

ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
