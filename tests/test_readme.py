"""README's examples run as written.

The python quick start and every ``driftguard`` command line that reads no
input file run here, so a renamed or removed name fails the suite instead
of going stale in the docs.
"""

import re
import shlex
from pathlib import Path

import pytest

from driftguard import cli

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def _commands() -> list[list[str]]:
    """The argv of each README command line that needs no input file."""
    commands = []
    for lang, body in BLOCKS:
        for line in body.replace("\\\n", " ").splitlines():
            if lang or not line.startswith("driftguard "):
                continue
            argv = shlex.split(line)[1:]
            if not any(arg == "--config" or arg.startswith("file:") for arg in argv):
                commands.append(argv)
    return commands


COMMANDS = _commands()


def test_every_subcommand_has_an_example():
    assert {argv[0] for argv in COMMANDS} == {"simulate", "bounds", "oracle", "fisher"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where simulate's --out lands
    code = cli.main(argv)
    assert (code, capsys.readouterr().err) == (0, "")


def test_quick_start_runs(tmp_path, monkeypatch, capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert "trial,discards\n" in capsys.readouterr().out
