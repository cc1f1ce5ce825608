"""README's examples run as written.

The python quick start and every ``driftguard`` command line run here, so
a renamed or removed name fails the suite instead of going stale in the
docs.  The lines that read a file get README's own config and step-file
examples, written to ``run.json`` and ``steps.txt``.
"""

import re
import shlex
from pathlib import Path

import pytest

from driftguard import cli

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def _commands() -> list[list[str]]:
    """The argv of each README command line."""
    commands = []
    for lang, body in BLOCKS:
        for line in body.replace("\\\n", " ").splitlines():
            if not lang and line.startswith("driftguard "):
                commands.append(shlex.split(line)[1:])
    return commands


COMMANDS = _commands()
# the config-file block is the one JSON object; the step-file block is all numbers
(CONFIG,) = [body for lang, body in BLOCKS if not lang and body.startswith("{")]
(STEPS,) = [body for lang, body in BLOCKS if not lang and re.fullmatch(r"[-+.\d\s]+", body)]


def test_every_subcommand_has_an_example():
    assert {argv[0] for argv in COMMANDS} == {"simulate", "bounds", "oracle", "fisher"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where simulate's --out lands and the files are read
    (tmp_path / "run.json").write_text(CONFIG)
    (tmp_path / "steps.txt").write_text(STEPS)
    code = cli.main(argv)
    assert (code, capsys.readouterr().err) == (0, "")


def test_quick_start_runs(tmp_path, monkeypatch, capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert "trial,discards\n" in capsys.readouterr().out
