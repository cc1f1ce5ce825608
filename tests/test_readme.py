"""README's examples run as written, and the package exports what it says.

The python quick start and every ``driftguard`` command line run here, so
a renamed or removed name fails the suite instead of going stale in the
docs.  The lines that read a file get README's own config and step-file
examples, written to ``run.json`` and ``steps.txt``.
"""

import re
import shlex
from pathlib import Path

import pytest

import driftguard
from driftguard import bodies, bounds, cli, harness, metropolis, oracle1d

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


# the package exports these modules' __all__ in this order, then __version__
MODULES = (bodies, metropolis, bounds, oracle1d, harness)
# every name the package exported when it listed them by hand, but those in REMOVED
LISTED_BY_HAND = (
    "Box", "Density", "FisherMatrix", "cube_eigen_density", "dirichlet_lambda1_box",
    "fisher_closed_form_cube", "fisher_quadrature", "fisher_monte_carlo", "fisher_operator_norm",
    "ContainmentError", "Trajectory", "filter_run", "run_ensemble", "rejection_rate_exact_1d",
    "BoundReport", "upper_bound_general", "upper_bound_cube",
    "lower_bound_1d", "matching_bounds", "ValidSubsequence", "signs_from_string",
    "reflected_walk", "dp_longest_valid", "verify_lex_optimality", "exact_chain_expectation",
    "exact_chain_expectation_fraction", "StepGenerator", "ExperimentConfig", "RunStats",
    "run_experiment", "emit_report", "run_stats_from_json",
)
# names only tests reached, moved to tests/helpers.py or deleted, and what held each
REMOVED = (
    ("generate_steps", harness), ("run_experiment_ensemble", harness),
    ("rejection_rate_monte_carlo", metropolis), ("verify_start_shift", oracle1d),
    ("accepted_sums", metropolis.EnsembleResult), ("isotropic_bound", bounds),
)


def test_package_exports_each_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    assert driftguard.__all__ == [*names, "__version__"]
    assert len(set(driftguard.__all__)) == len(driftguard.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(driftguard, name) is getattr(module, name), name


def test_package_keeps_every_name_it_listed_by_hand():
    assert len(LISTED_BY_HAND) == len(set(LISTED_BY_HAND)) == 32
    assert set(LISTED_BY_HAND) <= set(driftguard.__all__)
    assert "EnsembleResult" in driftguard.__all__
    assert "run_experiment_ensemble" not in driftguard.__all__


def test_trial_streams_stays_in_harness():
    assert "trial_streams" not in driftguard.__all__
    assert not hasattr(driftguard, "trial_streams")
    from driftguard.harness import trial_streams

    assert trial_streams is harness.trial_streams
    for name, owner in REMOVED:
        assert not hasattr(driftguard, name), name
        assert not hasattr(owner, name), name
