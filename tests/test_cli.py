import dataclasses
import hashlib
import importlib.util
import json
import os
import shlex
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from driftguard import (
    Box, ExperimentConfig, StepGenerator, bodies, cli, emit_report, harness, oracle1d,
    run_experiment,
)
from driftguard.bounds import matching_bounds
from driftguard.cli import main
from driftguard.oracle1d import exact_chain_expectation_fraction
from helpers import chain_expectation_loop, fisher_diagonal_band
from test_metropolis import liar_density


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(text):
    return [json.loads(line) for line in text.strip().splitlines()]


_STEP_ROWS = 1000


def write_step_file(tmp_path, rows, dim):
    """_STEP_ROWS step vectors of one kind, written one per line."""
    if rows == "pm1":
        steps = np.zeros((_STEP_ROWS, dim))
        steps[:, 0] = np.resize([1.0, -1.0, 1.0], _STEP_ROWS)
    elif rows == "tenth":
        steps = np.full((_STEP_ROWS, dim), 0.1)
    elif rows == "e1":
        steps = np.zeros((_STEP_ROWS, dim))
        steps[:, 0] = 1.0
    else:
        steps = np.random.default_rng(dim).normal(size=(_STEP_ROWS, dim))
    path = tmp_path / f"{rows}.txt"
    np.savetxt(path, steps, fmt="%.17g")
    return path


# sha256 of `simulate --format json --seed 1` reports.  A change to the
# step, origin or coin streams moves these bytes, and must re-pin them.
PINNED_REPORTS = [
    (
        ("--dim", "3", "--half-width", "16", "--generator", "unit", "--trials", "64",
         "--steps", "200"),
        "58988a87e4d61a7171c029e24451dc6b8cc3e58742273657815bbb8c80a9c278",
    ),
    (
        ("--dim", "1", "--half-width", "8", "--generator", "pm1", "--trials", "4",
         "--steps", "5000"),
        "cbb34a2c2727933a72805f9bbd472402cb107accc2074c3f48630a13246e223c",
    ),
    (  # four trial slabs
        ("--dim", "3", "--generator", "unit", "--steps", "200", "--trials", "2500"),
        "c26040f9193f7d3f8e892c28131182364dba0c130ac270cd4f0dd12518547c04",
    ),
    # the pre-fetching body: long accept runs, short ones, and windows at d >= 8
    (
        ("--dim", "1", "--half-width", "64", "--generator", "pm1", "--trials", "4",
         "--steps", "20000"),
        "b619c183e84000ec0c1c64f881fe590511f475da44ccb6fccf049783a7575a1c",
    ),
    (
        ("--dim", "4", "--half-width", "2", "--generator", "unit", "--trials", "8",
         "--steps", "5000"),
        "a42d31aa5ca79e0c099f6062f73cbd494a1ad3e68607d9f1f44d6d7bfe85f0e1",
    ),
    (
        ("--dim", "64", "--half-width", "16", "--generator", "pm1", "--trials", "2",
         "--steps", "2000"),
        "e55ae795194834a24b2bbdc553d9562f083b7a208f8e8b87427d39d6200b8960",
    ),
]


# sha256 of the stdout of every bounds and oracle line of tools/report_diff.py
# but `oracle --mode exhaustive --T 20 --n 14` (~0.7 s): each exits 0, and a
# line whose bytes move must be re-pinned, as the reports above must
PINNED_LINES = [
    ("bounds --dim 1 --half-width 4 --steps 10000",
     "d080bcede688746e594c276cb0fdd3c4d38c2f8a154f0c870bb0548bc7779f3e"),
    ("bounds --dim 3 --half-width 16 --steps 1000",
     "f71bc720d17c3b3283f4ab67dc47164dd0e819d1b1f0bf7970b4cc7490a4f9a0"),
    ("oracle --mode chain --T 2 --n 1000 --start 0",
     "110ebce8cf3ed472c2d82777fe0ec5b50a08e8c794798b5ee7fa9916671925e5"),
    ("oracle --mode chain --T 32 --n 10000 --start 0",
     "d0ff1827edb2c9fcf694625cf6cc3beddf546a736e223f2bdae862382ce7ad35"),
    ("oracle --mode chain --T 32 --n 3000",
     "75b75bc1647c768624c2d1c358595145556ff45bbb2f5157be1155e0e13d8ca9"),
    ("oracle --mode chain --T 31 --n 5000 --start -31",
     "8b33df786bd375b9cce906e7a7183fadb332d35f3384a0304ccdfaf6f88ac52c"),
    ("oracle --mode chain --T 1000 --n 100000 --start 0",
     "c60bda30a827be0ddd1644b8da549de921976271991ca5d231d63b0dbbfb3445"),
    ("oracle --mode exhaustive --T 2 --n 8",
     "b3fbfeb50310e3e0dc52e58031e4f8fbcb88ad5b482a6e4e86e2b58d58f9dc2f"),
    ("oracle --mode exhaustive --T 0 --n 10",
     "3be2324292639f78b324b7c08dcd565fa3af22b4e11e36f9224863fee651c55d"),
    ("oracle --mode exhaustive --T 3 --n 12 --start -3",
     "fc0bf30506a87d29bc562efdb404b3ebea51fb923bf2152353823bfed0d6e6ac"),
    ("oracle --mode exhaustive --T 2 --n 14",
     "eeeab03056c7ef23a10d6b1ca1360a6e69820ba1864620ff20c490a2b6b8347f"),
    ("oracle --mode exhaustive --T 6 --n 12",
     "3fd6ec173ce60a1b9b941193a466effce951575be97751d534572612ab74bdbb"),
    (f"oracle --mode exhaustive --T {2**70} --n 10 --start {2**70}",
     "63ab9d095bef6f5a8967f9ea7a39fa82bca16054f707ec3badbc2459122295bd"),
    ("oracle --mode single --T 1 --n 4 --signs=+--+",
     "a8d36aad51b59fe17d206af35a3a44792dbf2b5cbc4fec5f9f4103a4d74520b3"),
    ("oracle --mode single --T 2 --start -1 --signs=++-+--++++-+-+",
     "15d8fa5fac8c47aa2afc8555d05a4fb0912a16a0063858da9c7f94b70924610e"),
    ("oracle --mode single --T 3 --start 2 --signs=+-++-+++--+-+++--+-++++--+-+-+",
     "0ffd36ac81e097ac2d526af4a8a31706321b9071fd284339060e1eee100ba32e"),
    ("oracle --mode single --T 1000000 --n 2 --signs=++",
     "8f79f90ade1a36de496b86f263a1567e045d723fc047aeeeb04d1a81ac99c648"),
    ("oracle --mode chain --T 1000000 --n 10 --start 0",
     "caf63504991aaed5b4574133efb0c317f6265b5ff477fed3f30b1935502fe52d"),
]


@pytest.mark.parametrize("line, digest", PINNED_LINES, ids=[line for line, _ in PINNED_LINES])
def test_pinned_line_bytes(capsys, line, digest):
    code, out, err = run_cli(capsys, *shlex.split(line))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_REPORT_DIFF = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
_SPEC = importlib.util.spec_from_file_location("report_diff", _REPORT_DIFF)
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)

# sha256 of the stdout of tools/report_diff.py's FILE_LINES, on its STEP_FILE,
# and of simulate lines of its LINES that run in under ~0.5 s: a pm1 walk
# pre-fetching over 5 chunks, a pm1 csv report of three slabs, isotropic
# steps, and n = 0 in unit slabs and in a pm1 slab with no chunk
PINNED_RUN_LINES = [
    ("simulate --dim 2 --half-width 3 --generator file:{path} --steps 20000 --trials 30"
     " --format json --seed 1",
     "d82a275fcb7ea20697557f0a1bd4d45bbbf186db65e31928de66708ea9df51eb"),
    ("simulate --dim 2 --half-width 3 --generator file:{path} --steps 300 --trials 3000"
     " --format json --seed 1",
     "50d355fd240da3407be1453cbec8d1103e8ac36b0f43e5057cd61b59f1587534"),
    ("bounds --dim 2 --half-width 3 --norms file:{path}",
     "a834088f7bbef6857217e22dcef020dd83393f106658d247b41e7e72eba84be6"),
    ("simulate --dim 4 --half-width 5 --generator pm1 --steps 30000 --trials 8"
     " --format json --seed 2",
     "0fbfe06dd0a6b24008edda592c9247360d6ce0b10b39c15dcbf6e71516fd7c30"),
    ("simulate --dim 2 --half-width 3 --generator pm1 --steps 500 --trials 5000"
     " --format csv --seed 1",
     "ca9ed965eaae8664bd00a717569136bdc1c53e88bb22377cf74835040c986a2a"),
    ("simulate --dim 3 --half-width 4 --generator isotropic --steps 500 --trials 50"
     " --format json --seed 1",
     "fa923f7c35d84088dd890c8e7d4b66340d178605be851741f085a902c2aa2081"),
    ("simulate --dim 3 --half-width 16 --generator unit --steps 0 --trials 2000"
     " --format json --seed 1",
     "403a53d9181a607582a6e66653d29a6d30684268e999cd101b1a1304c64bcb7a"),
    ("simulate --dim 1 --half-width 8 --generator pm1 --steps 0 --trials 16"
     " --format json --seed 1",
     "9656ae2a523637d2e7233fc73249e578a8824f3f05b2712b98f1cb2b6a0db676"),
]


@pytest.mark.parametrize("line, digest", PINNED_RUN_LINES,
                         ids=[line for line, _ in PINNED_RUN_LINES])
def test_pinned_run_line_bytes(capsys, tmp_path, line, digest):
    assert line in report_diff.LINES + report_diff.FILE_LINES
    path = tmp_path / "steps.txt"
    path.write_text(report_diff.STEP_FILE)
    code, out, err = run_cli(capsys, *shlex.split(line.format(path=path)))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSimulate:
    @pytest.mark.parametrize("argv, digest", PINNED_REPORTS)
    def test_pinned_report_bytes(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "simulate", *argv, "--seed", "1", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_default_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--trials", "5", "--steps", "20", "--seed", "3"
        )
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "trial,discards"
        assert len([l for l in lines if l.startswith("mean,")]) == 1
        assert "containment_violations,0" in lines

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--trials", "4", "--steps", "10", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["per_trial_discards"]) == 4
        assert payload["containment_violations"] == 0

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--trials", "2", "--steps", "5", "--out", str(target),
        )
        assert code == 0
        assert target.read_text().startswith("trial,discards\n")
        assert "trial,discards" not in out

    def test_deterministic_stdout(self, capsys):
        argv = ["simulate", "--trials", "6", "--steps", "30", "--seed", "12"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"dim": 1, "half_width": 2.0, "steps": 40, "trials": 3, "seed": 9})
        )
        code, out, _ = run_cli(
            capsys,
            "simulate", "--config", str(config), "--trials", "5", "--format", "json",
        )
        assert code == 0
        assert len(json.loads(out)["per_trial_discards"]) == 5

    def test_config_half_widths_give_a_box_the_flags_make_a_cube(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        run = {"steps": 40, "trials": 3, "seed": 2, "format": "json"}
        config.write_text(json.dumps({**run, "half_widths": [1, 3]}))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 0
        assert [b["kind"] for b in json.loads(out)["bound_reports"]] == ["general_fisher"]
        library = ExperimentConfig(Box([1, 3]), StepGenerator("random_unit_sphere", 2), 40, 3, 2)
        assert out == emit_report(run_experiment(library), "json")
        cube = tmp_path / "cube.json"
        cube.write_text(json.dumps(run))
        for flag in (("--dim", "2"), ("--half-width", "2")):
            code, out, _ = run_cli(capsys, "simulate", "--config", str(config), *flag)
            assert code == 0
            assert "cube_l2" in out
            assert (code, out) == run_cli(capsys, "simulate", "--config", str(cube), *flag)[:2]

    def test_config_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"stepz": 10}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert err != ""

    @pytest.mark.parametrize(
        "raw, kind", [("5", "int"), ('[["steps", 5]]', "list"), ('["steps"]', "list")]
    )
    def test_config_must_be_an_object(self, capsys, tmp_path, raw, kind):
        # the first two raised an uncaught TypeError, the third a dict() message
        config = tmp_path / "run.json"
        config.write_text(raw)
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: config must be a JSON object, not {kind}\n"

    def test_unknown_density(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"density": "cube_eigen", "steps": 5, "trials": 2}))
        assert run_cli(capsys, "simulate", "--config", str(config))[0] == 0
        config.write_text(json.dumps({"density": "gaussian", "steps": 5, "trials": 2}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert "gaussian" in err

    def test_pm1_generator_short_walk(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--generator", "pm1", "--dim", "2",
            "--trials", "3", "--steps", "15", "--format", "json",
        )
        assert code == 0
        kinds = {b["kind"] for b in json.loads(out)["bound_reports"]}
        assert "cube_l2" in kinds

    def test_step_file_generator(self, capsys, tmp_path):
        steps = tmp_path / "steps.txt"
        steps.write_text("0.5 0.0\n0.0 0.5\n")
        code, out, _ = run_cli(
            capsys,
            "simulate", "--generator", f"file:{steps}", "--dim", "2",
            "--trials", "2", "--steps", "8", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["mean"] >= 0.0

    def test_step_file_csv_bytes(self, capsys, tmp_path):
        steps = tmp_path / "steps.txt"
        steps.write_text("0.5 -0.25\n-0.75 1\n")
        code, out, _ = run_cli(
            capsys,
            "simulate", "--generator", f"file:{steps}", "--dim", "2", "--half-width", "1.5",
            "--trials", "3", "--steps", "7", "--seed", "5", "--format", "csv",
        )
        assert code == 0
        assert out == (
            "trial,discards\n0,3\n1,4\n2,3\nmean,3.3333333333333335\n"
            "std_error,0.33333333333333337\ncontainment_violations,0\n"
            "bound,general_fisher,6.26859572733415,"
            '"n=7, d=2, fisher=closed_form, mean over 3 trials"\n'
            'bound,cube_l2,6.26859572733415,"n=7, T=1.5, mean over 3 trials"\n'
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_isotropic_generator_is_the_library_run(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "simulate", "--dim", "3", "--half-width", "4", "--generator", "isotropic",
            "--steps", "200", "--trials", "20", "--seed", "1", "--format", fmt,
        )
        assert (code, err) == (0, "")
        library = ExperimentConfig(Box.cube(3, 4.0), StepGenerator("isotropic_custom", 3),
                                   200, 20, 1)
        assert out == emit_report(run_experiment(library), fmt)

    def test_containment_violation_exits_2(self, capsys, monkeypatch):
        # a density that accepts every step lets the sums of +-1 steps leave 2K
        monkeypatch.setattr(harness, "cube_eigen_density", lambda box: liar_density(0.5))
        code, out, err = run_cli(
            capsys, "simulate", "--dim", "1", "--half-width", "0.5", "--generator", "pm1",
            "--steps", "50", "--trials", "3", "--seed", "2",
        )
        assert (code, out) == (2, "")
        assert err.startswith("containment violation: trial ")
        assert " left 2K at step " in err and err.endswith("\n")

    def test_huge_half_width_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--half-width", "1e308", "--steps", "3", "--trials", "2"
        )
        assert (code, out) == (2, "")
        assert err.endswith("error: half_widths too large: 2 T overflows\n")

    def test_huge_half_width_fails_before_the_kernel(self, capsys, monkeypatch):
        # the density is built before the filter runs, so no run is
        # wasted and no overflow warning precedes the error line
        runs = []
        monkeypatch.setattr(harness, "_cpus", lambda: 1)  # a child's calls are not seen here
        monkeypatch.setattr(harness, "_Walk", lambda *args: runs.append(args))
        code, out, err = run_cli(
            capsys, "simulate", "--half-width", "1e308", "--steps", "3", "--trials", "2"
        )
        assert (code, out, err) == (2, "", "error: half_widths too large: 2 T overflows\n")
        assert runs == []

    @pytest.mark.parametrize("generator", ["unit", "pm1"])
    def test_huge_half_width_fails_before_the_streams(self, capsys, monkeypatch, generator):
        # no trial slab's steps are built for a half-width the density rejects
        calls = []
        monkeypatch.setattr(harness, "_cpus", lambda: 1)  # a child's calls are not seen here
        monkeypatch.setattr(harness, "_slab_steps", lambda *args: calls.append(args))
        code, out, err = run_cli(capsys, "simulate", "--half-width", "1e308", "--steps", "3",
                                 "--trials", "2", "--generator", generator)
        assert (code, out, calls) == (2, "", [])
        assert err == "error: half_widths too large: 2 T overflows\n"

    def test_step_file_dimension_mismatch(self, capsys, tmp_path):
        steps = tmp_path / "steps.txt"
        steps.write_text("0.5 0.0\n")
        code, _, err = run_cli(
            capsys,
            "simulate", "--generator", f"file:{steps}", "--dim", "3",
            "--trials", "2", "--steps", "4",
        )
        assert code == 2
        assert err != ""

    def test_bad_generator_name(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--generator", "brownian")
        assert code == 2
        assert err != ""

    def test_missing_step_file(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--generator", "file:/nonexistent/steps.txt"
        )
        assert code == 2
        assert err != ""

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_config_rademacher_must_be_bool(self, capsys, tmp_path, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"rademacher": value, "steps": 5, "trials": 2}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("error: rademacher must be true or false")

    def test_config_rademacher_false_drops_signs(self, capsys, tmp_path):
        # pm1 steps without signs are always +e_1 in d = 1, so the walk only
        # climbs, and discards more than with fair signs
        config = tmp_path / "run.json"
        reports = {}
        for flag in (True, False):
            config.write_text(json.dumps(
                {"rademacher": flag, "generator": "pm1", "steps": 200, "trials": 20}
            ))
            code, out, _ = run_cli(capsys, "simulate", "--config", str(config), "--format", "json")
            assert code == 0
            reports[flag] = json.loads(out)["mean"]
        assert reports[False] > reports[True]

    @pytest.mark.parametrize(
        "key,value",
        [("trials", 2.9), ("trials", True), ("dim", True), ("dim", 1.5), ("steps", "10"),
         ("steps", False), ("seed", 0.5), ("seed", None), ("steps", float("inf"))],
    )
    def test_config_integers_must_be_integral(self, capsys, tmp_path, key, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"steps": 5, "trials": 2, key: value}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {key} must be an integer")

    def test_config_integral_floats_accepted(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"steps": 5.0, "trials": 3.0, "dim": 2.0, "seed": 4.0}))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config), "--format", "json")
        assert code == 0
        _, ints, _ = run_cli(
            capsys, "simulate", "--steps", "5", "--trials", "3", "--dim", "2", "--seed", "4",
            "--format", "json",
        )
        assert out == ints

    @pytest.mark.parametrize(
        "key,value",
        [("half_width", True), ("half_width", "2"), ("half_width", 10**400),
         ("half_widths", [True, 2]), ("half_widths", ["1", 2]), ("half_widths", 2.0),
         ("out", 5)],
    )
    def test_config_values_are_not_coerced(self, capsys, tmp_path, monkeypatch, key, value):
        monkeypatch.chdir(tmp_path)  # where "out": 5 coerced to a path would land
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"steps": 5, "trials": 2, key: value}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {key} must be")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    @pytest.mark.parametrize(
        "key,value,message",
        [("half_width", "abc", "half_width must be a finite number, not 'abc'"),
         ("dim", 7, "dim 7 does not match 2 half_widths")],
    )
    def test_config_keys_beside_half_widths_are_checked(
        self, capsys, tmp_path, key, value, message
    ):
        # both ran d = 2 and exited 0 once, the key unread
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"steps": 5, "trials": 2, "half_widths": [1, 2], key: value}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_config_dim_matching_half_widths_runs_and_flags_force_the_cube(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        run = {"steps": 5, "trials": 2, "format": "json"}
        config.write_text(json.dumps({**run, "half_widths": [1, 2]}))
        box = run_cli(capsys, "simulate", "--config", str(config))
        config.write_text(json.dumps({**run, "half_widths": [1, 2], "dim": 2}))
        assert run_cli(capsys, "simulate", "--config", str(config)) == box
        assert box[0] == 0 and "cube_l2" not in box[1]
        config.write_text(json.dumps({**run, "half_widths": [1, 2], "dim": 7}))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config), "--half-width", "2")
        assert code == 0
        cube = "--dim 7 --half-width 2 --steps 5 --trials 2 --format json".split()
        assert out == run_cli(capsys, "simulate", *cube)[1]

    def test_config_integer_half_widths_accepted(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        reports = []
        for widths in ({"half_width": 2}, {"half_widths": [2]}):
            config.write_text(json.dumps({"steps": 30, "trials": 3, **widths}))
            code, out, _ = run_cli(capsys, "simulate", "--config", str(config))
            assert code == 0
            reports.append(out)
        _, flag, _ = run_cli(capsys, "simulate", "--steps", "30", "--trials", "3", "--half-width", "2")
        assert reports == [flag, flag]

    def test_config_bad_format_rejected_before_run(self, capsys, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda config: runs.append(config))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"format": "xml", "steps": 5, "trials": 2}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out, runs) == (2, "", [])
        assert "xml" in err

    @pytest.mark.parametrize("generator", ["unit", "pm1"])
    def test_out_of_memory_exits_2(self, capsys, monkeypatch, generator):
        def too_big(body, gen, n, seeds):
            raise MemoryError("Unable to allocate 44.7 GiB for an array")

        monkeypatch.setattr(harness, "_slab_steps", too_big)
        code, out, err = run_cli(capsys, "simulate", "--dim", "3", "--steps", "1000000",
                                 "--trials", "2000", "--generator", generator)
        assert (code, out) == (2, "")
        assert err == "error: out of memory: Unable to allocate 44.7 GiB for an array\n"


class TestTrialShardFailures:
    # 2000 trials at d = 3 are three slabs, here over two processes; each
    # failure happens in the child's shard alone, and the parent reports it
    ARGV = ("simulate", "--dim", "3", "--steps", "20", "--trials", "2000")

    def fail_in_the_child(self, monkeypatch, failure):
        parent, draw = os.getpid(), harness._slab_steps

        def slab_steps(body, gen, n, seeds):
            if os.getpid() != parent:
                failure()
            return draw(body, gen, n, seeds)

        monkeypatch.setattr(harness, "_cpus", lambda: 2)
        monkeypatch.setattr(harness, "_slab_steps", slab_steps)

    def extend_the_childs_record(self, monkeypatch, *extra):
        parent, run_slab = os.getpid(), harness._run_slab

        def slab(config, density, trials):
            record = run_slab(config, density, trials)
            return record + extra if os.getpid() != parent else record

        monkeypatch.setattr(harness, "_cpus", lambda: 2)
        monkeypatch.setattr(harness, "_run_slab", slab)

    def test_value_error(self, capsys, monkeypatch):
        def failure():
            raise ValueError("steps have non-finite entries")

        self.fail_in_the_child(monkeypatch, failure)
        assert run_cli(capsys, *self.ARGV) == (2, "", "error: steps have non-finite entries\n")

    def test_memory_error(self, capsys, monkeypatch):
        def failure():
            raise MemoryError("Unable to allocate 44.7 GiB for an array")

        self.fail_in_the_child(monkeypatch, failure)
        assert run_cli(capsys, *self.ARGV) == (
            2, "", "error: out of memory: Unable to allocate 44.7 GiB for an array\n")

    @pytest.mark.parametrize("failure, how", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"signal {int(signal.SIGKILL)}"),
        (lambda: os._exit(3), "exit status 3"),
    ])
    def test_death_without_a_result(self, capsys, monkeypatch, failure, how):
        self.fail_in_the_child(monkeypatch, failure)
        assert run_cli(capsys, *self.ARGV) == (
            2, "", f"error: trial shard 1 ended without a result ({how})\n")

    def test_unpicklable_exception(self, capsys, monkeypatch):
        # the child cannot send its outcome, so it exits 1 with nothing sent
        def failure():
            raise ValueError("a lambda cannot be pickled", lambda: None)

        self.fail_in_the_child(monkeypatch, failure)
        assert run_cli(capsys, *self.ARGV) == (
            2, "", "error: trial shard 1 ended without a result (exit status 1)\n")

    def test_death_mid_record(self, capsys, monkeypatch):
        # the child's record ends with 4 MB of array data, already in the
        # pipe, and then an object that kills the child as it is pickled:
        # the parent unpickles part of a record and reports the signal
        class Killer:
            def __reduce__(self):
                os.kill(os.getpid(), signal.SIGKILL)

        self.extend_the_childs_record(monkeypatch, np.arange(1 << 19, dtype=float), Killer())
        assert run_cli(capsys, *self.ARGV) == (
            2, "", f"error: trial shard 1 ended without a result (signal {int(signal.SIGKILL)})\n")

    def test_death_mid_array(self, capsys, monkeypatch):
        # the child is killed while it waits to write the rest of an 8 MB
        # array into the full pipe, so its record stops inside the array
        class KillingPipe:  # the read end; pickle fills a large array with readinto
            def __init__(self, pid, pipe):
                self.pid, self.pipe = pid, pipe
                self.read, self.readline, self.close = pipe.read, pipe.readline, pipe.close

            def readinto(self, buffer):
                os.kill(self.pid, signal.SIGKILL)
                return self.pipe.readinto(buffer)

        fork = bodies._fork

        def killing_fork(fn, item):
            pid, pipe = fork(fn, item)
            return pid, KillingPipe(pid, pipe)

        self.extend_the_childs_record(monkeypatch, np.zeros(1 << 20))
        monkeypatch.setattr(bodies, "_fork", killing_fork)
        assert run_cli(capsys, *self.ARGV) == (
            2, "", f"error: trial shard 1 ended without a result (signal {int(signal.SIGKILL)})\n")


def test_cli_import_loads_no_process_pool():
    # trial shards are forked with os.fork and sent back by pickle, already
    # loaded; multiprocessing alone would add ~12 ms to every start, and
    # signal (1 ms) is imported only to kill a child a failed run left
    src = Path(harness.__file__).resolve().parent.parent
    code = ("import sys, driftguard.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent', 'signal')))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


class TestBounds:
    def test_four_kinds_for_integer_t(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--dim", "1", "--half-width", "4", "--steps", "100"
        )
        assert code == 0
        kinds = [entry["kind"] for entry in json_lines(out)]
        assert kinds == ["general_fisher", "cube_l2", "lower_1d"]

    def test_non_integer_t_skips_lower(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--dim", "1", "--half-width", "2.5", "--steps", "50"
        )
        assert code == 0
        kinds = [entry["kind"] for entry in json_lines(out)]
        assert kinds == ["general_fisher", "cube_l2"]

    def test_dim_zero_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--dim", "0", "--half-width", "2", "--steps", "3")
        assert (code, out) == (2, "")
        assert err == "error: dimension must be at least 1\n"

    def test_huge_half_width_exits_2(self, capsys):
        # it did while the bounds squared T; pi / (2 T) needs neither T**2 nor 2 T
        code, out, err = run_cli(
            capsys, "bounds", "--dim", "1", "--half-width", "1e308", "--steps", "3"
        )
        assert (code, err) == (0, "")
        values = [(e["kind"], e["value"]) for e in json_lines(out)]
        upper = 3.0 * ((0.5 * np.pi) / 1e308)
        assert values == [("general_fisher", upper), ("cube_l2", upper), ("lower_1d", -1e308)]

    @pytest.mark.parametrize(
        "half_width, steps, digest",
        [("1e308", "3", "n=3, T=1e+308"), ("8", "100000", "n=100000, T=8")],
    )
    def test_lower_1d_digest_writes_t_briefly(self, capsys, half_width, steps, digest):
        # the sim-long shape's digest keeps its integer T
        code, out, _ = run_cli(
            capsys, "bounds", "--dim", "1", "--half-width", half_width, "--steps", steps
        )
        last = json_lines(out)[-1]
        assert (code, last["kind"], last["inputs_digest"]) == (0, "lower_1d", digest)

    def test_lambda1_overflow_exits_2(self, capsys):
        # 4 T**2 overflows, but no report needs lambda1 any more
        code, out, err = run_cli(
            capsys, "bounds", "--dim", "1", "--half-width", "1e154", "--steps", "3"
        )
        assert (code, err) == (0, "")
        values = [(e["kind"], e["value"]) for e in json_lines(out)]
        upper = 3.0 * ((0.5 * np.pi) / 1e154)
        assert values == [("general_fisher", upper), ("cube_l2", upper), ("lower_1d", -1e154)]

    def test_negative_steps_names_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "bounds", "--dim", "1", "--half-width", "2", "--steps", "-3"
        )
        assert (code, out) == (2, "")
        assert "--steps" in err

    def test_negative_steps_message(self, capsys):
        code, out, err = run_cli(
            capsys, "bounds", "--dim", "1", "--half-width", "2", "--steps", "-1"
        )
        assert (code, out, err) == (2, "", "error: --steps must be at least 0\n")

    def test_values_match_closed_forms(self, capsys):
        _, out, _ = run_cli(
            capsys, "bounds", "--dim", "1", "--half-width", "2", "--steps", "100"
        )
        by_kind = {e["kind"]: e for e in json_lines(out)}
        assert by_kind["cube_l2"]["value"] == pytest.approx(np.pi * 100 / 4, rel=1e-12)
        assert by_kind["lower_1d"]["value"] == pytest.approx(18.0, abs=1e-12)

    def test_norms_from_file(self, capsys, tmp_path):
        steps = tmp_path / "steps.txt"
        steps.write_text("3.0 4.0\n1.0 0.0\n")
        code, out, _ = run_cli(
            capsys,
            "bounds", "--dim", "2", "--half-width", "2", "--norms", f"file:{steps}",
        )
        assert code == 0
        by_kind = {e["kind"]: e for e in json_lines(out)}
        assert by_kind["cube_l2"]["value"] == pytest.approx(np.pi * 6.0 / 4, rel=1e-12)

    def test_norms_need_the_file_prefix(self, capsys, tmp_path):
        steps = tmp_path / "steps.txt"
        steps.write_text("3.0 4.0\n")
        code, out, err = run_cli(
            capsys, "bounds", "--dim", "2", "--half-width", "2", "--norms", str(steps),
        )
        assert (code, out, err) == (2, "", "error: --norms expects file:<path>\n")

    # --steps was dropped in silence when --norms gave the steps, even --steps 0
    @pytest.mark.parametrize("steps", ["0", "1000"])
    def test_steps_with_norms_exits_2(self, capsys, tmp_path, steps):
        path = tmp_path / "steps.txt"
        path.write_text("3.0 4.0\n")
        code, out, err = run_cli(capsys, "bounds", "--dim", "2", "--half-width", "2",
                                 "--steps", steps, "--norms", f"file:{path}")
        assert (code, out) == (2, "")
        assert err == "error: --steps does not apply with --norms, whose file gives the steps\n"

    def test_no_steps_is_zero_steps(self, capsys):
        assert (run_cli(capsys, "bounds", "--dim", "1", "--half-width", "4")
                == run_cli(capsys, "bounds", "--dim", "1", "--half-width", "4", "--steps", "0"))

    def test_empty_norms_is_not_dropped(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--dim", "1", "--half-width", "4", "--norms=")
        assert (code, out, err) == (2, "", "error: --norms expects file:<path>\n")

    # --steps N is N rows of e_1, which the command no longer builds
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("n", [0, 1, 7, 9, 10**6])
    def test_lines_are_the_reports_fields(self, capsys, dim, n):
        code, out, _ = run_cli(capsys, "bounds", "--dim", str(dim), "--half-width", "4",
                               "--steps", str(n))
        steps = np.zeros((n, dim))
        steps[:, 0] = 1.0
        reports = matching_bounds(Box.cube(dim, 4.0), steps)
        assert len(reports) == (3 if dim == 1 else 2)
        assert (code, out) == (0, "".join(
            json.dumps(dataclasses.asdict(r), sort_keys=True) + "\n" for r in reports))

    def test_huge_step_count_is_its_closed_form(self, capsys):
        # 10**12 rows of e_1 took 7.3 TiB and exited 2 "out of memory"
        n = 10**12
        code, out, err = run_cli(capsys, "bounds", "--dim", "1", "--half-width", "4",
                                 "--steps", str(n))
        assert (code, err) == (0, "")
        values = [(e["kind"], e["value"]) for e in json_lines(out)]
        upper = ((0.5 * np.pi) / 4.0) * n
        assert values == [("general_fisher", upper), ("cube_l2", upper),
                          ("lower_1d", float(Fraction(n, 9) - 4))]

    def test_step_count_beyond_floats_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--dim", "1", "--half-width", "4",
                                 "--steps", str(10**400))
        assert (code, out, err) == (2, "", "error: --steps too large: the bounds overflow\n")

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("half_width", [2.0, 2.5])
    @pytest.mark.parametrize("rows", ["pm1", "tenth", "e1", "gauss"])
    def test_same_bounds_as_simulate(self, capsys, tmp_path, dim, half_width, rows):
        path = write_step_file(tmp_path, rows, dim)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "dim": dim, "half_width": half_width, "generator": f"file:{path}",
            "rademacher": False, "steps": _STEP_ROWS, "trials": 2, "format": "json",
        }))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 0
        simulated = json.loads(out)["bound_reports"]
        code, out, _ = run_cli(
            capsys, "bounds", "--dim", str(dim), "--half-width", str(half_width),
            "--norms", f"file:{path}",
        )
        assert code == 0
        printed = json_lines(out)
        assert [e["kind"] for e in printed] == [b["kind"] for b in simulated]
        for entry, report in zip(printed, simulated):
            assert entry["value"] == pytest.approx(report["value"], rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("half_width", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("rows", ["pm1", "tenth", "e1", "gauss"])
    def test_lower_bound_below_cube_bound(self, capsys, tmp_path, dim, half_width, rows):
        path = write_step_file(tmp_path, rows, dim)
        code, out, _ = run_cli(
            capsys, "bounds", "--dim", str(dim), "--half-width", str(half_width),
            "--norms", f"file:{path}",
        )
        assert code == 0
        by_kind = {e["kind"]: e["value"] for e in json_lines(out)}
        if "lower_1d" in by_kind:
            assert by_kind["lower_1d"] <= by_kind["cube_l2"]


class TestOracle:
    def test_single_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle", "--mode", "single", "--T", "1", "--n", "2", "--signs", "++",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kept_indices"] == [1]
        assert payload["discards"] == 1
        assert payload["longest_valid"] == 1
        assert payload["lex_minimal"] is True

    def test_single_mode_takes_no_signs(self, capsys):
        # an empty --signs is the valid 0-step string, not a missing flag
        code, out, err = run_cli(capsys, "oracle", "--mode", "single", "--T", "1", "--signs=")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["kept_indices"] == []
        assert (payload["discards"], payload["longest_valid"], payload["lex_minimal"]) == (0, 0, True)
        code, out, err = run_cli(capsys, "oracle", "--mode", "single", "--T", "1")
        assert (code, out, err) == (2, "", "error: --signs is required in single mode\n")

    def test_single_mode_with_start(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle", "--mode", "single", "--T", "1", "--n", "3",
            "--signs=--+", "--start=-1",
        )
        assert code == 0
        assert json.loads(out)["kept_indices"] == [3]

    def test_chain_mode_uniform_default(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--mode", "chain", "--T", "2", "--n", "1000",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["start"] == "uniform"
        assert payload["exact"] == "200/1"
        assert payload["expected_discards"] == pytest.approx(200.0, abs=1e-9)
        assert payload["lower_bound"] == pytest.approx(1000 / 5 - 2, abs=1e-12)

    def test_chain_mode_point_start(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--mode", "chain", "--T", "2", "--n", "1000", "--start", "0",
        )
        assert code == 0
        payload = json.loads(out)
        exact = exact_chain_expectation_fraction(2, 1000, 0)
        assert payload["exact"] == f"{exact.numerator}/{exact.denominator}"
        assert payload["expected_discards"] == pytest.approx(float(exact), abs=1e-9)

    @pytest.mark.parametrize("n, exact", [(14000, True), (15000, False), (20000, False)])
    def test_chain_mode_exact_is_null_beyond_the_int_string_limit(self, capsys, n, exact):
        # n = 15000 once exited 2 on CPython's default limit of 4300 digits
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run_cli(
                capsys, "oracle", "--mode", "chain", "--T", "4", "--n", str(n), "--start", "0",
            )
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        fraction = exact_chain_expectation_fraction(4, n, 0)
        assert payload["expected_discards"] == float(fraction)
        if exact:
            assert payload["exact"] == f"{fraction.numerator}/{fraction.denominator}"
        else:
            assert payload["exact"] is None

    def test_chain_mode_large_width_is_float_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--mode", "chain", "--T", "40", "--n", "100",
        )
        assert code == 0
        payload = json.loads(out)
        assert "exact" not in payload
        assert payload["expected_discards"] > 0.0

    def test_chain_mode_large_width_point_start_matches_step_loop(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--mode", "chain", "--T", "40", "--n", "1000", "--start", "0",
        )
        assert code == 0
        expected = chain_expectation_loop(np.eye(81)[40], 1000)
        assert json.loads(out)["expected_discards"] == pytest.approx(expected, rel=1e-12)

    def test_exhaustive_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--mode", "exhaustive", "--T", "1", "--n", "4",
        )
        assert code == 0
        summary = json_lines(out)[-1]
        assert summary["failures"] == 0
        assert summary["instances"] == 16 * 3

    def test_exhaustive_reports_each_counterexample(self, capsys, monkeypatch):
        # the oracle finds none, so a walk that keeps nothing of "+-" from 1 stands in
        walks = oracle1d._reflected_walks
        monkeypatch.setattr(oracle1d, "_reflected_walks", lambda signs, t, s: walks(signs, t, s)
                            & ~((signs == (1, -1)).all(axis=1, keepdims=True) & (s == 1)))
        code, out, err = run_cli(capsys, "oracle", "--mode", "exhaustive", "--T", "1", "--n", "2")
        assert (code, err) == (2, "")
        assert out == (
            '{"T": 1, "mode": "exhaustive", "ok": false, "signs": "+-", "start": 1}\n'
            '{"T": 1, "failures": 1, "instances": 12, "mode": "exhaustive", "n": 2}\n'
        )

    def test_exhaustive_negative_t_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--mode", "exhaustive", "--T", "-1", "--n", "3")
        assert (code, out) == (2, "")
        assert err == "error: half_width must be at least 0\n"

    def test_exhaustive_negative_n_names_flag(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--mode", "exhaustive", "--T", "1", "--n", "-1")
        assert (code, out) == (2, "")
        assert "--n" in err

    # --signs was dropped in silence outside single mode, even an empty one
    @pytest.mark.parametrize("mode", ["chain", "exhaustive"])
    @pytest.mark.parametrize("signs", ["++-", ""])
    def test_signs_outside_single_mode_exits_2(self, capsys, mode, signs):
        code, out, err = run_cli(capsys, "oracle", "--mode", mode, "--T", "2", "--n", "3",
                                 f"--signs={signs}")
        assert (code, out) == (2, "")
        assert err == f"error: --signs does not apply with --mode {mode}, only with single\n"

    def test_signs_length_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys,
            "oracle", "--mode", "single", "--T", "1", "--n", "5", "--signs", "++",
        )
        assert code == 2
        assert err != ""


class TestFisher:
    def test_closed(self, capsys):
        code, out, _ = run_cli(
            capsys, "fisher", "--dim", "2", "--half-width", "2", "--method", "closed",
        )
        assert code == 0
        payload = json.loads(out)
        entries = np.array(payload["entries"])
        assert entries == pytest.approx(np.eye(2) * np.pi**2 / 4, abs=1e-12)
        assert payload["trace"] == pytest.approx(payload["four_lambda1"], abs=1e-12)
        assert payload["operator_norm"] == pytest.approx(np.pi**2 / 4, abs=1e-10)

    def test_closed_tiny_half_width_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "fisher", "--dim", "1", "--half-width", "1e-200", "--method", "closed",
        )
        assert code == 2
        assert out == ""
        assert "too small" in err

    def test_closed_huge_half_width_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "fisher", "--dim", "1", "--half-width", "1e200", "--method", "closed",
        )
        assert (code, out) == (2, "")
        assert err == "error: half_width too large: T**2 overflows\n"

    def test_closed_lambda1_overflow_exits_2(self, capsys):
        # four_lambda1 printed 0.0 beside a trace of 9.87e-308
        code, out, err = run_cli(
            capsys, "fisher", "--dim", "1", "--half-width", "1e154", "--method", "closed",
        )
        assert (code, out, err) == (2, "", "error: half_width too large: 4 T**2 overflows\n")

    def test_quadrature_non_finite_exits_2(self, capsys):
        # scaling the scores back to 1 / T**2 would leave zero entries
        code, out, err = run_cli(
            capsys,
            "fisher", "--dim", "2", "--half-width", "1e200",
            "--method", "quadrature", "--nodes", "16",
        )
        assert (code, out) == (2, "")
        assert err.endswith("error: half_width too large: Fisher entries underflow\n")

    def test_quadrature_small_cube_exits_0(self, capsys):
        # entries ~4e5, whose last digits once failed the symmetry check
        code, out, err = run_cli(
            capsys, "fisher", "--dim", "2", "--half-width", "0.005", "--method", "quadrature",
        )
        assert (code, err) == (0, "")
        assert np.array(json.loads(out)["entries"]) == pytest.approx(
            np.eye(2) * np.pi**2 / 0.005**2, rel=1e-12, abs=1e-6
        )

    @pytest.mark.parametrize("half_width", ["1e-160", "1e-170", "1e-200"])
    @pytest.mark.parametrize("dim", ["2", "3"])
    def test_quadrature_tiny_half_width_prints_only_the_error(self, capsys, dim, half_width):
        # the density's exp overflows here, which must not warn before the error
        code, out, err = run_cli(
            capsys,
            "fisher", "--dim", dim, "--half-width", half_width,
            "--method", "quadrature", "--nodes", "16",
        )
        assert (code, out, err) == (2, "", "error: entries and std_error must be finite\n")

    def test_quadrature(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fisher", "--dim", "1", "--half-width", "1",
            "--method", "quadrature", "--nodes", "128",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"][0][0] == pytest.approx(np.pi**2, abs=1e-6)

    def test_mc(self, capsys):
        # the diagonal's standard error is no error bar, so it prints null
        # and its entries are held to fisher_diagonal_band (high fails ~0.1%
        # of seeds an entry); the off-diagonal prints its standard error
        code, out, _ = run_cli(
            capsys,
            "fisher", "--dim", "2", "--half-width", "1",
            "--method", "mc", "--samples", "20000", "--seed", "4",
        )
        assert code == 0
        payload = json.loads(out)
        (none, se), (se_again, none_again) = payload["std_error"]
        assert none is None and none_again is None and se == se_again > 0.0
        low, high = fisher_diagonal_band(20000, 1e-3)
        for i in range(2):
            assert low * np.pi**2 <= payload["entries"][i][i] <= high * np.pi**2
        assert abs(payload["entries"][0][1]) <= 4 * se

    def test_mc_deterministic(self, capsys):
        argv = [
            "fisher", "--dim", "1", "--half-width", "1",
            "--method", "mc", "--samples", "5000", "--seed", "8",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
