import importlib.util
import os
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
_SPEC = importlib.util.spec_from_file_location("report_diff", _PATH)
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)


def test_a_changed_output_differs(tmp_path, capsys):
    # a tree whose CLI prints something else, against this checkout
    package = tmp_path / "src" / "driftguard"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text('print("not a bound")\n')
    line = "bounds --dim 1 --half-width 4 --steps 10"
    assert report_diff.compare(report_diff.ROOT, report_diff.ROOT, [line]) == [True]
    assert report_diff.compare(report_diff.ROOT, tmp_path, [line]) == [False]
    assert capsys.readouterr().out.splitlines() == [f"same  {line}", f"differs  {line}"]




def test_one_cpu_pass(tmp_path, capsys, monkeypatch):
    # three slabs at d = 3, split over the CPUs, give one process's bytes;
    # a tree whose CLI prints random bytes differs.  A CPU past this
    # process's own joins its set, so the pass runs on one CPU too, and
    # pins to the lowest real CPU
    cpus = os.sched_getaffinity(0)
    monkeypatch.setattr(report_diff.os, "sched_getaffinity", lambda pid: cpus | {max(cpus) + 1})
    package = tmp_path / "src" / "driftguard"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("import os\nprint(os.urandom(8).hex())\n")
    line = "simulate --dim 3 --generator unit --steps 20 --trials 2000 --format json --seed 1"
    assert report_diff.compare_one_cpu(report_diff.ROOT, [line]) == [True]
    assert report_diff.compare_one_cpu(tmp_path, [line]) == [False]
    assert capsys.readouterr().out.splitlines() == [f"same  one CPU: {line}",
                                                    f"differs  one CPU: {line}"]


def test_one_cpu_pass_is_skipped_on_one_cpu(capsys, monkeypatch):
    monkeypatch.setattr(report_diff.os, "sched_getaffinity", lambda pid: {3})
    assert report_diff.compare_one_cpu(report_diff.ROOT, report_diff.PINNED) == []
    assert capsys.readouterr().out.startswith("note: ")
