import importlib.util
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

