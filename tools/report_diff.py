"""Compare the CLI's outputs at a git revision with the working tree's.

    python3 tools/report_diff.py --before <rev>

The before side is ``git archive <rev>`` unpacked into a temporary directory
(``bench_pairs.unpack``); the after side is this checkout's working tree.
Each line of ``LINES`` runs as ``python -m driftguard.cli`` on both sides,
with that side's ``src`` on PYTHONPATH, one process at a time.  A line is
``same`` when its exit code, stdout and stderr bytes match on both sides and
``differs`` otherwise; the script prints one of them per line and exits 1 if
any line differs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, unpack  # noqa: E402

# simulate at the benchmark's sim-wide and sim-long shapes, a high-d unit
# run (4 trials a slab) and a wide pm1 run, in both formats and three seeds
SHAPES = (
    "--dim 3 --half-width 16 --generator unit --steps 1000 --trials 2000",
    "--dim 1 --half-width 8 --generator pm1 --steps 100000 --trials 16",
    "--dim 24 --generator unit --steps 3000 --trials 300",
    "--dim 2 --half-width 3 --generator pm1 --steps 500 --trials 5000",
)
LINES = tuple(
    f"simulate {shape} --format {fmt} --seed {seed}"
    for shape in SHAPES
    for fmt in ("json", "csv")
    for seed in (1, 2, 3)
) + (
    "bounds --dim 1 --half-width 4 --steps 10000",
    "bounds --dim 3 --half-width 16 --steps 1000",
    "oracle --mode chain --T 2 --n 1000 --start 0",
    "oracle --mode chain --T 1000 --n 100000 --start 0",
    "oracle --mode exhaustive --T 2 --n 8",
    "oracle --mode single --T 1 --n 4 --signs=+--+",
    "oracle --mode single --T 1000000 --n 2 --signs=++",
    "oracle --mode chain --T 1000000 --n 10 --start 0",
    "simulate --dim 3 --half-width 4 --generator isotropic --steps 500 --trials 50"
    " --format json --seed 1",
    # two trials at d = 64 take the pre-fetching body, whose windows are
    # where log_density's sums over 8 or more axes decide
    "simulate --dim 64 --half-width 16 --generator pm1 --steps 4000 --trials 2"
    " --format json --seed 1",
    # unit steps on both sides of d = 8, where per-step norms switch from
    # whole-column sums to np.linalg.norm
    *(f"simulate --dim {d} --half-width 4 --generator unit --steps 500 --trials 300"
      " --format json --seed 1" for d in (7, 8)),
    "fisher --dim 2 --half-width 2 --method closed",
    "fisher --dim 2 --half-width 2 --method quadrature --nodes 128",
    "fisher --dim 3 --half-width 16 --method quadrature --nodes 128",
    "fisher --dim 8 --half-width 3 --method quadrature --nodes 128",
    "fisher --dim 2 --half-width 2 --method mc --samples 1000000 --seed 3",
)


def run_line(tree: Path, line: str) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``driftguard <line>`` run from ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "driftguard.cli", *line.split()],
                          cwd=tree, env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def compare(before: Path, after: Path, lines) -> list[bool]:
    """Whether each line gives the same outputs on both trees, printed as it goes."""
    verdicts = []
    for line in lines:
        verdicts.append(run_line(before, line) == run_line(after, line))
        print(f"{'same' if verdicts[-1] else 'differs'}  {line}", flush=True)
    return verdicts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--before", required=True, help="git revision of the before side")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        verdicts = compare(unpack(args.before, Path(tmp)), ROOT, LINES)
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
