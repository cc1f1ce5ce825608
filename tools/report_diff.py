"""Compare the CLI's outputs at a git revision with the working tree's.

    python3 tools/report_diff.py --before <rev>

The before side is ``git archive <rev>`` unpacked into a temporary directory
(``bench_pairs.unpack``); the after side is this checkout's working tree.
Each line of ``LINES``, and of ``FILE_LINES`` on a step file written to
the temporary directory, runs as ``python -m driftguard.cli`` on both sides,
with that side's ``src`` on PYTHONPATH, one process at a time.  A line is
``same`` when its exit code, stdout and stderr bytes match on both sides and
``differs`` otherwise; the script prints one of them per line and exits 1 if
any line differs.

Then ``PINNED`` (the four ``SHAPES`` at seed 1, json, and a Monte Carlo
Fisher of 8 chunks) runs on the working tree twice more, on every CPU this
process may use and pinned to one of them (``os.sched_setaffinity`` in the
child), which checks through the CLI that trials and Monte Carlo chunks
split over forked shards give the bytes of one process.  Each
line prints ``same`` or ``differs`` in the same way; a process allowed one
CPU prints a note and skips this pass.
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
    # the exact chain at its last rational band, from a point, the uniform
    # default and an edge
    "oracle --mode chain --T 32 --n 10000 --start 0",
    "oracle --mode chain --T 32 --n 3000",
    "oracle --mode chain --T 31 --n 5000 --start -31",
    "oracle --mode chain --T 1000 --n 100000 --start 0",
    "oracle --mode exhaustive --T 2 --n 8",
    # T = 0 keeps no step; T = 3 from its edge runs a wider band from one
    # start; n = 14 is the last n exhaustive takes, and at T = 20 its 41
    # starts share one table built in 163 slabs of strings; at T = 6 all 13
    # starts share one DP table, and at T = 2**70 the start and 0 reach
    # disjoint heights, so each gets its own
    "oracle --mode exhaustive --T 0 --n 10",
    "oracle --mode exhaustive --T 3 --n 12 --start -3",
    "oracle --mode exhaustive --T 2 --n 14",
    "oracle --mode exhaustive --T 20 --n 14",
    "oracle --mode exhaustive --T 6 --n 12",
    f"oracle --mode exhaustive --T {2**70} --n 10 --start {2**70}",
    "oracle --mode single --T 1 --n 4 --signs=+--+",
    # the last n with lex_minimal (14) and with longest_valid (30)
    "oracle --mode single --T 2 --start -1 --signs=++-+--++++-+-+",
    "oracle --mode single --T 3 --start 2 --signs=+-++-+++--+-+++--+-++++--+-+-+",
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
    # the largest seed whose trial seeds are hashed a slab at a time, and two
    # past it, whose trials take SeedSequences
    *(f"simulate --dim 3 --half-width 16 --generator unit --steps 200 --trials 700"
      f" --format json --seed {seed}" for seed in (2**32 - 1, 2**32, 2**64)),
    # pm1 walks at d > 1 whose n spans several chunks of streamed steps and
    # coins: 20 trials in lockstep (7 chunks), 8 pre-fetching (5 chunks)
    "simulate --dim 8 --half-width 5 --generator pm1 --steps 30000 --trials 20"
    " --format json --seed 1",
    "simulate --dim 4 --half-width 5 --generator pm1 --steps 30000 --trials 8"
    " --format json --seed 2",
    # pre-fetching rounds whose windows are mostly accepted (T = 64), and
    # rounds that accept few steps (unit steps on T = 2)
    "simulate --dim 1 --half-width 64 --generator pm1 --steps 100000 --trials 16"
    " --format json --seed 1",
    "simulate --dim 4 --half-width 2 --generator unit --steps 50000 --trials 8"
    " --format json --seed 1",
    # n = 0 through the one slab path: three unit slabs, and one pm1 slab
    # whose empty bound row still attaches lower_1d
    "simulate --dim 3 --half-width 16 --generator unit --steps 0 --trials 2000"
    " --format json --seed 1",
    "simulate --dim 1 --half-width 8 --generator pm1 --steps 0 --trials 16"
    " --format json --seed 1",
)
# the Monte Carlo Fisher's 8 chunks split over forked shards as the trials do
PINNED = tuple(f"simulate {shape} --format json --seed 1" for shape in SHAPES) + (
    "fisher --dim 2 --half-width 2 --method mc --samples 1000000 --seed 3",
)
# a step file (fixed_list, the other sign-only kind) of unequal row norms
# with a zero row: main writes it once, and both sides read it by the same
# path, in one slab over several chunks, and in three slabs of 1024 trials,
# each given its unsigned row's sum, whose mean over all trials is reported
STEP_FILE = "0.5 -0.25\n0 0\n1.5 0.75\n-0.125 1\n0.25 0.5\n"
FILE_LINES = tuple(
    f"simulate --dim 2 --half-width 3 --generator file:{{path}} {shape} --format json --seed 1"
    for shape in ("--steps 20000 --trials 30", "--steps 300 --trials 3000")
)


def run_line(tree: Path, line: str, cpu=None) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``driftguard <line>`` run from ``tree``,
    on CPU ``cpu`` alone when it is given."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    pin = None if cpu is None else lambda: os.sched_setaffinity(0, {cpu})
    proc = subprocess.run([sys.executable, "-m", "driftguard.cli", *line.split()],
                          cwd=tree, env=env, capture_output=True, preexec_fn=pin)
    return proc.returncode, proc.stdout, proc.stderr


def compare(before: Path, after: Path, lines) -> list[bool]:
    """Whether each line gives the same outputs on both trees, printed as it goes."""
    verdicts = []
    for line in lines:
        verdicts.append(run_line(before, line) == run_line(after, line))
        print(f"{'same' if verdicts[-1] else 'differs'}  {line}", flush=True)
    return verdicts


def compare_one_cpu(tree: Path, lines) -> list[bool]:
    """Whether each line gives the same outputs on all of this process's
    CPUs as pinned to one, printed as it goes; none with one CPU."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) == 1:
        print("note: this process may use one CPU, so the one-CPU pass is skipped", flush=True)
        return []
    verdicts = []
    for line in lines:
        verdicts.append(run_line(tree, line) == run_line(tree, line, cpu=min(cpus)))
        print(f"{'same' if verdicts[-1] else 'differs'}  one CPU: {line}", flush=True)
    return verdicts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--before", required=True, help="git revision of the before side")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        steps = Path(tmp) / "steps.txt"
        steps.write_text(STEP_FILE)
        lines = LINES + tuple(line.format(path=steps) for line in FILE_LINES)
        verdicts = compare(unpack(args.before, Path(tmp) / "before"), ROOT, lines)
    verdicts += compare_one_cpu(ROOT, PINNED)
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
