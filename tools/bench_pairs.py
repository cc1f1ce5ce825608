"""Regenerate a BENCH_*.json file: the benchmark run in alternating pairs.

    python3 tools/bench_pairs.py --before <rev> --workload oracles --seed 7 \\
        --pairs 10 --seconds 30 --topic "..." --out BENCH_x.json

The "before" side is ``git archive <rev>`` unpacked into a temporary
directory; the "after" side is this checkout's working tree.  Pair i runs
``bench/run.py --trace 0`` once on each side, the before side first in even
pairs and the after side first in odd ones, so neither side always runs
second on a warm machine.  Every end-to-end metric BENCHMARK.json names is
summarised per side as median and quartiles, with the runs and the number
of pairs in which the after side was better.  With ``--merge`` the runs are
added to those already in ``--out``, so one file can hold workloads run
with different seeds or pair counts.  Nothing is imported from ``bench/``:
it is run as a program and read from its last line of output.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(before: list[float], after: list[float], better: str) -> dict:
    """Median and quartiles of each side, and the pairs the after side won.

    ``before[i]`` and ``after[i]`` are pair i; ``better`` is "lower" or
    "higher".  Quartiles are the inclusive ones (linear between order
    statistics), rounded like the medians to 4 decimals.
    """
    if len(before) != len(after) or not before:
        raise ValueError("need the same positive number of runs on each side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower or higher, not {better!r}")

    def spread(runs):
        stats = {"median": round(statistics.median(runs), 4)}
        if len(runs) > 1:
            q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
            stats.update(q1=round(q1, 4), q3=round(q3, 4))
        return stats

    sign = 1.0 if better == "lower" else -1.0
    return {
        "before": spread(before),
        "after": spread(after),
        "after_better_pairs": sum(sign * (a - b) < 0.0 for b, a in zip(before, after)),
        "runs_before": [round(x, 6) for x in before],
        "runs_after": [round(x, 6) for x in after],
    }


def unpack(rev: str, into: Path) -> Path:
    """The files of ``rev``, as ``git archive`` gives them, under ``into``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` run in ``tree``: its last output line."""
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(before: Path, after: Path, args, metrics: dict) -> dict:
    """Alternating pairs of one workload, summarised per metric."""
    runs = {"before": [], "after": []}
    for i in range(args.pairs):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for side in order:
            tree = before if side == "before" else after
            runs[side].append(run_once(tree, args.workload, args.seed, args.seconds))
            print(f"pair {i} {side}: {runs[side][-1]['metrics']}", file=sys.stderr, flush=True)
    entry = {}
    for name, spec in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        entry[name] = {"unit": spec["unit"], **summarize(values["before"], values["after"],
                                                          spec["better"])}
    entry["ops"] = {
        "before": sum(r["attempted"] for r in runs["before"]),
        "after": sum(r["attempted"] for r in runs["after"]),
        "failed": sum(r["failed"] for r in runs["before"] + runs["after"]),
    }
    return entry


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--before", required=True, help="git revision of the before side")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--topic", default="")
    p.add_argument("--out", required=True, help="BENCH_*.json path to write")
    p.add_argument("--merge", action="store_true", help="add to the runs already in --out")
    args = p.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        p.error("--pairs must be at least 1 and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    out = Path(args.out)
    record = json.loads(out.read_text()) if args.merge and out.exists() else {}
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.before],
                         check=True, capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        entry = run_pairs(unpack(args.before, Path(tmp)), ROOT, args, metrics)
    record.setdefault("topic", args.topic)
    record.update(
        command="python3 bench/run.py --workload <w> --seed <S> --seconds "
        f"{args.seconds:g} --trace 0",
        nproc=len(os.sched_getaffinity(0)),
        before=f"commit {rev}",
        after="working tree",
    )
    key = f"{args.workload}, seed {args.seed}, {args.pairs} pairs alternating which side ran first"
    record.setdefault("runs", {})[key] = entry
    record["fail_ratio"] = max(
        (e["ops"]["failed"] / (e["ops"]["before"] + e["ops"]["after"]))
        for e in record["runs"].values()
    )
    out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
