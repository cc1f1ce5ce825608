"""Run one driftguard benchmark workload and print its metrics.

    python3 bench/run.py --workload sim-wide --seed 1 --seconds 30 --trace 0

Workloads are ``sim-wide``, ``sim-long`` and ``oracles`` (see NOTES.md).
The load is a closed loop from one process: one client, and each operation
starts only after the previous one has finished and been checked.  The loop
runs for ``--seconds`` (at least three operations).  Operation i gets its
inputs from ``SeedSequence((seed, i))``, so a seed fixes every input.

With ``--trace 0`` the run reports the end-to-end metrics, with times
scaled by the machine speed a reference kernel shows (``SpeedReference``).
With ``--trace 1`` it runs each operation both untraced and composed from
its layer calls under spans, and reports the per-layer metrics and the
tracing overhead, and writes the spans to ``bench/out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The driftguard package is imported from ``src/`` next to
this directory, never from anywhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Cap BLAS threads at the cores this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
MIN_OPS = 3
SETUP_SAMPLES = 5
# machine-speed reference: an interpreter loop of REF_LOOP iterations, then
# REF_PASSES sine passes over REF_LEN floats
REF_LOOP = 1_000_000
REF_LEN = 1_000_000
REF_PASSES = 6
REF_NOMINAL_S = 0.15

# per-layer timing metric -> the span it is the per-op self time of
LAYER_TIMES = {
    "harness.trial_streams.s": "harness.trial_streams",
    "harness.matching_bounds.s": "harness.matching_bounds",
    "harness.emit_report.s": "harness.emit_report",
    "metropolis.run_ensemble.s": "metropolis.run_ensemble",
    "metropolis.filter_run.s": "metropolis.filter_run",
    "metropolis.rejection_rate_exact_1d.s": "metropolis.rejection_rate_exact_1d",
    "bodies.sample.origins_s": "bodies.sample.origins",
    "bodies.sample.batch_s": "bodies.sample.batch",
    "bodies.fisher_monte_carlo.s": "bodies.fisher_monte_carlo",
    "bodies.fisher_quadrature.s": "bodies.fisher_quadrature",
    "bodies.fisher_operator_norm.s": "bodies.fisher_operator_norm",
    "bounds.upper_bound_general.s": "bounds.upper_bound_general",
    "bounds.upper_bound_cube.s": "bounds.upper_bound_cube",
    "oracle1d.chain_fraction.s": "oracle1d.chain_fraction",
    "oracle1d.chain_float.s": "oracle1d.chain_float",
    "oracle1d.exhaustive.s": "oracle1d.exhaustive",
}
# exact counts, taken from operation 0 so they repeat for a fixed seed
LAYER_COUNTS = {
    "harness.trial_streams.bytes": "bytes",
    "harness.emit_report.bytes": "bytes",
    "metropolis.steps_proposed": "count",
    "metropolis.accept_ratio": "ratio",
    "metropolis.headroom": "ratio",
    "oracle1d.exhaustive.instances": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every input (self-test)")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def op_seed(seed: int, i: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence((seed, i)).generate_state(1)[0])


class SpeedReference:
    """Times a fixed kernel, independent of driftguard, between
    measurements, and scales each measurement by the machine speed it shows.

    On a shared machine the same op drifts by up to 2x over tens of
    seconds, and CPU time drifts with it, so a run's raw median mostly
    reports when it ran.  The kernel mixes interpreter work and a numpy
    pass over an array larger than L2, as the ops do, and drifts with
    them (NOTES.md has the measurements).  A measurement taken
    between two kernel timings is scaled by REF_NOMINAL_S over their mean,
    i.e. to seconds on a machine where the kernel takes REF_NOMINAL_S.
    The two arrays add 16 MB to the process's peak RSS.
    """

    def __init__(self) -> None:
        import numpy as np

        self._sin = np.sin
        self._x = np.random.default_rng(0).standard_normal(REF_LEN)
        self._out = np.empty_like(self._x)
        self.times = [self._time()]

    def _time(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for k in range(REF_LOOP):
            total += k
        for _ in range(REF_PASSES):
            self._sin(self._x, out=self._out)
        return time.perf_counter() - t0

    def scale(self, seconds: float) -> float:
        """``seconds``, measured since the last kernel timing, scaled."""
        self.times.append(self._time())
        return seconds * REF_NOMINAL_S / (0.5 * (self.times[-2] + self.times[-1]))


def set_up(args):
    """Import driftguard from src/ and build the workload and op 0's inputs."""
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(BENCH_DIR))
    import driftguard

    if Path(driftguard.__file__).resolve().parent != SRC_DIR / "driftguard":
        raise RuntimeError(f"driftguard was imported from {driftguard.__file__}, not {SRC_DIR}")
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, OUT_DIR, args.tiny)
    return workload, workload.inputs(op_seed(args.seed, 0))


def measure_setup(args, samples: int, speed: SpeedReference) -> list[float]:
    """Scaled seconds from spawning a fresh process to its set-up being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        times.append(speed.scale(elapsed))
    return times


def machine_record() -> dict:
    import numpy as np

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": NPROC,
        "blas_thread_vars": list(BLAS_THREAD_VARS),
    }


def closed_loop(workload, first_inputs, args, speed):
    """Run ops back to back for ``args.seconds``; returns the loop's record."""
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    rec = {"walls": [], "scaled": [], "traced_walls": [], "failed": 0, "attempted": 0,
           "counts": None, "speed": speed}
    started = time.perf_counter()
    i = 0
    while i < MIN_OPS or time.perf_counter() - started < args.seconds:
        x = first_inputs if i == 0 else workload.inputs(op_seed(args.seed, i))
        try:
            problems = (traced_op if args.trace else plain_op)(workload, x, i, tracer, rec)
        except Exception:  # an op that raises is a failed op; keep measuring
            problems = [traceback.format_exc()]
        rec["attempted"] += 1
        if problems:
            rec["failed"] += 1
            print(f"op {i} failed:\n  " + "\n  ".join(problems), file=sys.stderr)
        i += 1
    rec["tracer"] = tracer
    return rec


def plain_op(workload, x, i, tracer, rec) -> list[str]:
    t0 = time.perf_counter()
    out = workload.run(x)
    wall = time.perf_counter() - t0
    rec["walls"].append(wall)
    rec["scaled"].append(rec["speed"].scale(wall))
    return workload.check(x, out)


def traced_op(workload, x, i, tracer, rec) -> list[str]:
    """The op untraced and composed under spans; odd ops run the composed
    form first, so neither side always runs on a warm cache."""

    def composed():
        tracer.op = i
        result = workload.traced(x, tracer)
        root = next(s for s in reversed(tracer.spans) if s["name"] == "op")
        rec["traced_walls"].append(root["end"] - root["start"])
        return result

    if i % 2:
        traced_out, counts, problems = composed()
    t0 = time.perf_counter()
    out = workload.run(x)
    rec["walls"].append(time.perf_counter() - t0)
    if not i % 2:
        traced_out, counts, problems = composed()
    if i == 0:
        rec["counts"] = counts
    return problems + workload.check(x, out) + workload.compare(x, out, traced_out)


def tail_percentile(values):
    """(pct, value) of the highest percentile with >= 10 samples above it,
    or None while that percentile would sit below the median."""
    n = len(values)
    k = n - 10
    if k < (n + 1) // 2:
        return None
    return 100.0 * k / n, sorted(values)[k - 1]


def end_to_end(workload, rec, setup_times):
    scaled = rec["scaled"]
    wall = statistics.median(scaled)
    tail = tail_percentile(scaled)
    tail_text = f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "no tail percentile below 20 samples"
    fail_ratio = rec["failed"] / rec["attempted"]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (wall, "s", f"median of {len(scaled)} ops, speed-scaled; {tail_text}"),
        "steps_per_s": (workload.work / wall, "steps/s", f"{workload.work} steps per op / wall_s"),
        "peak_rss_mb": (rss, "MiB", "ru_maxrss of this process"),
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} fresh processes, spawn to ready, speed-scaled"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    ref = rec["speed"].times
    print(f"unscaled: wall_s median {statistics.median(rec['walls']):.6g} s; reference kernel "
          f"median {statistics.median(ref):.6g} s over {len(ref)} timings "
          f"(min {min(ref):.4g}, max {max(ref):.4g}; nominal {REF_NOMINAL_S} s)")
    print(f"fail_ratio = {fail_ratio:.6g} ({rec['failed']} failed of {rec['attempted']} attempted)")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def per_layer(rec):
    self_times = rec["tracer"].self_times()
    ops = sorted(op for op in self_times if op is not None)
    metrics = {}
    for name, span in LAYER_TIMES.items():
        value = statistics.median(self_times[op].get(span, 0.0) for op in ops)
        metrics[name] = {"value": value, "unit": "s"}
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = {"value": (rec["counts"] or {}).get(name, 0), "unit": unit}
    overhead = statistics.median(rec["traced_walls"]) - statistics.median(rec["walls"])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"traced op wall {statistics.median(rec['traced_walls']):.6g} s, "
          f"untraced {statistics.median(rec['walls']):.6g} s, "
          f"over {len(rec['walls'])} ops; counts are from op 0")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "driftguard" / "__init__.py").is_file():
        print(f"error: no driftguard package under {SRC_DIR}", file=sys.stderr)
        return 2
    if args.probe_setup:
        set_up(args)
        print("ready", flush=True)
        return 0
    speed = SpeedReference()
    samples = 1 if args.tiny else SETUP_SAMPLES
    setup_times = [] if args.trace else measure_setup(args, samples, speed)
    workload, first_inputs = set_up(args)
    machine = machine_record()
    print("machine: " + json.dumps(machine, sort_keys=True))
    try:
        rec = closed_loop(workload, first_inputs, args, speed)
    finally:
        workload.close()
    print(f"load: closed loop, 1 client, {rec['attempted']} ops, workload {args.workload}, "
          f"seed {args.seed}, trace {args.trace}")
    if not rec["walls"] or (args.trace and not rec["traced_walls"]):
        print("error: no operation completed, nothing to measure", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(rec)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        rec["tracer"].write(spans_path, {"workload": args.workload, "seed": args.seed, **machine})
        print(f"spans: {spans_path}")
    else:
        metrics = end_to_end(workload, rec, setup_times)
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
