"""The benchmark's workloads: inputs, one timed operation, its checks, and
its traced form.

Every workload goes through driftguard's public API (plus the private
``_matching_bounds``, the only bound path ``simulate`` uses).  An operation
is timed on its own; its checks run afterwards, outside the timed region,
and return a list of problems (empty when the output is correct).  They
check properties of the output, not how it was computed, so a faster
scheme that keeps the numbers passes them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

from driftguard import cli
from driftguard.bodies import (
    _MC_CHUNK,
    Box,
    cube_eigen_density,
    fisher_closed_form_cube,
    fisher_monte_carlo,
    fisher_operator_norm,
    fisher_quadrature,
)
from driftguard.bounds import upper_bound_cube, upper_bound_general
from driftguard.harness import (
    ExperimentConfig,
    RunStats,
    StepGenerator,
    _matching_bounds,
    emit_report,
    run_stats_from_json,
    trial_streams,
)
from driftguard.metropolis import filter_run, rejection_rate_exact_1d, run_ensemble
from driftguard.oracle1d import exact_chain_expectation, exact_chain_expectation_fraction

# The CLI generator names and the StepGenerator kinds they stand for.
_GENERATOR_KINDS = {"unit": "random_unit_sphere", "pm1": "coordinate_basis_cycle"}


class Simulate:
    """One op is ``driftguard simulate ... --format json --out <file>``."""

    def __init__(self, name, dim, half_width, generator, steps, trials, out_dir, spot_trials=()):
        self.box = Box.cube(dim, half_width)
        self.generator = StepGenerator(_GENERATOR_KINDS[generator], dim)
        self.n_steps, self.n_trials = steps, trials
        self.argv = [
            "simulate", "--dim", str(dim), "--half-width", str(half_width),
            "--generator", generator, "--steps", str(steps), "--trials", str(trials),
            "--format", "json",
        ]
        # per process, so concurrent runs in one checkout never share a file
        self.out = Path(out_dir) / f"{name}-{os.getpid()}.json"
        self.composed_out = Path(out_dir) / f"{name}-{os.getpid()}.composed.json"
        # the 1-d lower bound attaches to +-1 steps on an integer band
        self.expects_lower = dim == 1 and generator == "pm1" and float(half_width).is_integer()
        self.spot_trials = spot_trials
        # built once: the traced run replays the origin draws on it
        self.density = cube_eigen_density(self.box)

    @property
    def work(self) -> int:
        """Trial-steps per op, m * n."""
        return self.n_trials * self.n_steps

    def inputs(self, seed: int) -> int:
        return seed

    def run(self, seed: int) -> bytes:
        code = cli.main(self.argv + ["--seed", str(seed), "--out", str(self.out)])
        if code != 0:
            raise RuntimeError(f"simulate exited with code {code}")
        return self.out.read_bytes()

    def check(self, seed: int, report: bytes) -> list[str]:
        stats = run_stats_from_json(report.decode())
        m, n = self.n_trials, self.n_steps
        problems = []
        counts = stats.per_trial_discards
        if len(counts) != m:
            problems.append(f"{len(counts)} discard counts, expected {m}")
        if any(not 0 <= c <= n for c in counts):
            problems.append(f"a discard count lies outside [0, {n}]")
        if stats.containment_violations != 0:
            problems.append(f"containment_violations = {stats.containment_violations}")
        slack = 3.0 * stats.std_error
        kinds = set()
        for b in stats.bound_reports:
            kinds.add(b.kind)
            if b.kind == "lower_1d":
                if stats.mean < b.value - slack:
                    problems.append(f"mean {stats.mean} below lower_1d {b.value} - 3 SE")
            elif stats.mean > b.value + slack:
                problems.append(f"mean {stats.mean} above {b.kind} {b.value} + 3 SE")
        if self.expects_lower != ("lower_1d" in kinds):
            problems.append(
                f"lower_1d attached: {'lower_1d' in kinds}, expected {self.expects_lower}"
            )
        return problems

    def close(self) -> None:
        self.out.unlink(missing_ok=True)
        self.composed_out.unlink(missing_ok=True)

    def compare(self, seed: int, report: bytes, composed: bytes) -> list[str]:
        if composed == report:
            return []
        cli_fields, composed_fields = json.loads(report), json.loads(composed)
        differ = {k: (cli_fields[k], composed_fields.get(k)) for k in cli_fields
                  if cli_fields[k] != composed_fields.get(k)}
        return [f"report composed from layer calls differs from the CLI's bytes: {differ}"]

    def traced(self, seed: int, tracer) -> tuple[bytes, dict, list[str]]:
        """``simulate`` composed from public parts, one span per layer call.

        Returns the report bytes, the op's exact counts, and problems found
        by the replicas: the origin draws replayed per trial, and (for
        ``spot_trials``) ``filter_run`` on single trials, which must agree
        with the ensemble bit for bit.
        """
        config = ExperimentConfig(
            body=self.box, generator=self.generator,
            n_steps=self.n_steps, n_trials=self.n_trials, seed=seed,
        )
        with tracer.span("op"):
            with tracer.span("bodies.cube_eigen_density"):
                density = cube_eigen_density(self.box)
            with tracer.span("harness.trial_streams"):
                steps, filter_seeds = trial_streams(config)
            with tracer.span("metropolis.run_ensemble"):
                result = run_ensemble(density, steps, filter_seeds)
            discards = np.asarray(result.discards, dtype=np.int64)
            m = config.n_trials
            std_error = float(np.std(discards, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
            with tracer.span("harness.matching_bounds"):
                bounds = _matching_bounds(config, steps)
            stats = RunStats(
                per_trial_discards=tuple(int(x) for x in discards),
                mean=float(np.mean(discards)),
                std_error=std_error,
                bound_reports=tuple(bounds),
            )
            with tracer.span("harness.emit_report"):
                text = emit_report(stats, "json")
            self.composed_out.write_text(text)
        problems = []
        with tracer.span("bodies.sample.origins"):
            origins = np.stack(
                [self.density.sample(np.random.default_rng(s)) for s in filter_seeds]
            )
        if not np.array_equal(origins, result.origins):
            problems.append("replayed origin draws differ from the ensemble's origins")
        for i in self.spot_trials:
            with tracer.span("metropolis.filter_run"):
                trajectory = filter_run(self.density, steps[i], filter_seeds[i])
            if trajectory.n_discarded != int(discards[i]):
                problems.append(
                    f"trial {i}: filter_run discards {trajectory.n_discarded}, "
                    f"ensemble {int(discards[i])}"
                )
        proposed = config.n_trials * config.n_steps
        counts = {
            "harness.trial_streams.bytes": int(steps.nbytes),
            "harness.emit_report.bytes": len(text.encode()),
            "metropolis.steps_proposed": proposed,
            "metropolis.accept_ratio": 1.0 - float(discards.sum()) / proposed,
            "metropolis.headroom": float(np.max(result.max_abs_sums))
            / (2.0 * float(self.box.half_widths[0])),
        }
        return self.composed_out.read_bytes(), counts, problems


class Oracles:
    """One op is a batch of the side paths; no filter kernel runs."""

    cube_t = 16.0  # half-width of the d=3 cube of the Fisher items and bounds
    band_t = 8.0  # half-width of the d=1 band of the rejection rates
    exhaustive_t = 2

    def __init__(self, sizes):
        self.s = sizes
        self.box3 = Box.cube(3, self.cube_t)
        self.density3 = cube_eigen_density(self.box3)
        self.density1 = cube_eigen_density(Box.cube(1, self.band_t))
        self.exhaustive_argv = [
            "oracle", "--mode", "exhaustive", "--T", str(self.exhaustive_t),
            "--n", str(sizes["exhaustive_n"]),
        ]
        # every sign string of length n, from every start in [-T, T]
        self.exhaustive_instances = (1 << sizes["exhaustive_n"]) * (2 * self.exhaustive_t + 1)

    @property
    def work(self) -> int:
        """Walk steps the op covers: both chains, the bound steps, and every
        exhaustive instance (n steps each)."""
        s = self.s
        exhaustive = self.exhaustive_instances * s["exhaustive_n"]
        return s["chain_fraction_n"] + s["chain_float_n"] + s["bound_steps"] + exhaustive

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        steps = rng.standard_normal((self.s["bound_steps"], 3))
        return {
            "mc_seed": seed,
            "steps": steps,
            "norms": np.linalg.norm(steps, axis=1),
            # step sizes on both sides of |v| = 2T, where the rate saturates at 1
            "rejection_steps": rng.uniform(-2.5 * self.band_t, 2.5 * self.band_t, size=5),
        }

    def _items(self, x: dict, span):
        """Run every item of the batch, each inside ``span(name)``."""
        s = self.s
        out = {}
        with span("bodies.fisher_monte_carlo"):
            out["mc"] = fisher_monte_carlo(self.density3, s["mc_samples"], x["mc_seed"])
        with span("bodies.fisher_quadrature"):
            out["quad"] = fisher_quadrature(self.density3, s["quad_nodes"])
        with span("bodies.fisher_closed_form_cube"):
            out["closed"] = fisher_closed_form_cube(self.box3)
        with span("bodies.fisher_operator_norm"):
            out["norm"] = fisher_operator_norm(out["closed"])
        with span("oracle1d.chain_fraction"):
            out["chain_fraction"] = exact_chain_expectation_fraction(
                s["chain_fraction_T"], s["chain_fraction_n"], 0
            )
        with span("oracle1d.chain_float"):
            out["chain_float"] = exact_chain_expectation(s["chain_float_T"], s["chain_float_n"], 0)
        with span("metropolis.rejection_rate_exact_1d"):
            out["rates"] = [rejection_rate_exact_1d(self.density1, v) for v in x["rejection_steps"]]
        with span("bounds.upper_bound_general"):
            out["general"] = upper_bound_general(out["closed"], x["steps"])
        with span("bounds.upper_bound_cube"):
            out["cube"] = upper_bound_cube(self.cube_t, x["norms"])
        buf = io.StringIO()
        with span("oracle1d.exhaustive"), contextlib.redirect_stdout(buf):
            out["exhaustive_code"] = cli.main(self.exhaustive_argv)
        out["exhaustive"] = json.loads(buf.getvalue().splitlines()[-1])
        return out

    def run(self, x: dict) -> dict:
        return self._items(x, lambda name: contextlib.nullcontext())

    def check(self, x: dict, out: dict) -> list[str]:
        s = self.s
        problems = []
        norm = np.pi**2 / self.cube_t**2
        closed = norm * np.eye(3)
        if not np.allclose(out["closed"].entries, closed, rtol=1e-15, atol=0.0):
            problems.append("closed-form Fisher matrix is not (pi^2/T^2) I")
        problems += _check_monte_carlo(out["mc"], closed, s["mc_samples"])
        quad_err = np.max(np.abs(out["quad"].entries - closed)) / np.max(closed)
        if not quad_err <= 1e-10:
            problems.append(f"quadrature Fisher off by {quad_err:.2e} relative")
        if not abs(out["norm"] - norm) <= 1e-12 * norm:
            problems.append(f"operator norm {out['norm']} != pi^2/T^2")
        for key in ("chain_fraction", "chain_float"):
            t, n = s[f"{key}_T"], s[f"{key}_n"]
            if not float(out[key]) >= n / (2 * t + 1) - t:
                problems.append(f"{key} {float(out[key])} below n/(2T+1) - T")
        two_t = 2.0 * self.band_t
        for v, rate in zip(x["rejection_steps"], out["rates"]):
            w = min(abs(v), two_t)
            exact = w / two_t + math.sin(math.pi * w / two_t) / math.pi
            if not abs(rate - exact) <= 1e-12:
                problems.append(f"rejection rate at v={v} is {rate}, closed form {exact}")
        # on a cube both upper bounds are pi/(2T) * sum |v|
        general, cube = out["general"].value, out["cube"].value
        if not abs(general - cube) <= 1e-9 * cube:
            problems.append(f"general bound {general} != cube bound {cube} on a cube")
        ex = out["exhaustive"]
        if (out["exhaustive_code"] != 0 or ex.get("failures") != 0
                or ex.get("instances") != self.exhaustive_instances):
            problems.append(f"exhaustive run: exit {out['exhaustive_code']}, record {ex}")
        return problems

    def close(self) -> None:
        pass

    def compare(self, x: dict, out: dict, traced_out: dict) -> list[str]:
        return self.check(x, traced_out)

    def traced(self, x: dict, tracer) -> tuple[dict, dict, list[str]]:
        """The op with one span per item, then a replica of the Monte Carlo
        draws: the chunked ``Density.sample`` calls that
        ``fisher_monte_carlo`` documents (one substream per chunk)."""
        with tracer.span("op"):
            out = self._items(x, tracer.span)
        with tracer.span("bodies.sample.batch"):
            done, chunk = 0, 0
            while done < self.s["mc_samples"]:
                k = min(_MC_CHUNK, self.s["mc_samples"] - done)
                rng = np.random.Generator(
                    np.random.PCG64(np.random.SeedSequence((x["mc_seed"], chunk)))
                )
                self.density3.sample(rng, k)
                done, chunk = done + k, chunk + 1
        counts = {"oracle1d.exhaustive.instances": int(out["exhaustive"]["instances"])}
        return out, counts, []


def _check_monte_carlo(mc, closed: np.ndarray, samples: int) -> list[str]:
    """MC Fisher against the closed form, with tolerances its tails allow.

    The score is -(pi/T) tan(pi x / 2T), so score^2 has tail
    P(s^2 > x) ~ x^(-3/2) near the box edges and infinite variance: the
    diagonal's reported standard error understates its spread, and its
    mean converges at rate n^(-1/3) with a heavy upper tail and a light
    lower one.  So the diagonal is checked only from below, by a relative
    margin of 7.5 n^(-1/3) (0.12 at 2.5e5 samples; in 1800 replicate
    diagonal entries the lowest was 0.069 below).  Off-diagonal products
    have finite variance, and their standard error holds: they are checked
    at 5 SE.
    """
    problems = []
    diag = np.diag(mc.entries)
    low = (1.0 - 7.5 * samples ** (-1.0 / 3.0)) * np.diag(closed)
    if not np.all(diag >= low):
        problems.append(f"MC Fisher diagonal {diag} below {low}")
    off = ~np.eye(closed.shape[0], dtype=bool)
    z = np.abs(mc.entries - closed)[off] / mc.std_error[off]
    if not np.all(z <= 5.0):
        problems.append(f"MC Fisher off-diagonal entry {np.max(z):.2f} SE from 0")
    return problems


def build(name: str, out_dir: Path, tiny: bool):
    """The workload called ``name``; ``tiny`` shrinks it for the self-test."""
    if name == "sim-wide":
        steps, trials = (100, 20) if tiny else (1000, 2000)
        spot = (0, trials // 2, trials - 1)
        return Simulate(name, 3, 16, "unit", steps, trials, out_dir, spot_trials=spot)
    if name == "sim-long":
        steps, trials = (2000, 4) if tiny else (100_000, 16)
        return Simulate(name, 1, 8, "pm1", steps, trials, out_dir)
    if name == "oracles":
        sizes = dict(
            mc_samples=250_000, quad_nodes=128,
            chain_fraction_T=32, chain_fraction_n=10_000,
            chain_float_T=1000, chain_float_n=100_000,
            bound_steps=100_000, exhaustive_n=10,
        )
        if tiny:
            sizes.update(
                mc_samples=2000, quad_nodes=16, chain_fraction_T=4, chain_fraction_n=200,
                chain_float_T=40, chain_float_n=2000, bound_steps=1000, exhaustive_n=4,
            )
        return Oracles(sizes)
    raise ValueError(f"unknown workload {name!r} (use sim-wide|sim-long|oracles)")


WORKLOADS = ("sim-wide", "sim-long", "oracles")
