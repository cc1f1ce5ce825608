"""Step generators, the Monte Carlo experiment runner, and report emission.

Each trial gets its own random streams derived from (seed, trial_index) via
SeedSequence, one stream for step generation and one for the filter, so the
results cannot depend on scheduling.  All trials run together through
``run_ensemble``; a trial's walk depends only on its own streams, so
``filter_run`` on one trial's steps and seed gives the same walk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bodies import Box, _integer, _seed, cube_eigen_density
from .bounds import BoundReport, matching_bounds
from .metropolis import EnsembleResult, run_ensemble

__all__ = [
    "StepGenerator",
    "ExperimentConfig",
    "RunStats",
    "generate_steps",
    "trial_streams",
    "run_experiment",
    "run_experiment_ensemble",
    "emit_report",
    "run_stats_from_json",
]

GENERATOR_KINDS = ("fixed_list", "random_unit_sphere", "coordinate_basis_cycle", "isotropic_custom")
REPORT_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class StepGenerator:
    """Recipe for a sequence of signed steps.

    ``rademacher`` multiplies every generated vector by an independent fair
    sign.  ``vectors`` (fixed_list only) is a read-only (L, d) array, cycled when n exceeds L.
    """

    kind: str
    dimension: int
    rademacher: bool = True
    vectors: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        object.__setattr__(self, "dimension", _integer("dimension", self.dimension, 1))
        if self.kind == "fixed_list":
            try:
                vecs = np.array(self.vectors, dtype=float, ndmin=2)
            except ValueError as exc:  # ragged rows
                raise ValueError("fixed_list rows must all have the generator dimension") from exc
            if self.vectors is None or vecs.size == 0:
                raise ValueError("fixed_list requires a nonempty vector list")
            if vecs.shape != (len(vecs), self.dimension):
                raise ValueError("fixed_list rows must all have the generator dimension")
            if not np.all(np.isfinite(vecs)):
                raise ValueError("fixed_list vectors must be finite")
            vecs.setflags(write=False)
            object.__setattr__(self, "vectors", vecs)
        elif self.vectors is not None:
            raise ValueError("vectors only apply to fixed_list generators")


def generate_steps(gen: StepGenerator, n: int, rng_seed) -> np.ndarray:
    """n signed step vectors, shape (n, d), deterministic given the seed."""
    n = _integer("n", n, 0)
    d = gen.dimension
    rng = np.random.default_rng(_seed("rng_seed", rng_seed))
    if gen.kind in ("fixed_list", "coordinate_basis_cycle"):
        # np.tile, not np.resize: resize concatenates n*d/size copies one by one
        base = gen.vectors if gen.kind == "fixed_list" else np.eye(d)
        out = np.tile(base, (-(-n // len(base)), 1))[:n]
    else:
        gauss = rng.standard_normal((n, d))
        norms = np.linalg.norm(gauss, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        out = gauss / norms
        if gen.kind == "isotropic_custom":
            out = out * math.sqrt(d)
    if gen.rademacher:
        signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
        out = out * signs[:, None]
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    body: Box
    generator: StepGenerator
    n_steps: int
    n_trials: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_trials", _integer("n_trials", self.n_trials, 1))
        object.__setattr__(self, "n_steps", _integer("n_steps", self.n_steps, 0))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        if self.generator.dimension != self.body.dimension:
            raise ValueError("generator and body dimensions differ")


@dataclass(frozen=True)
class RunStats:
    per_trial_discards: tuple[int, ...]
    mean: float
    std_error: float
    bound_reports: tuple[BoundReport, ...]
    containment_violations: int = 0


def trial_streams(config: ExperimentConfig) -> tuple[np.ndarray, list]:
    """Per-trial step arrays (m, n, d) and filter seeds, from (seed, index)."""
    m, n, d = config.n_trials, config.n_steps, config.body.dimension
    steps = np.empty((m, n, d))
    filter_seeds = []
    for i in range(m):
        step_seed, filter_seed = np.random.SeedSequence((config.seed, i)).spawn(2)
        steps[i] = generate_steps(config.generator, n, step_seed)
        filter_seeds.append(filter_seed)
    return steps, filter_seeds


def run_experiment_ensemble(config: ExperimentConfig) -> tuple[RunStats, EnsembleResult]:
    """run_experiment, also returning the raw ensemble for further checks."""
    density = cube_eigen_density(config.body)
    steps, filter_seeds = trial_streams(config)
    bound_reports = tuple(matching_bounds(config.body, steps))
    result = run_ensemble(density, steps, filter_seeds)
    discards = np.asarray(result.discards, dtype=np.int64)
    mean = float(np.mean(discards))
    std_error = (
        float(np.std(discards, ddof=1) / math.sqrt(config.n_trials))
        if config.n_trials > 1
        else 0.0
    )
    stats = RunStats(
        per_trial_discards=tuple(int(x) for x in discards),
        mean=mean,
        std_error=std_error,
        bound_reports=bound_reports,
        containment_violations=0,
    )
    return stats, result


def run_experiment(config: ExperimentConfig) -> RunStats:
    """Run n_trials seeded trials and aggregate discard counts and bounds.

    Containment is checked once per block of steps, and a
    violation raises ContainmentError naming the first step and lowest
    trial that left the doubled box, rather than being counted; so a
    returned RunStats always has containment_violations = 0.
    """
    stats, _ = run_experiment_ensemble(config)
    return stats


def _matching_bounds(config: ExperimentConfig, steps: np.ndarray) -> list[BoundReport]:
    """``bounds.matching_bounds`` for this configuration's body."""
    return matching_bounds(config.body, steps)


def emit_report(stats: RunStats, report_format: str = "csv") -> str:
    """Render RunStats as csv or json text; byte-stable for fixed input."""
    if report_format == "json":
        payload = {
            "per_trial_discards": list(stats.per_trial_discards),
            "mean": stats.mean,
            "std_error": stats.std_error,
            "containment_violations": stats.containment_violations,
            "bound_reports": [
                {"kind": b.kind, "value": b.value, "inputs_digest": b.inputs_digest}
                for b in stats.bound_reports
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if report_format == "csv":
        lines = ["trial,discards"]
        lines.extend(f"{i},{c}" for i, c in enumerate(stats.per_trial_discards))
        lines.append(f"mean,{stats.mean!r}")
        lines.append(f"std_error,{stats.std_error!r}")
        lines.append(f"containment_violations,{stats.containment_violations}")
        lines.extend(
            f'bound,{b.kind},{b.value!r},"{b.inputs_digest}"' for b in stats.bound_reports
        )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {report_format!r}")


def run_stats_from_json(text: str) -> RunStats:
    """Inverse of emit_report(..., 'json'): parse(emit(stats)) == stats."""
    obj = json.loads(text)
    discards = obj["per_trial_discards"]
    return RunStats(
        per_trial_discards=tuple(_integer("per_trial_discards", x) for x in discards),
        mean=float(obj["mean"]),
        std_error=float(obj["std_error"]),
        bound_reports=tuple(
            BoundReport(b["kind"], float(b["value"]), b["inputs_digest"])
            for b in obj["bound_reports"]
        ),
        containment_violations=_integer("containment_violations", obj["containment_violations"]),
    )
