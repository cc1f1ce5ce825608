"""Step generators, the Monte Carlo experiment runner, and report emission.

Each trial gets its own random streams derived from (seed, trial_index) via
SeedSequence, one stream for step generation and one for the filter, so the
results cannot depend on scheduling.  Trials run through ``run_ensemble``
a slab at a time; a trial's walk depends only on its own streams, so the
slabs, or ``filter_run`` on one trial's steps and seed, give the same walk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .bodies import Box, _integer, _number, _reals, _row_norms, _seed, _slabs, cube_eigen_density
from .bounds import BoundReport, _bound_pass, _bound_reports, matching_bounds
from .metropolis import _LOCKSTEP_WIDTH, ContainmentError, EnsembleResult, run_ensemble

__all__ = [
    "StepGenerator",
    "ExperimentConfig",
    "RunStats",
    "generate_steps",
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
        if not isinstance(self.rademacher, (bool, np.bool_)):
            raise ValueError(f"rademacher must be true or false, not {self.rademacher!r}")
        object.__setattr__(self, "dimension", _integer("dimension", self.dimension, 1))
        if self.kind == "fixed_list":
            try:
                vecs = np.array(self.vectors, ndmin=2)  # an own copy, typed by _reals below
            except ValueError as exc:  # ragged rows
                raise ValueError("fixed_list rows must all have the generator dimension") from exc
            if self.vectors is None or vecs.size == 0:
                raise ValueError("fixed_list requires a nonempty vector list")
            vecs = _reals("fixed_list vectors", vecs)
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
    return _draw_steps(gen, _integer("n", n, 0), [_seed("rng_seed", rng_seed)])[0]


def _draw_steps(gen: StepGenerator, n: int, seeds) -> np.ndarray:
    """Steps (k, n, d) of k trials, trial i's from ``seeds[i]``: its normals
    (the random kinds), then its signs; then a ``_slabs`` chunk of steps at a
    time is scaled and signed, so no temporary grows with the slab."""
    d = gen.dimension
    steps = np.empty((len(seeds), n, d))
    gaussian = gen.kind in ("random_unit_sphere", "isotropic_custom")
    if not gaussian:
        # np.tile, not np.resize: resize concatenates n*d/size copies one by one
        base = gen.vectors if gen.kind == "fixed_list" else np.eye(d)
        steps[...] = np.tile(base, (-(-n // len(base)), 1))[:n]
    signs = np.ones((len(seeds), n), dtype=np.int8)  # 1 for +, 0 for -
    for row, sign, seed in zip(steps, signs, seeds):
        rng = np.random.default_rng(seed)
        if gaussian:
            rng.standard_normal(out=row)
        if gen.rademacher:
            sign[...] = rng.integers(0, 2, size=n)
    flat, flat_signs = steps.reshape(-1, d), signs.reshape(-1)
    for rows in _slabs(len(flat), d):
        chunk = flat[rows]
        divisor = flat_signs[rows] * 2.0 - 1.0  # a division by -1 flips a step exactly
        if gaussian:
            norms = _row_norms(chunk)
            divisor *= np.where(norms == 0.0, 1.0, norms)
        np.divide(chunk, divisor[:, None], out=chunk)
        if gen.kind == "isotropic_custom":
            chunk *= math.sqrt(d)
    return steps


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
    """Every trial's steps (m, n, d) and filter seeds: ``_slab_streams`` of all trials."""
    return _slab_streams(config, range(config.n_trials))


def _slab_streams(config: ExperimentConfig, trials: range) -> tuple[np.ndarray, list]:
    """Steps (k, n, d) and filter seeds of the k ``trials``: trial i's
    ``SeedSequence((seed, i)).spawn(2)``, each child built from its spawn key."""
    entropy = [(config.seed, i) for i in trials]
    seeds = [np.random.SeedSequence(e, spawn_key=(0,)) for e in entropy]
    steps = _draw_steps(config.generator, config.n_steps, seeds)
    return steps, [np.random.SeedSequence(e, spawn_key=(1,)) for e in entropy]


def run_experiment_ensemble(config: ExperimentConfig) -> tuple[RunStats, EnsembleResult]:
    """run_experiment, also returning the raw ensemble for further checks.

    Trials run in slabs of ceil(``_LOCKSTEP_WIDTH`` / d), so one slab's
    steps and coins are alive at a time; a trial's results depend only on
    its own streams, so the slabs' results, concatenated field by field, are
    the bits of one ensemble.  Each slab adds its per-trial sums to the bound
    pass before its kernel runs; the least (step, trial) containment error
    of all slabs is raised after the bound reports are made.
    """
    density = cube_eigen_density(config.body)
    m, n, d = config.n_trials, config.n_steps, config.body.dimension
    size = min(m, -(-_LOCKSTEP_WIDTH // d))
    sums = np.empty(m)
    units, parts, escapes = [], [], []
    for start in range(0, m, size):
        rows = slice(start, min(start + size, m))
        steps, filter_seeds = _slab_streams(config, range(m)[rows])
        sums[rows], unit = _bound_pass(config.body, steps)
        units.append(unit)
        try:
            parts.append(run_ensemble(density, steps, filter_seeds))
        except ContainmentError as exc:
            escapes.append((exc.step, start + exc.trial, exc.accepted_sum))
        del steps  # before the next slab's are built
    bound_reports = tuple(_bound_reports(config.body, sums, all(units), n))
    if escapes:  # a later slab's violation may come at an earlier step
        raise ContainmentError(*min(escapes, key=lambda escape: escape[:2]))
    result = EnsembleResult(*(np.concatenate([getattr(part, f.name) for part in parts])
                              for f in fields(EnsembleResult)))
    discards = np.asarray(result.discards, dtype=np.int64)
    stats = RunStats(
        per_trial_discards=tuple(int(x) for x in discards),
        mean=float(np.mean(discards)),
        std_error=float(np.std(discards, ddof=1) / math.sqrt(m)) if m > 1 else 0.0,
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
    """Render RunStats as csv or json text; byte-stable for fixed input.  The
    fields are the schema: json holds every field of ``stats`` and its bound
    reports, csv a ``name,repr(value)`` line per scalar field, in order."""
    if report_format == "json":
        payload = {**vars(stats), "bound_reports": [vars(b) for b in stats.bound_reports]}
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if report_format == "csv":
        lines = ["trial,discards"]
        lines.extend(f"{i},{c}" for i, c in enumerate(stats.per_trial_discards))
        lines.extend(f"{name},{value!r}" for name, value in vars(stats).items()
                     if not isinstance(value, tuple))
        lines.extend(
            f'bound,{b.kind},{b.value!r},"{b.inputs_digest}"' for b in stats.bound_reports
        )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {report_format!r}")


def run_stats_from_json(text: str) -> RunStats:
    """Inverse of emit_report(..., 'json'): parse(emit(stats)) == stats.

    Counts follow the integer rule and the mean, standard error and bound
    values the number rule: a string, a bool, NaN or inf raises ValueError.
    A bound's kind and digest that are not strings raise ValueError.
    """
    obj = json.loads(text)
    for b in obj["bound_reports"]:
        for key in ("kind", "inputs_digest"):
            if not isinstance(b[key], str):
                raise ValueError(f"{key} must be a string, not {b[key]!r}")
    discards = obj["per_trial_discards"]
    return RunStats(
        per_trial_discards=tuple(_integer("per_trial_discards", x) for x in discards),
        mean=_number("mean", obj["mean"]),
        std_error=_number("std_error", obj["std_error"]),
        bound_reports=tuple(
            BoundReport(b["kind"], _number("value", b["value"]), b["inputs_digest"])
            for b in obj["bound_reports"]
        ),
        containment_violations=_integer("containment_violations", obj["containment_violations"]),
    )
