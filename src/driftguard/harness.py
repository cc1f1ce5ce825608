"""Step generators, the Monte Carlo experiment runner, and report emission.

Each trial gets its own random streams derived from (seed, trial_index) via
SeedSequence, one stream for step generation and one for the filter, so the
results cannot depend on scheduling.  The seeds are hashed for a whole slab
of trials at once (``bodies._trial_seeds``), bit-equal to the trials' own
SeedSequences.  Trials run through the filter kernel a slab at a time; a
trial's walk depends only on its own streams, so the slabs, or
``filter_run`` on one trial's steps and seed, give the same walk.  One step
source, ``_slab_steps``, is the only code that tells the kinds apart: it
gives a slab's bound sums and its chunks for the kernel.  A sign-only kind
(fixed rows times a fair sign) sums one unsigned row, whose norms are every
trial's, and gives chunks over n drawn as the kernel filters them; a
Gaussian kind, whose signs follow all n * d normals, sums its whole rows
and gives them as one chunk.

A run splits its trials into contiguous shards, one per CPU the process
may run on (at most one per slab, and at most a cgroup CPU quota:
``bodies._cpus``), and forks a child process for every shard but the
first, which the calling process runs itself (``bodies._fork_map``, which
the Monte Carlo Fisher estimator shares).  Each process
holds one slab at a time, and each slab gives one record: its trials' bound
sums and their discard counts or escape.  A slab's walk counts each chunk's
accept flags as it comes, so no (k, n) flags are ever built.  A child pickles its shard's records straight into a pipe and the
calling process unpickles them from it, so no record is also held as its
pickled bytes.  The run's records, merged once in trial order, are the
bits of one process's run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .bodies import (Box, _cpus, _fork_map, _integer, _number, _reals, _row_norms, _slabs,
                     _trial_seeds, cube_eigen_density)
from .bounds import BoundReport, _bound_pass, _bound_reports, matching_bounds
from .metropolis import _LOCKSTEP_WIDTH, ContainmentError, _chunk_length, _Walk

__all__ = [
    "StepGenerator",
    "ExperimentConfig",
    "RunStats",
    "run_experiment",
    "emit_report",
    "run_stats_from_json",
]

GENERATOR_KINDS = ("fixed_list", "random_unit_sphere", "coordinate_basis_cycle", "isotropic_custom")
REPORT_FORMATS = ("csv", "json")
# the kinds whose steps are fixed rows times one random sign each
_SIGN_ONLY = ("fixed_list", "coordinate_basis_cycle")


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


def _slab_steps(body: Box, gen: StepGenerator, n: int, seeds) -> tuple:
    """The steps of k trials, trial i's from ``seeds[i]``, as ``_bound_pass``'
    (k,) sums and flag in ``body`` and the (k, c, d) chunks the kernel filters.
    A sign leaves a norm as it is, so a sign-only kind's pass reads its one
    unsigned (n, d) row, dropped before any chunk is drawn, whose sum is every
    trial's; its chunks of ``_chunk_length`` steps are drawn by ``_draw_chunk``
    as the kernel reaches them and held by no name here, so each is freed
    before the next.  A Gaussian kind's signs follow all n * d normals, so its
    pass reads its whole (k, n, d) steps, which are its one chunk."""
    if gen.kind not in _SIGN_ONLY:
        steps = _draw_steps(gen, n, seeds)
        return (*_bound_pass(body, steps), [steps])
    sums, unit = _bound_pass(body, _cycle(gen, 0, n))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    length = _chunk_length(len(seeds) * gen.dimension)
    return np.broadcast_to(sums, len(seeds)), unit, (
        _draw_chunk(gen, rngs, start, min(length, n - start)) for start in range(0, n, length))


def _draw_steps(gen: StepGenerator, n: int, seeds) -> np.ndarray:
    """Steps (k, n, d) of k trials, trial i's from ``seeds[i]``."""
    return _draw_chunk(gen, [np.random.default_rng(seed) for seed in seeds], 0, n)


def _draw_chunk(gen: StepGenerator, rngs: list, start: int, c: int) -> np.ndarray:
    """Steps start, ..., start + c - 1 of the trials whose generators are
    ``rngs``, as (k, c, d).  Each trial's generator draws its normals (the
    Gaussian kinds), then its signs; then a ``_slabs`` chunk of steps at a
    time is scaled and signed, so no temporary grows with the slab."""
    d = gen.dimension
    gaussian = gen.kind not in _SIGN_ONLY
    steps = np.empty((len(rngs), c, d))
    if not gaussian:
        steps[...] = _cycle(gen, start, c)
    signs = np.ones((len(rngs), c), dtype=np.int8)  # 1 for +, 0 for -
    for row, sign, rng in zip(steps, signs, rngs):
        if gaussian:
            rng.standard_normal(out=row)
        if gen.rademacher:
            sign[...] = rng.integers(0, 2, size=c)
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


def _cycle(gen: StepGenerator, start: int, count: int) -> np.ndarray:
    """Unsigned steps start, ..., start + count - 1 of a sign-only kind: its
    base rows (the fixed list, or e_1, ..., e_d) cycled, as (count, d)."""
    base = gen.vectors if gen.kind == "fixed_list" else np.eye(gen.dimension)
    base = np.roll(base, -(start % len(base)), axis=0)
    # np.tile, not np.resize: resize concatenates count*d/size copies one by one
    return np.tile(base, (-(-count // len(base)), 1))[:count]


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

    def __post_init__(self) -> None:
        """Counts follow the integer rule and ``mean`` and ``std_error`` the
        number rule, so each field is a plain int, float or tuple of them."""
        discards = tuple(_integer("per_trial_discards", x) for x in self.per_trial_discards)
        object.__setattr__(self, "per_trial_discards", discards)
        object.__setattr__(self, "mean", _number("mean", self.mean))
        object.__setattr__(self, "std_error", _number("std_error", self.std_error))
        object.__setattr__(self, "bound_reports", tuple(self.bound_reports))
        object.__setattr__(self, "containment_violations",
                           _integer("containment_violations", self.containment_violations))


def trial_streams(config: ExperimentConfig) -> tuple[np.ndarray, list]:
    """Every trial's steps (m, n, d) and filter seeds: trial i's
    ``SeedSequence((seed, i)).spawn(2)``, hashed for all trials at once by
    ``_trial_seeds``."""
    trials = range(config.n_trials)
    steps = _draw_steps(config.generator, config.n_steps, _trial_seeds(config.seed, trials, 0))
    return steps, _trial_seeds(config.seed, trials, 1)


def run_experiment(config: ExperimentConfig) -> RunStats:
    """Run n_trials seeded trials and aggregate discard counts and bounds.

    Trials run in slabs of ceil(``_LOCKSTEP_WIDTH`` / d), each by
    ``_run_slab``, split into k contiguous near-equal shards, k =
    min(``_cpus()``, slabs): shard 0 runs in this process and each other in
    a forked child (``_fork_map``), so a process holds one slab's chunk of
    steps, coins and accept flags at a time, and k = 1 forks nothing.  The slab records are
    merged once: the bound reports are made, then the least (step, trial)
    containment escape of all slabs is raised as ContainmentError, rather
    than counted, so a returned RunStats always has containment_violations
    = 0; then the slabs' discard counts are joined.  Any other error is the
    lowest shard's, the one a single process meets first.
    """
    density = cube_eigen_density(config.body)
    m, d = config.n_trials, config.body.dimension
    size = min(m, -(-_LOCKSTEP_WIDTH // d))
    k = min(_cpus(), -(-m // size))
    shards = [range(m * i // k, m * (i + 1) // k) for i in range(k)]

    def run_shard(trials: range) -> list:
        return [_run_slab(config, density, range(start, min(start + size, trials.stop)))
                for start in range(trials.start, trials.stop, size)]

    records = (record for shard in _fork_map(run_shard, shards, "trial shard") for record in shard)
    sums, units, discards, escapes = zip(*records)
    bound_reports = _bound_reports(config.body, np.concatenate(sums), all(units), config.n_steps)
    escapes = [escape for escape in escapes if escape is not None]
    if escapes:  # a later slab's violation may come at an earlier step
        raise ContainmentError(*min(escapes, key=lambda escape: escape[:2]))
    discards = np.concatenate(discards)
    return RunStats(
        per_trial_discards=discards.tolist(),
        mean=float(np.mean(discards)),
        std_error=float(np.std(discards, ddof=1) / math.sqrt(m)) if m > 1 else 0.0,
        bound_reports=bound_reports,
    )


def _run_slab(config: ExperimentConfig, density, slab: range) -> tuple:
    """The record of the trials ``slab``: their bound sums, whether
    ``lower_1d`` attaches, and their (k,) discard counts, or None and their
    containment escape as (step, trial in the run, accepted sum).  Each
    chunk from ``_slab_steps`` is filtered by one ``_Walk`` and its accept
    flags counted as they come, so one chunk's steps, coins and flags are
    alive; no name here holds a chunk while the next is drawn."""
    sums, unit, chunks = _slab_steps(config.body, config.generator, config.n_steps,
                                     _trial_seeds(config.seed, slab, 0))
    walk = _Walk(density, _trial_seeds(config.seed, slab, 1))
    discards = np.zeros(len(slab), dtype=np.int64)
    try:
        for accepted in map(walk.run, chunks):
            discards += accepted.shape[1] - accepted.sum(axis=1)
    except ContainmentError as exc:
        return sums, unit, None, (exc.step, slab.start + exc.trial, exc.accepted_sum)
    return sums, unit, discards, None


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

    The keys read are the fields of ``RunStats`` and ``BoundReport``: a
    missing one raises KeyError, others are ignored.  The dataclasses check
    the values: a count that is not an integer, a mean, standard error or
    bound value that is a string, a bool, NaN or inf, and a bound kind or
    digest that is not a string raise ValueError naming the field.
    """
    obj = json.loads(text)
    obj["bound_reports"] = [BoundReport(**{f.name: b[f.name] for f in fields(BoundReport)})
                            for b in obj["bound_reports"]]
    return RunStats(**{f.name: obj[f.name] for f in fields(RunStats)})
