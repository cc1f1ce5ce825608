"""Online step-discarding filter for symmetric walks.

Each incoming signed step is accepted with the classical Metropolis
probability min(pi(w + v) / pi(w), 1) for a fixed stationary density pi.
Started from a pi-distributed point, the filtered walk stays pi-distributed
forever, and the running sum of accepted steps is trapped in twice the
support box: both the current point and the starting point live in the
support, so their difference cannot leave 2K.

The acceptance ratio is computed in log space and one uniform coin is
consumed per step whether or not the proposal can be rejected, which keeps
the random stream independent of the data.  ``run_ensemble`` advances many
trials in lockstep with identical arithmetic, so a vectorized ensemble and
a loop of ``filter_run`` calls produce bit-identical trajectories.  It
draws every trial's origin in one batched inverse-CDF pass, and checks 2K
containment once per block of steps rather than after each step; the
first violation it reports (step, lowest trial, accepted sum) is the one a
per-step check would report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .bodies import Density

__all__ = [
    "ContainmentError",
    "FilterState",
    "StepOutcome",
    "Trajectory",
    "EnsembleResult",
    "filter_init",
    "filter_step",
    "filter_run",
    "run_ensemble",
    "rejection_rate_exact_1d",
    "rejection_rate_monte_carlo",
]

# slack for the 2K containment assertion, per unit of half-width
_CONTAINMENT_TOL = 1e-9
# float64 values of the position buffer run_ensemble checks containment on;
# a block is as many lockstep steps as fit, and at least one
_PATH_BUDGET = 1 << 16

# Gauss-Legendre rule for the 1-d rejection rate, built once: leggauss is ~1.5 ms
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)

SeedLike = Union[int, np.random.SeedSequence]


class ContainmentError(RuntimeError):
    """An accepted partial sum left the doubled support box."""


@dataclass
class FilterState:
    """Mutable state of one filtered walk."""

    density: Density
    origin: np.ndarray
    current: np.ndarray
    steps_seen: int
    steps_discarded: int
    rng: np.random.Generator
    log_current: float = field(repr=False, default=0.0)

    @property
    def accepted_sum(self) -> np.ndarray:
        return self.current - self.origin


@dataclass(frozen=True)
class StepOutcome:
    accepted: bool
    acceptance_probability: float
    proposed: np.ndarray
    resulting_sum: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    outcomes: tuple[StepOutcome, ...]
    accepted_sums: np.ndarray  # (n, d) running sums after each step

    @property
    def n_steps(self) -> int:
        return len(self.outcomes)

    @property
    def n_discarded(self) -> int:
        return sum(1 for o in self.outcomes if not o.accepted)


def filter_init(density: Density, rng_seed: SeedLike) -> FilterState:
    """Fresh filter state with a pi-distributed starting point."""
    rng = np.random.default_rng(rng_seed)
    origin = density.sample(rng)
    return FilterState(
        density=density,
        origin=origin,
        current=origin.copy(),
        steps_seen=0,
        steps_discarded=0,
        rng=rng,
        log_current=float(density.log_density(origin)),
    )


def filter_step(state: FilterState, signed_step) -> StepOutcome:
    """Feed one signed step through the filter, consuming one coin."""
    step = np.asarray(signed_step, dtype=float)
    if step.shape != (state.density.dimension,):
        raise ValueError(
            f"step has shape {step.shape}, expected ({state.density.dimension},)"
        )
    if not np.all(np.isfinite(step)):
        raise ValueError("step has non-finite entries")
    proposal = state.current + step
    log_new = state.density.log_density(proposal)
    accept_prob = np.exp(np.minimum(0.0, log_new - state.log_current))
    coin = state.rng.uniform()
    accepted = bool(coin < accept_prob)
    state.steps_seen += 1
    if accepted:
        state.current = proposal
        state.log_current = float(log_new)
    else:
        state.steps_discarded += 1
    return StepOutcome(
        accepted=accepted,
        acceptance_probability=float(accept_prob),
        proposed=proposal,
        resulting_sum=state.current - state.origin,
    )


def filter_run(density: Density, signed_steps, rng_seed: SeedLike) -> Trajectory:
    """Run a whole step sequence, asserting 2K containment after every step."""
    steps = np.asarray(signed_steps, dtype=float)
    if steps.size == 0:
        steps = steps.reshape(0, density.dimension)
    if steps.ndim != 2 or steps.shape[1] != density.dimension:
        raise ValueError("signed_steps must have shape (n, d)")
    state = filter_init(density, rng_seed)
    n = steps.shape[0]
    outcomes = []
    sums = np.zeros((n, density.dimension))
    for k in range(n):
        outcome = filter_step(state, steps[k])
        sums[k] = outcome.resulting_sum
        if not density.support.contains_scaled(outcome.resulting_sum, 2.0, _CONTAINMENT_TOL):
            raise ContainmentError(
                f"accepted sum {outcome.resulting_sum} left 2K at step {k}"
            )
        outcomes.append(outcome)
    return Trajectory(outcomes=tuple(outcomes), accepted_sums=sums)


@dataclass(frozen=True)
class EnsembleResult:
    """Final states of many filtered walks run in lockstep."""

    origins: np.ndarray  # (m, d)
    finals: np.ndarray  # (m, d)
    accepted: np.ndarray  # (m, n) bool
    max_abs_sums: np.ndarray  # (m,) running max of |accepted sum| over all prefixes

    @property
    def n_trials(self) -> int:
        return int(self.origins.shape[0])

    @property
    def discards(self) -> np.ndarray:
        return self.accepted.shape[1] - self.accepted.sum(axis=1)

    @property
    def accepted_sums(self) -> np.ndarray:
        return self.finals - self.origins


def run_ensemble(density: Density, steps, seeds: Sequence[SeedLike]) -> EnsembleResult:
    """Advance m trials together, one vectorized filter step at a time.

    ``steps`` has shape (m, n, d): each trial gets its own step sequence.
    Trial i draws its origin and its n coins from seeds[i] in exactly the
    order ``filter_run`` would, so results match the sequential path bit
    for bit.  Steps run in blocks of ``max(1, _PATH_BUDGET // (m * d))``;
    each block's steps must be finite (ValueError otherwise, before the
    block runs).  After a block, raises ContainmentError for its first step
    where any trial's accepted sum left the doubled support, naming the
    lowest such trial.
    """
    steps = np.asarray(steps, dtype=float)
    if steps.ndim != 3 or steps.shape[2] != density.dimension:
        raise ValueError("steps must have shape (m, n, d)")
    m, n, d = steps.shape
    if m < 1:
        raise ValueError("need at least one trial")
    if len(seeds) != m:
        raise ValueError("need one seed per trial")
    gens = [np.random.default_rng(s) for s in seeds]
    origins = density.quantile(np.concatenate([g.uniform(size=(1, d)) for g in gens]))
    coins = np.stack([g.uniform(size=n) for g in gens], axis=1)  # (n, m), step-major
    hw = density.support.half_widths
    limit = 2.0 * hw + _CONTAINMENT_TOL * hw
    current = origins.copy()
    log_current = np.asarray(density.log_density(current), dtype=float)
    accepted = np.zeros((m, n), dtype=bool)
    max_abs = np.zeros(m)
    block = max(1, _PATH_BUDGET // (m * d))
    path = np.empty((min(block, n), m, d))
    proposal = np.empty((m, d))
    prob = np.empty(m)
    acc = np.empty(m, dtype=bool)
    for start in range(0, n, block):
        stop = min(start + block, n)
        if not np.isfinite(steps[:, start:stop]).all():
            raise ValueError("steps have non-finite entries")
        for k in range(start, stop):
            np.add(current, steps[:, k], out=proposal)
            log_new = density.log_density(proposal)
            np.subtract(log_new, log_current, out=prob)
            np.minimum(prob, 0.0, out=prob)
            np.exp(prob, out=prob)
            np.less(coins[k], prob, out=acc)
            accepted[:, k] = acc
            np.copyto(current, proposal, where=acc[:, None])
            np.copyto(log_current, log_new, where=acc)
            path[k - start] = current
        sums = path[: stop - start]
        np.subtract(sums, origins, out=sums)
        dist = np.abs(sums)
        block_max = dist.max(axis=0)  # (m, d)
        np.maximum(max_abs, block_max.max(axis=-1), out=max_abs)
        if (block_max > limit).any():
            # argwhere is row-major: the first step, then its lowest trial
            j, trial = (int(i) for i in np.argwhere((dist > limit).any(axis=-1))[0])
            raise ContainmentError(
                f"trial {trial} accepted sum {sums[j, trial]} left 2K at step {start + j}"
            )
    return EnsembleResult(
        origins=origins, finals=current, accepted=accepted, max_abs_sums=max_abs
    )


def rejection_rate_exact_1d(density: Density, step: float) -> float:
    """Stationary one-step discard probability in d = 1.

    Equals TV(pi, pi shifted by v) = (1/2) * integral |pi(x + v) - pi(x)| dx.
    Precondition: pi is even, non-increasing in |x| and smooth on (0, T), as
    ``cube_eigen_density`` is.  Then pi(x + v) - pi(x) changes sign only at
    x = -v/2, and the distance is the central mass 2 * integral_0^{|v|/2} pi,
    here a 64-node Gauss-Legendre sum over ``log_density`` (for the cube
    eigen-density, |v| / (2T) + sin(pi |v| / (2T)) / pi).  A density that
    breaks the precondition gets its central mass all the same.  Exactly 0
    at v = 0, and exactly 1 when |v| >= 2 T (disjoint shifted supports).
    """
    if density.dimension != 1:
        raise ValueError("exact rejection rate is one-dimensional only")
    v = abs(float(step))
    if not np.isfinite(v):
        raise ValueError("step must be finite")
    if v >= 2.0 * float(density.support.half_widths[0]):
        return 1.0
    # v * mean of pi on (0, v/2): the halved weights sum to 1, so no overflow
    x = (0.25 * v) * (1.0 + _GL_NODES)
    mean_pi = float(np.sum((0.5 * _GL_WEIGHTS) * np.exp(density.log_density(x[:, None]))))
    return min(v * mean_pi, 1.0)


def rejection_rate_monte_carlo(
    density: Density, step, n_steps: int, rng_seed: SeedLike
) -> tuple[float, float]:
    """Monte Carlo discard frequency of one filter step from stationarity.

    Draws ``n_steps`` independent stationary points, proposes x + step from
    each with a fresh coin, and returns (frequency, standard error).
    """
    v = np.asarray(step, dtype=float)
    if v.shape != (density.dimension,):
        raise ValueError("step dimension mismatch")
    if not np.all(np.isfinite(v)):
        raise ValueError("step has non-finite entries")
    n = int(n_steps)
    if n < 1:
        raise ValueError("n_steps must be positive")
    rng = np.random.default_rng(rng_seed)
    points = density.sample(rng, n)
    log_pi = np.asarray(density.log_density(points), dtype=float)
    log_pi_shift = np.asarray(density.log_density(points + v), dtype=float)
    accept_prob = np.exp(np.minimum(0.0, log_pi_shift - log_pi))
    rejected = rng.uniform(size=n) >= accept_prob
    freq = float(np.mean(rejected))
    std_error = float(np.sqrt(freq * (1.0 - freq) / n))
    return freq, std_error
