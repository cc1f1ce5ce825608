"""Online step-discarding filter for symmetric walks.

Each incoming signed step is accepted with the classical Metropolis
probability min(pi(w + v) / pi(w), 1) for a fixed stationary density pi.
Started from a pi-distributed point, the filtered walk stays pi-distributed
forever, and the running sum of accepted steps is trapped in twice the
support box: both the current point and the starting point live in the
support, so their difference cannot leave 2K.

The acceptance ratio is computed in log space and one uniform coin is
consumed per step whether or not the proposal can be rejected, which keeps
the random stream independent of the data.  There is one kernel,
``run_ensemble``, no trial's arithmetic depending on another's, and
``filter_run`` is its one-trial case.  It draws every trial's origin in
one batched inverse-CDF pass and runs the steps in blocks, each through one
of two bodies chosen by the ensemble's width m * d.  A wide ensemble steps
all its trials in lockstep, one vectorized filter step at a time.  A
narrow one (``filter_run`` among them) pre-fetches: each trial assumes its
next few steps are all accepted, decides them in one call and commits up to
its first rejection.  Both bodies compute the same floats and decisions.
The kernel checks 2K containment once per block of steps rather than after
each step; the first violation it reports (step, lowest trial, accepted
sum) is the one a per-step check would report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .bodies import Density, _integer, _seed

__all__ = [
    "ContainmentError",
    "Trajectory",
    "EnsembleResult",
    "filter_run",
    "run_ensemble",
    "rejection_rate_exact_1d",
    "rejection_rate_monte_carlo",
]

# slack for the 2K containment assertion, per unit of half-width
_CONTAINMENT_TOL = 1e-9
# float64 values of the position buffer run_ensemble checks containment on;
# a block is as many steps as fit, and at least one
_PATH_BUDGET = 1 << 16
# widest ensemble (trials * dimension) that takes the speculative body, and
# how many steps each of its trials assumes accepted per log_density call
_SPECULATIVE_WIDTH = 128
_WINDOW = 16

# Gauss-Legendre rule for the 1-d rejection rate, built once: leggauss is ~1.5 ms
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)

SeedLike = Union[int, np.random.SeedSequence]


class ContainmentError(RuntimeError):
    """An accepted partial sum left the doubled support box."""


@dataclass(frozen=True)
class EnsembleResult:
    """Final states of many filtered walks run together by ``run_ensemble``."""

    origins: np.ndarray  # (m, d)
    finals: np.ndarray  # (m, d)
    accepted: np.ndarray  # (m, n) bool
    max_abs_sums: np.ndarray  # (m,) running max of |accepted sum| over all prefixes

    @property
    def discards(self) -> np.ndarray:
        return self.accepted.shape[1] - self.accepted.sum(axis=1)

    @property
    def accepted_sums(self) -> np.ndarray:
        return self.finals - self.origins


def run_ensemble(density: Density, steps, seeds: Sequence[SeedLike]) -> EnsembleResult:
    """Advance m trials together, block by block.

    ``steps`` has shape (m, n, d): each trial gets its own step sequence.
    Trial i draws its origin (one (1, d) row of uniforms through
    ``density.quantile``) and then its n coins from
    ``np.random.default_rng(seeds[i])``, so a trial's result does not depend
    on the others.  Steps run in blocks of ``max(1, _PATH_BUDGET // (m * d))``;
    each block's steps must be finite (ValueError otherwise, before the
    block runs).  After a block, raises ContainmentError for its first step
    where any trial's accepted sum left the doubled support, naming the
    lowest such trial.

    A block runs through one of two bodies, chosen by the ensemble's width
    m * d alone.  Wide ensembles (above ``_SPECULATIVE_WIDTH``) step all
    trials in lockstep, one vectorized filter step at a time.  Narrow ones
    take ``_accept_runs``, which commits each trial's run of accepted steps
    a window at a time.  Both make the same floats and the same decisions.
    """
    steps = np.ascontiguousarray(steps, dtype=float)  # the windows read it as (m * n, d)
    if steps.ndim != 3 or steps.shape[2] != density.dimension:
        raise ValueError("steps must have shape (m, n, d)")
    m, n, d = steps.shape
    if m < 1:
        raise ValueError("need at least one trial")
    if len(seeds) != m:
        raise ValueError("need one seed per trial")
    speculative = m * d <= _SPECULATIVE_WIDTH
    gens = [np.random.default_rng(_seed("seeds", s)) for s in seeds]
    origins = density.quantile(np.concatenate([g.uniform(size=(1, d)) for g in gens]))
    # trial-major (m, n) for the windows, step-major (n, m) for the lockstep rows
    coins = np.stack([g.uniform(size=n) for g in gens], axis=0 if speculative else 1)
    hw = density.support.half_widths
    with np.errstate(over="ignore"):  # inf for T near 9e307, where no finite |sum| exceeds it
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
        if speculative:
            positions = _accept_runs(
                density, steps, coins, current, log_current, accepted, path, start, stop
            )
        else:
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
            positions = path[: stop - start]
        _check_containment(positions, origins, limit, max_abs, start)
    return EnsembleResult(
        origins=origins, finals=current, accepted=accepted, max_abs_sums=max_abs
    )


def _accept_runs(
    density, steps, coins, current, log_current, accepted, path, start, stop
) -> np.ndarray:
    """Filter steps [start, stop) of every trial, a window of accept runs at a time.

    Pre-fetching Metropolis (Brockwell 2006): each trial assumes its next
    ``_WINDOW`` steps are all accepted, builds those candidates as one
    sequential cumsum from ``current`` (the floats the per-step loop makes),
    decides the whole (m, W) window with one ``log_density`` call, and
    commits its steps up to and including the first rejection.  Windows
    are clipped at the block end, and each trial keeps its own step
    pointer.  ``coins`` is trial-major (m, n); ``current``, ``log_current``
    and ``accepted`` are updated in place.

    Returns the block's (b, m, d) positions in ``path``, rebuilt from
    ``accepted`` by one sequential cumsum down the steps from the block's
    start.  A discarded step adds -0.0, the exact additive identity (+0.0
    would turn a -0.0 coordinate into 0.0), so each row is the float the
    walk held.
    """
    m, n, d = steps.shape
    flat_steps = steps.reshape(m * n, d)
    flat_coins = coins.reshape(m * n)
    rows = np.arange(m)
    offsets = np.arange(_WINDOW)
    head = rows * n + start  # each trial's next step, as a flat index
    end = rows * n + stop
    last = (end - 1)[:, None]
    idx = np.empty((m, _WINDOW), dtype=np.intp)
    run = np.empty(m, dtype=np.intp)
    # column 0 holds the committed state, the window's candidates follow it
    cand = np.empty((m, _WINDOW + 1, d))
    logs = np.empty((m, _WINDOW + 1))
    cand[:, 0] = current
    logs[:, 0] = log_current
    prob = np.empty((m, _WINDOW))
    # the last column stays False, so a fully accepted window's argmin is W
    ok = np.zeros((m, _WINDOW + 1), dtype=bool)
    rejected = []  # flat indices of the committed rejections
    # candidates past a window's first rejection, or past its block end, are
    # never committed: their overflow and the NaN of -inf - -inf do not matter
    with np.errstate(over="ignore", invalid="ignore"):
        while (avail := np.minimum(end - head, _WINDOW)).max() > 0:
            np.add(head[:, None], offsets, out=idx)
            np.minimum(idx, last, out=idx)  # a window past the block end repeats its last step
            cand[:, 1:] = flat_steps.take(idx, axis=0, mode="clip")
            np.add.accumulate(cand, axis=1, out=cand)  # a sequential cumsum
            logs[:, 1:] = density.log_density(cand[:, 1:])
            np.subtract(logs[:, 1:], logs[:, :-1], out=prob)
            np.minimum(prob, 0.0, out=prob)
            np.exp(prob, out=prob)
            np.less(flat_coins.take(idx, mode="clip"), prob, out=ok[:, :-1])
            np.minimum(ok.argmin(axis=1), avail, out=run)  # accepted steps to commit
            cand[:, 0] = cand[rows, run]
            logs[:, 0] = logs[rows, run]
            head += run
            hit = run < avail  # the window's first rejection is committed too
            rejected.append(head[hit])
            head += hit
    accepted[:, start:stop] = True
    accepted.reshape(m * n)[np.concatenate(rejected)] = False
    moves = path[: stop - start]
    np.copyto(moves, steps[:, start:stop].transpose(1, 0, 2))
    np.copyto(moves, -0.0, where=~accepted[:, start:stop].T[:, :, None])
    moves[0] += current  # the sums run from the block's start, as cumsum([current, ...])
    current[...] = cand[:, 0]
    log_current[...] = logs[:, 0]
    return np.cumsum(moves, axis=0, out=moves)


def _check_containment(positions, origins, limit, max_abs, start) -> None:
    """Fold a block's (b, m, d) positions into ``max_abs`` and check 2K.

    ``positions`` is overwritten with the accepted sums.  Raises
    ContainmentError for the block's first step where a trial's sum left
    ``limit``, naming the lowest such trial; block step j is step start + j.
    """
    sums = np.subtract(positions, origins, out=positions)
    dist = np.abs(sums)
    block_max = dist.max(axis=0)  # (m, d)
    np.maximum(max_abs, block_max.max(axis=-1), out=max_abs)
    if (block_max > limit).any():
        # argwhere is row-major: the first step, then its lowest trial
        j, trial = (int(i) for i in np.argwhere((dist > limit).any(axis=-1))[0])
        raise ContainmentError(
            f"trial {trial} accepted sum {sums[j, trial]} left 2K at step {start + j}"
        )


@dataclass(frozen=True)
class Trajectory:
    """One filtered walk: ``run_ensemble`` with a single trial."""

    origin: np.ndarray  # (d,)
    final: np.ndarray  # (d,)
    accepted: np.ndarray  # (n,) bool
    max_abs_sum: float  # running max of |accepted sum| over all prefixes

    @property
    def n_steps(self) -> int:
        return int(self.accepted.size)

    @property
    def n_discarded(self) -> int:
        return self.n_steps - int(np.count_nonzero(self.accepted))


def filter_run(density: Density, signed_steps, rng_seed: SeedLike) -> Trajectory:
    """Filter one (n, d) step sequence: ``run_ensemble`` with one trial.

    Raises what the ensemble raises, so a containment message reads
    ``trial 0 accepted sum ... left 2K at step k``.
    """
    steps = np.asarray(signed_steps, dtype=float)
    if steps.size == 0:
        steps = steps.reshape(0, density.dimension)
    if steps.ndim != 2 or steps.shape[1] != density.dimension:
        raise ValueError("signed_steps must have shape (n, d)")
    result = run_ensemble(density, steps[None], [_seed("rng_seed", rng_seed)])
    return Trajectory(
        origin=result.origins[0],
        final=result.finals[0],
        accepted=result.accepted[0],
        max_abs_sum=float(result.max_abs_sums[0]),
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
    n = _integer("n_steps", n_steps, 1)
    rng = np.random.default_rng(_seed("rng_seed", rng_seed))
    points = density.sample(rng, n)
    log_pi = np.asarray(density.log_density(points), dtype=float)
    log_pi_shift = np.asarray(density.log_density(points + v), dtype=float)
    accept_prob = np.exp(np.minimum(0.0, log_pi_shift - log_pi))
    rejected = rng.uniform(size=n) >= accept_prob
    freq = float(np.mean(rejected))
    std_error = float(np.sqrt(freq * (1.0 - freq) / n))
    return freq, std_error
