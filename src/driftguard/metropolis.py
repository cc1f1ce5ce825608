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
``_run_chunks``, no trial's arithmetic depending on another's: it draws
every trial's origin in one batched inverse-CDF pass, then takes the steps
as chunks over n, drawing each chunk's coins when it reaches it, so a
streamed run holds one chunk of steps and coins.  The harness filters
every slab through it, whatever the step kind; ``run_ensemble`` is its
one-chunk case and ``filter_run`` that with one trial.  The kernel runs
the steps in blocks, each through one of two bodies chosen by the
ensemble's width m * d.  A wide ensemble steps all its trials in lockstep,
one vectorized filter step at a time.  A narrow one (``filter_run`` among
them) pre-fetches: each trial assumes its next few steps are all accepted,
decides them in one call and commits up to its first rejection.  Both
bodies compute the same floats and decisions, by one accept test that
``rejection_rate_monte_carlo`` shares.  The kernel checks 2K containment
once per block of steps rather than after each step; the first violation
it reports (step, lowest trial, accepted sum) is the one a per-step check
would report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import bodies
from .bodies import Density, _integer, _number, _reals, _seed, _slabs

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
# widest ensemble (trials * dimension) that takes the speculative body, and
# how many steps each of its trials assumes accepted per log_density call
_SPECULATIVE_WIDTH = 128
_WINDOW = 16
# narrowest width (trials * dimension) at which the lockstep body's per-step
# numpy calls are amortised; the harness runs trials in slabs this wide
_LOCKSTEP_WIDTH = 2048

# nodes of the 1-d rejection rate's Gauss-Legendre rule
_GL_NODES = 64

SeedLike = Union[int, np.random.bit_generator.ISeedSequence]


class ContainmentError(RuntimeError):
    """An accepted partial sum left the doubled support box.

    The kernel raises it for the least ``step`` and, at that step, the
    lowest ``trial``, whose sum then was ``accepted_sum``.  The three are
    also ``args``, so a pickled copy keeps them, and the text is made from them.
    """

    def __init__(self, step: int, trial: int, accepted_sum: np.ndarray):
        super().__init__(step, trial, accepted_sum)
        self.step, self.trial, self.accepted_sum = step, trial, accepted_sum

    def __str__(self) -> str:
        return f"trial {self.trial} accepted sum {self.accepted_sum} left 2K at step {self.step}"


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

    ``steps`` is an (m, n, d) array of ints or floats, one sequence a trial.
    Trial i draws its origin (one (1, d) row of uniforms through
    ``density.quantile``) and then its n coins from
    ``np.random.default_rng(seeds[i])``, so a trial's result does not depend
    on the others.  Steps run in blocks of ``bodies._slabs(n, m * d)``, so a
    block's (b, m, d) positions are one slab; each block's steps must be
    finite (ValueError otherwise, before the block runs).  After a block,
    raises ContainmentError for its first step where any trial's accepted
    sum left the doubled support, naming the lowest such trial.

    A block runs through one of two bodies, chosen by the ensemble's width
    m * d alone.  Wide ensembles (above ``_SPECULATIVE_WIDTH``) step all
    trials in lockstep, one vectorized filter step at a time, on an
    axis-major (d, m) state.  Narrow ones take ``_accept_runs``, which
    commits each trial's run of accepted steps a window at a time.  Both
    make the same floats and decisions, as ``log_density`` gives each point
    one float whatever the layout.  This is ``_run_chunks`` with all n steps
    as one chunk.
    """
    steps = np.ascontiguousarray(_reals("steps", steps))  # the windows read it as (m * c, d)
    if steps.ndim != 3 or steps.shape[2] != density.dimension:
        raise ValueError("steps must have shape (m, n, d)")
    m, n, d = steps.shape
    if m < 1:
        raise ValueError("need at least one trial")
    if len(seeds) != m:
        raise ValueError("need one seed per trial")
    return _run_chunks(density, seeds, n, [steps])


def _chunk_length(width: int) -> int:
    """Steps in each chunk ``_run_chunks`` takes from a stream ``width``
    (trials * d) lanes wide: whole kernel blocks of ``_slab_items(width)``
    steps, at least ``_SLAB // 16`` steps, so that a trial's draw of a
    chunk's signs or coins is long enough for the call's own cost not to
    show, and an odd number of blocks.  An even count of power-of-two
    blocks (32 steps at 2048 lanes) puts the trials' rows a multiple of
    4 KiB apart, on the same cache sets: 2000 trials of 2e4 +-1 steps ran
    ~10% slower so."""
    block = bodies._slab_items(width)
    return block * (max(1, -(-(bodies._SLAB // 16) // block)) | 1)


def _run_chunks(density: Density, seeds, n: int, chunks) -> EnsembleResult:
    """``run_ensemble`` of m trials with their n steps as (m, c, d) chunks, in order.

    The origins, filter generators and walk state are set up once.  Each
    C-contiguous float chunk is filtered as it comes, and each trial's c
    coins are drawn when it is reached; numpy draws the same coins in
    pieces as in one call.  A chunk of whole kernel blocks
    (``_chunk_length``) runs the blocks one pass would; any chunking gives
    the same floats and decisions, as each block resumes from the walk's
    state.  Beyond a chunk, only the (m, n) accept flags grow with n.
    """
    m, d = len(seeds), density.dimension
    speculative = m * d <= _SPECULATIVE_WIDTH
    gens = [np.random.default_rng(_seed("seeds", s)) for s in seeds]
    origins = density.quantile(np.concatenate([g.uniform(size=(1, d)) for g in gens]))
    hw = density.support.half_widths
    with np.errstate(over="ignore"):  # inf for T near 9e307, where no finite |sum| exceeds it
        limit = (2.0 * hw + _CONTAINMENT_TOL * hw)[:, None]
    # axis-major (d, m), so the lockstep body's masked copies run along rows
    first = origins.T.copy()
    state = first.copy()
    log_current = np.asarray(density.log_density(state.T), dtype=float)
    accepted = np.zeros((m, n), dtype=bool)
    max_abs = np.zeros(m)
    proposal = np.empty((d, m))
    prob = np.empty(m)
    done = 0  # steps of every trial filtered so far
    for steps in chunks:
        c = steps.shape[1]
        # trial-major (m, c), filled in place: random(out=row) gives uniform(size=c)'s doubles
        coins = np.empty((m, c))
        for i, g in enumerate(gens):
            g.random(out=coins[i])
        for block in _slabs(c, m * d):
            if not np.isfinite(steps[:, block]).all():
                raise ValueError("steps have non-finite entries")
            if speculative:
                acc, positions = _accept_runs(density, steps, coins, state.T, log_current, block)
            else:
                positions = np.empty((block.stop - block.start, d, m))
                # the block's coins and decisions, step-major (b, m)
                step_coins = np.ascontiguousarray(coins[:, block].T)
                acc = np.empty(step_coins.shape, dtype=bool)
                for j, k in enumerate(range(block.start, block.stop)):
                    np.add(state, steps[:, k].T, out=proposal)
                    log_new = density.log_density(proposal.T)
                    _accept(step_coins[j], np.subtract(log_new, log_current, out=prob), acc[j])
                    np.copyto(state, proposal, where=acc[j])
                    np.copyto(log_current, log_new, where=acc[j])
                    positions[j] = state
                acc = acc.T
            accepted[:, done + block.start : done + block.stop] = acc
            _check_containment(positions, first, limit, max_abs, done + block.start)
        done += c
        del steps, coins  # before the next chunk is drawn, so one chunk is alive
    return EnsembleResult(
        origins=origins, finals=state.T.copy(), accepted=accepted, max_abs_sums=max_abs
    )


def _accept(coins, log_ratio, out=None) -> np.ndarray:
    """The accept test coins < exp(min(log_ratio, 0)), overwriting ``log_ratio``."""
    np.minimum(log_ratio, 0.0, out=log_ratio)
    return np.less(coins, np.exp(log_ratio, out=log_ratio), out=out)


def _accept_runs(density, steps, coins, current, log_current, block) -> tuple:
    """Filter a chunk's ``block`` of every trial's steps, a window of accept runs at a time.

    Pre-fetching Metropolis (Brockwell 2006): each trial assumes its next
    ``_WINDOW`` steps are all accepted, builds those candidates as one
    sequential cumsum from ``current`` (the floats the per-step loop makes),
    decides the whole (m, W) window with one ``log_density`` call, and
    commits its steps up to and including the first rejection.  Windows
    are clipped at the block end, and each trial keeps its own step
    pointer.  ``steps`` is the (m, c, d) chunk and ``coins`` its trial-major
    (m, c) coins; ``current`` and ``log_current`` are updated in place.

    Returns the block's (m, b) decisions and its axis-major (b, d, m)
    positions, rebuilt from the decisions by one sequential cumsum down the
    steps from the block's start.  A discarded step adds -0.0, the exact
    additive identity (+0.0 would turn a -0.0 coordinate into 0.0), so each
    row is the float the walk held.
    """
    m, c, d = steps.shape
    start, stop = block.start, block.stop
    flat_steps = steps.reshape(m * c, d)
    flat_coins = coins.reshape(m * c)
    rows = np.arange(m)
    offsets = np.arange(_WINDOW)
    head = rows * c + start  # each trial's next step, as a flat index into the chunk
    end = rows * c + stop
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
    rejected = []  # flat chunk indices of the committed rejections
    # candidates past a window's first rejection, or past its block end, are
    # never committed: their overflow and the NaN of -inf - -inf do not matter
    with np.errstate(over="ignore", invalid="ignore"):
        while np.maximum.reduce(avail := np.minimum(end - head, _WINDOW)) > 0:
            np.add(head[:, None], offsets, out=idx)
            np.minimum(idx, last, out=idx)  # a window past the block end repeats its last step
            cand[:, 1:] = flat_steps.take(idx, axis=0, mode="clip")
            np.add.accumulate(cand, axis=1, out=cand)  # a sequential cumsum
            logs[:, 1:] = density.log_density(cand[:, 1:])
            np.subtract(logs[:, 1:], logs[:, :-1], out=prob)
            _accept(flat_coins.take(idx, mode="clip"), prob, ok[:, :-1])
            np.minimum(ok.argmin(axis=1), avail, out=run)  # accepted steps to commit
            cand[:, 0] = cand[rows, run]
            logs[:, 0] = logs[rows, run]
            head += run
            hit = run < avail  # the window's first rejection is committed too
            rejected.append(head[hit])
            head += hit
    acc = np.ones((m, stop - start), dtype=bool)
    trial, step = np.divmod(np.concatenate(rejected), c)
    acc[trial, step - start] = False
    moves = steps[:, block].transpose(1, 2, 0).copy()  # a copy, not a view, even at m = 1
    np.copyto(moves, -0.0, where=~acc.T[:, None])
    moves[0] += current.T  # the sums run from the block's start, as cumsum([current, ...])
    current[...] = cand[:, 0]
    log_current[...] = logs[:, 0]
    return acc, np.cumsum(moves, axis=0, out=moves)


def _check_containment(positions, origins, limit, max_abs, start) -> None:
    """Fold a block's axis-major (b, d, m) positions into ``max_abs`` and check 2K.

    ``origins`` is (d, m), ``limit`` (d, 1), and ``positions`` is overwritten
    with the accepted sums.  Raises ContainmentError for the block's first
    step where a trial's sum left ``limit``, naming the lowest such trial;
    block step j is step start + j.
    """
    sums = np.subtract(positions, origins, out=positions)
    dist = np.abs(sums)
    block_max = dist.max(axis=0)  # (d, m)
    np.maximum(max_abs, block_max.max(axis=0), out=max_abs)
    if (block_max > limit).any():
        # argwhere is row-major: the first step, then its lowest trial
        j, trial = (int(i) for i in np.argwhere((dist > limit).any(axis=1))[0])
        raise ContainmentError(start + j, trial, sums[j, :, trial].copy())  # not a view of the block


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
    steps = _reals("signed_steps", signed_steps)
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
    v = abs(_number("step", step))
    if v >= 2.0 * float(density.support.half_widths[0]):
        return 1.0
    # v * mean of pi on (0, v/2): the halved weights sum to 1, so no overflow
    nodes, weights = bodies._leggauss(_GL_NODES)
    x = (0.25 * v) * (1.0 + nodes)
    mean_pi = float(np.sum((0.5 * weights) * np.exp(density.log_density(x[:, None]))))
    return min(v * mean_pi, 1.0)


def rejection_rate_monte_carlo(
    density: Density, step, n_steps: int, rng_seed: SeedLike
) -> tuple[float, float]:
    """Monte Carlo discard frequency of one filter step from stationarity.

    ``step`` is d finite ints or floats, read by ``bodies._reals``.  Draws
    ``n_steps`` independent stationary points, proposes x + step from each
    with a fresh coin, and returns (frequency, standard error).
    """
    v = _reals("step", step)
    if v.shape != (density.dimension,):
        raise ValueError("step dimension mismatch")
    if not np.all(np.isfinite(v)):
        raise ValueError("step has non-finite entries")
    n = _integer("n_steps", n_steps, 1)
    rng = np.random.default_rng(_seed("rng_seed", rng_seed))
    points = density.sample(rng, n)
    log_pi = np.asarray(density.log_density(points), dtype=float)
    log_pi_shift = np.asarray(density.log_density(points + v), dtype=float)
    rejected = ~_accept(rng.uniform(size=n), log_pi_shift - log_pi)
    freq = float(np.mean(rejected))
    std_error = float(np.sqrt(freq * (1.0 - freq) / n))
    return freq, std_error
