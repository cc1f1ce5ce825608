"""Online step-discarding filter for symmetric walks.

Each incoming signed step is accepted with the classical Metropolis
probability min(pi(w + v) / pi(w), 1) for a fixed stationary density pi.
Started from a pi-distributed point, the filtered walk stays pi-distributed
forever, and the running sum of accepted steps is trapped in twice the
support box: both the current point and the starting point live in the
support, so their difference cannot leave 2K.

The acceptance ratio is computed in log space and one uniform coin is
consumed per step whether or not the proposal can be rejected, which keeps
the random stream independent of the data.  There is one kernel, the walk
``_Walk``, no trial's arithmetic depending on another's: it draws every
trial's origin in one batched inverse-CDF pass, then filters the steps as
the chunks over n it is given, drawing each chunk's coins when it reaches
it, and returns each chunk's accept flags; it keeps only each trial's
point and running max, so a streamed run holds one chunk of steps, coins
and flags.  The harness runs every slab through it, whatever the step
kind, and counts each chunk's discards as it comes; ``run_ensemble`` is
its one-chunk case and ``filter_run`` that with one trial.  The kernel
runs the steps in blocks, each through one of two bodies chosen by the
ensemble's width m * d.  A wide ensemble steps all its trials in
lockstep, one vectorized filter step at a time.  A narrow one
(``filter_run`` among them) pre-fetches: each trial assumes its next few
steps are all accepted, decides them in one call and commits up to its
first rejection; its windows read a copy of the block padded by coins of
1.0, which no accept test passes, so none is clipped at the block end.
Both bodies compute the same floats and decisions, by one accept test.
The kernel checks 2K containment once per block of steps rather than
after each step; the first violation it reports (step, lowest trial,
accepted sum) is the one a per-step check would report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import bodies
from .bodies import Density, _number, _reals, _seed, _slabs

__all__ = [
    "ContainmentError",
    "Trajectory",
    "EnsembleResult",
    "filter_run",
    "run_ensemble",
    "rejection_rate_exact_1d",
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
    one float whatever the layout.  This is ``_Walk`` run on all n steps
    as one chunk.
    """
    steps = _reals("steps", steps)
    if steps.ndim != 3 or steps.shape[2] != density.dimension:
        raise ValueError("steps must have shape (m, n, d)")
    if len(steps) < 1:
        raise ValueError("need at least one trial")
    if len(seeds) != len(steps):
        raise ValueError("need one seed per trial")
    walk = _Walk(density, seeds)
    accepted = walk.run(steps)
    return EnsembleResult(origins=walk.origins, finals=walk.state.T.copy(), accepted=accepted,
                          max_abs_sums=walk.max_abs)


def _chunk_length(width: int) -> int:
    """Steps in each chunk a ``_Walk`` takes from a stream ``width``
    (trials * d) lanes wide: whole kernel blocks of ``_slab_items(width)``
    steps, at least ``_SLAB // 16`` steps, so that a trial's draw of a
    chunk's signs or coins is long enough for the call's own cost not to
    show, and an odd number of blocks.  An even count of power-of-two
    blocks (32 steps at 2048 lanes) puts the trials' rows a multiple of
    4 KiB apart, on the same cache sets: 2000 trials of 2e4 +-1 steps ran
    ~10% slower so."""
    block = bodies._slab_items(width)
    return block * (max(1, -(-(bodies._SLAB // 16) // block)) | 1)


class _Walk:
    """m filtered walks, trial i's from ``seeds[i]``, advanced a chunk of steps at a time.

    Set up once: each trial's filter generator, its origin (one (1, d) row
    of uniforms through ``density.quantile``, drawn for all trials in one
    batched pass), the axis-major (d, m) state and its log densities, and
    the running max of each |accepted sum|.  ``run`` filters the next
    chunk; each trial's coins for it are drawn when it is reached, and
    numpy draws the same coins in pieces as in one call.  A chunk of whole
    kernel blocks (``_chunk_length``) runs the blocks one pass would; any
    chunking gives the same floats and decisions, as each block resumes
    from the walk's state.  Nothing the walk keeps grows with n.
    """

    def __init__(self, density: Density, seeds):
        m, d = len(seeds), density.dimension
        self.density = density
        self.gens = [np.random.default_rng(_seed("seeds", s)) for s in seeds]
        self.origins = density.quantile(np.concatenate([g.uniform(size=(1, d)) for g in self.gens]))
        hw = density.support.half_widths
        with np.errstate(over="ignore"):  # inf for T near 9e307, where no finite |sum| exceeds it
            self.limit = (2.0 * hw + _CONTAINMENT_TOL * hw)[:, None]
        # axis-major (d, m), so the lockstep body's masked copies run along rows
        self.first = self.origins.T.copy()
        self.state = self.first.copy()
        self.log_current = np.asarray(density.log_density(self.state.T), dtype=float)
        self.max_abs = np.zeros(m)
        self.done = 0  # steps of every trial filtered so far

    def run(self, steps: np.ndarray) -> np.ndarray:
        """Filter the next (m, c, d) chunk of float steps; its (m, c) accept flags."""
        m, c, d = steps.shape
        density, state, log_current = self.density, self.state, self.log_current
        # trial-major (m, c), filled in place: random(out=row) gives uniform(size=c)'s doubles
        coins = np.empty((m, c))
        for i, g in enumerate(self.gens):
            g.random(out=coins[i])
        accepted = np.empty((m, c), dtype=bool)
        proposal, prob = np.empty((d, m)), np.empty(m)
        for block in _slabs(c, m * d):
            if not np.isfinite(steps[:, block]).all():
                raise ValueError("steps have non-finite entries")
            if m * d <= _SPECULATIVE_WIDTH:
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
            accepted[:, block] = acc
            _check_containment(positions, self.first, self.limit, self.max_abs,
                               self.done + block.start)
        self.done += c
        return accepted


def _accept(coins, log_ratio, out=None) -> np.ndarray:
    """The accept test coins < exp(min(log_ratio, 0)), overwriting ``log_ratio``."""
    np.minimum(log_ratio, 0.0, out=log_ratio)
    return np.less(coins, np.exp(log_ratio, out=log_ratio), out=out)


def _accept_runs(density, steps, coins, current, log_current, block) -> tuple:
    """Filter a chunk's ``block`` of every trial's steps, a window of accept runs at a time.

    Pre-fetching Metropolis (Brockwell 2006): each trial assumes its next
    ``_WINDOW`` steps are all accepted, builds those candidates as one
    sequential cumsum from ``current`` (the floats the per-step loop makes),
    decides the whole (W, m) window with one ``log_density`` call on a
    contiguous step-major block, and commits its steps up to and including
    the first rejection.  Each trial's steps and coins are copied into one
    row padded by W steps of 0.0 and coins of 1.0, which no accept test
    passes, so no window is clipped: a trial stops at its block end, is
    held there by a ``np.minimum``, and its rejections there are dropped.
    A round moves a trial at most W steps, so the block end is looked for
    once per ceil(max steps left / W) rounds.  ``steps`` is the (m, c, d)
    chunk and ``coins`` its trial-major (m, c) coins; ``current`` and
    ``log_current`` are updated in place.

    Returns the block's (m, b) decisions and its axis-major (b, d, m)
    positions, a view of the padded steps, rebuilt in place from the
    decisions by one sequential cumsum along each trial's steps from the
    block's start.  A discarded step adds -0.0, the exact
    additive identity (+0.0 would turn a -0.0 coordinate into 0.0), so each
    row is the float the walk held.
    """
    m, _, d = steps.shape
    w, b = _WINDOW, block.stop - block.start
    span = b + w  # a trial's padded row
    padded = np.zeros((m, span, d))
    padded[:, :b] = steps[:, block]
    padded_coins = np.ones((m, span))
    padded_coins[:, :b] = coins[:, block]
    flat_steps = padded.reshape(m * span, d)
    flat_coins = padded_coins.reshape(m * span)
    head = np.arange(0, m * span, span)  # each trial's next step, as a flat index
    end = head + b
    offsets = np.arange(w)[:, None]
    rows = np.arange(m)
    idx = np.empty((w, m), dtype=np.intp)
    run = np.empty(m, dtype=np.intp)
    hit = np.empty(m, dtype=bool)
    # step-major: row 0 holds the committed state, the window's candidates follow it
    cand = np.empty((w + 1, m, d))
    logs = np.empty((w + 1, m))
    cand[0] = current
    logs[0] = log_current
    window, window_logs, last_logs = cand[1:], logs[1:], logs[:-1]
    window_coins, prob = np.empty((w, m)), np.empty((w, m))
    # the last row stays False, so a fully accepted window's argmin is W
    ok = np.zeros((w + 1, m), dtype=bool)
    window_ok = ok[:-1]
    # True at each trial's committed rejections; a fully accepted window
    # writes False at the step after it, which no round has decided yet
    rejected = np.zeros(m * span, dtype=bool)
    # candidates past a window's first rejection, or past its block end, are
    # never committed: their overflow and the NaN of -inf - -inf do not matter
    with np.errstate(over="ignore", invalid="ignore"):
        while (left := int(np.subtract(end, head).max())) > 0:
            for _ in range(-(-left // w)):
                # every index is in range, and "clip" takes into out= unbuffered
                flat_steps.take(np.add(head, offsets, out=idx), axis=0, out=window, mode="clip")
                np.add.accumulate(cand, axis=0, out=cand)  # a sequential cumsum
                window_logs[...] = density.log_density(window)
                np.subtract(window_logs, last_logs, out=prob)
                _accept(flat_coins.take(idx, out=window_coins, mode="clip"), prob, window_ok)
                ok.argmin(axis=0, out=run)  # accepted steps to commit
                cand[0] = cand[run, rows]
                logs[0] = logs[run, rows]
                np.less(run, w, out=hit)  # the window's first rejection is committed too
                rejected.put(np.add(head, run, out=head), hit)
                # a trial at its block end rejects its padding there, and stays
                np.minimum(np.add(head, hit, out=head), end, out=head)
    rejected = rejected.reshape(m, span)[:, :b]
    moves = padded[:, :b]
    np.copyto(moves, -0.0, where=rejected[:, :, None])
    moves[:, 0] += current  # the sums run from the block's start, as cumsum([current, ...])
    current[...] = cand[0]
    log_current[...] = logs[0]
    return ~rejected, np.cumsum(moves, axis=1, out=moves).transpose(1, 2, 0)


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

