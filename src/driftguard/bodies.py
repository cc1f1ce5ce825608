"""Axis-aligned boxes, stationary densities on them, and Fisher information.

The central density here is the squared ground-state eigenfunction of the
Dirichlet Laplacian on a box, which factorizes per coordinate as

    x -> T**-1 * cos(pi * x / (2 T))**2       on (-T, T).

Its Fisher information matrix (the covariance of the log-density gradient)
is available three ways: in closed form for cubes, by one Gauss-Legendre
rule per axis, and by Monte Carlo, the last two in any dimension.
The trace of that matrix equals four times the principal Dirichlet
eigenvalue of the box, which is what ties step budgets to the geometry.

Independent work runs over processes here too: ``_fork_map`` runs a list
of items, each after the first in a forked child, and ``_cpus`` decides
how many processes may run at once.  The Monte Carlo estimator splits its
chunks over them, and ``harness`` its trial shards.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "Box",
    "Density",
    "FisherMatrix",
    "cube_eigen_density",
    "dirichlet_lambda1_box",
    "fisher_closed_form_cube",
    "fisher_quadrature",
    "fisher_monte_carlo",
    "fisher_operator_norm",
]

# Newton steps of the cube quantile, and the phi below which phi - sin(phi)
# cancels and is summed as phi**3 * sum_k (-1)**k phi**(2k) / (2k+3)! instead
# (coefficients highest power first, for np.polyval; truncated at 1e-19).
_KEPLER_STEPS = 5
_KEPLER_SERIES_CUTOFF = 1.0
_KEPLER_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in reversed(range(9)))
# the rejection draw's squeeze: Bhaskara's rational sine, squared, is within
# 0.0021428 of sin(pi u)**2 on [0, 1] (its max on a 2e7-point grid), so a
# coin farther than this from it is decided without np.sin
_SQUEEZE_MARGIN = 0.0025
# float64 values per slab of every pass over arrays that grow with the input:
# the quantile, the quadrature's axes, the bound pass and the filter kernel's blocks
_SLAB = 1 << 16
# cgroup CPU quota files: v2's "quota period" (quota "max" is no cap), and
# v1's quota and period in microseconds (quota -1 is no cap)
_CPU_MAX = "/sys/fs/cgroup/cpu.max"
_CFS_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
_CFS_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"
_SYMMETRY_TOL = 1e-12  # FisherMatrix's tolerances, relative to the largest entry
_PSD_FLOOR = -1e-9

ArrayLike = Union[Sequence[float], np.ndarray]


def _integer(name: str, value, minimum: Optional[int] = None) -> int:
    """``value`` as an int: ints, numpy ints and integral floats (3.0 counts as
    3) pass, and bools, other floats (NaN and inf too) and strings raise
    ValueError, as does a value below ``minimum``."""
    if type(value) is not int:  # a plain int skips the type checks
        integral = isinstance(value, (int, np.integer)) or (
            isinstance(value, (float, np.floating)) and float(value).is_integer()
        )
        if isinstance(value, bool) or not integral:
            raise ValueError(f"{name} must be an integer, not {value!r}")
        value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")
    return value


def _slabs(count: int, width: int) -> Iterator[slice]:
    """Slices tiling range(count), each of ``_slab_items(width)`` items."""
    size = _slab_items(width)
    return (slice(i, min(i + size, count)) for i in range(0, count, size))


def _slab_items(width: int) -> int:
    """Items of ``width`` values that fit in ``_SLAB``: at least 1, and width 0 counts as 1."""
    return max(1, _SLAB // max(1, width))


def _seed(name: str, value):
    """A random seed: a SeedSequence, or any ISeedSequence such as the ones
    ``_trial_seeds`` hashes a slab at a time, as it is; anything else an
    integer of at least 0."""
    return value if isinstance(value, ISeedSequence) else _integer(name, value, 0)


def _hash_chain(constant: int, multiplier: int, count: int) -> tuple[tuple[int, int], ...]:
    """The (xor, multiplier) pairs of ``count`` successive SeedSequence
    hashes: each hash xors by the running constant, then multiplies by the
    constant times ``multiplier`` (mod 2**32), which runs on."""
    pairs = []
    for _ in range(count):
        following = constant * multiplier & 0xFFFFFFFF
        pairs.append((constant, following))
        constant = following
    return tuple(pairs)


# numpy's SeedSequence constants (O'Neill's seed_seq_fe): the 20 hashes that
# mix 5 entropy words into the 4-word pool, and the 8 that read 4 uint64 off it
_POOL_HASHES = _hash_chain(0x43B0D7E5, 0x931E8875, 20)
_STATE_HASHES = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(words: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    words = (words ^ np.uint32(pair[0])) * np.uint32(pair[1])
    return words ^ words >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    words = _MIX_LEFT * x - _MIX_RIGHT * y
    return words ^ words >> 16


class _HashedSeed:
    """``SeedSequence(entropy, spawn_key=(key,))`` whose ``generate_state(4,
    uint64)``, all a PCG64 asks of it, is the precomputed ``words``; any other
    request is the SeedSequence's own."""

    __slots__ = ("words", "entropy", "key")

    def __init__(self, words: np.ndarray, entropy: tuple[int, int], key: int):
        self.words, self.entropy, self.key = words, entropy, key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self.words.copy()
        seed = np.random.SeedSequence(self.entropy, spawn_key=(self.key,))
        return seed.generate_state(n_words, dtype)


ISeedSequence.register(_HashedSeed)


def _trial_seeds(seed: int, trials: range, key: int) -> list:
    """One seed a trial, each bit-equal to ``SeedSequence((seed, i),
    spawn_key=(key,))``: numpy's hash of the entropy [seed, i, 0, 0, key]
    into its pool and the pool's ``generate_state(4, uint64)``, run as uint32
    array operations over all of ``trials`` at once.  A seed or trial of
    2**32 or more is more than one entropy word, so those get SeedSequences."""
    if not trials or (seed | trials[0] | trials[-1]) >> 32:
        return [np.random.SeedSequence((seed, i), spawn_key=(key,)) for i in trials]
    index = np.arange(trials.start, trials.stop, trials.step, dtype=np.uint32)
    zero = np.zeros_like(index)
    hashes = iter(_POOL_HASHES)
    pool = [_hashmix(word, next(hashes)) for word in (zero + seed, index, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(hashes)))
    for dst in range(4):  # the spawn key, the fifth entropy word
        pool[dst] = _mix(pool[dst], _hashmix(zero + key, next(hashes)))
    halves = [_hashmix(pool[j % 4], pair).astype(np.uint64) for j, pair in enumerate(_STATE_HASHES)]
    words = np.stack([low | high << 32 for low, high in zip(halves[::2], halves[1::2])], axis=1)
    return [_HashedSeed(row, (seed, i), key) for row, i in zip(words, trials)]


def _number(name: str, value) -> float:
    """``value`` as a float: ints, floats and their numpy kinds pass, and bools,
    strings, NaN and values beyond float range (inf too) raise ValueError."""
    if isinstance(value, (np.integer, np.floating)):
        value = value.item()  # compared below as a Python number, without numpy's casts
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not real or not abs(value) <= sys.float_info.max:  # NaN compares False
        raise ValueError(f"{name} must be a finite number, not {value!r}")
    return float(value)


def _reals(name: str, values) -> np.ndarray:
    """``values`` as a float array; ValueError unless ints or floats (bools, strings, objects)."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be ints or floats, not {array.dtype}")
    return array.astype(float, copy=False)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=-1)`` bit for bit.  numpy adds a row of fewer
    than 8 squares left to right, so such rows take the squares of whole
    columns in that order, not one short loop per row; longer rows take
    ``np.linalg.norm`` itself."""
    d = x.shape[-1]
    if not 0 < d < 8:
        return np.linalg.norm(x, axis=-1)
    sums = np.square(x[..., 0])
    for j in range(1, d):
        sums += np.square(x[..., j])
    return np.sqrt(sums, out=sums)


def _cpus() -> int:
    """The processes a run may split its work over: the CPUs this process
    may run on (``taskset`` bounds them), at most a cgroup CPU quota rounded
    up (``_cpu_quota``), or 1 without ``os.fork`` or while other Python
    threads run, since a forked child has only the forking thread and a
    lock another thread held would stay locked in it."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() != 1:
        return 1
    cpus, quota = len(os.sched_getaffinity(0)), _cpu_quota()
    return cpus if quota is None else min(cpus, quota)


def _cpu_quota() -> Optional[int]:
    """The CPUs the cgroup's quota allows, rounded up, or None for no cap:
    v2's ``_CPU_MAX`` if it can be read, else v1's ``_CFS_QUOTA`` over
    ``_CFS_PERIOD``.  A quota of "max" or -1, or files that cannot be read
    or parsed, set no cap."""
    for paths in ((_CPU_MAX,), (_CFS_QUOTA, _CFS_PERIOD)):
        words = []
        try:
            for path in paths:
                with open(path) as file:
                    words += file.read().split()
        except OSError:
            continue
        try:
            quota, period = map(int, words)
        except ValueError:  # "max", or not two numbers
            return None
        return -(-quota // period) if quota > 0 and period > 0 else None
    return None


def _fork_map(fn, items: list, noun: str) -> list:
    """``[fn(item) for item in items]``, each item after the first in a forked child.

    This process runs ``fn(items[0])`` and then unpickles the children's
    results in order, straight from their pipes.  The first failure in item
    order is raised: the exception ``fn`` raised, or ``ChildProcessError``
    naming the item (``noun`` and its index) and the exit status of a child
    that ended without a whole result.  Every child is killed and reaped
    before this returns or raises, ``KeyboardInterrupt`` included.
    """
    children = []  # (pid, read end of its pipe) of each child forked
    reaped = set()
    try:
        for item in items[1:]:
            children.append(_fork(fn, item))
        results = [fn(items[0])]
        for index, (pid, pipe) in enumerate(children, 1):
            try:
                result, whole = pickle.load(pipe), True  # a child of this process wrote it
            except (EOFError, pickle.UnpicklingError):  # no record, or part of one
                whole = False
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.add(pid)
            if status != 0 or not whole:
                how = f"signal {-status}" if status < 0 else f"exit status {status}"
                raise ChildProcessError(f"{noun} {index} ended without a result ({how})")
            if isinstance(result, BaseException):
                raise result
            results.append(result)
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid not in reaped:
                import signal  # 1 ms of import that only a failed run needs, so not at startup

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork(fn, item) -> tuple:
    """Fork a child that pickles ``fn(item)``, or the exception it raised,
    straight into a pipe; returns its pid and the pipe's read end.  The
    child always leaves by ``os._exit``, so it runs no atexit handler and
    flushes no stdio buffer it shares with this process; it exits 1 if it
    could not send its outcome (an unpicklable exception, or
    ``KeyboardInterrupt``)."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            try:
                outcome = fn(item)
            except Exception as exc:
                outcome = exc
            with open(write, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


@dataclass(frozen=True)
class Box:
    """Axis-aligned box prod_i [-T_i, T_i] centered at the origin.

    Each entry of a list or tuple must be an int or a float (numpy's too):
    a bool, a string or a number beyond float range raises ValueError, and
    an array of bools, strings or objects does too (``_reals``).
    """

    half_widths: np.ndarray

    def __post_init__(self) -> None:
        hw = self.half_widths
        if isinstance(hw, (list, tuple)):
            hw = [_number("half_widths", w) for w in hw]
        hw = np.array(_reals("half_widths", hw))  # an own copy
        if hw.ndim != 1 or hw.size < 1:
            raise ValueError("half_widths must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(hw)) or np.any(hw <= 0.0):
            raise ValueError("half_widths must be finite and strictly positive")
        hw.setflags(write=False)
        object.__setattr__(self, "half_widths", hw)

    @classmethod
    def cube(cls, dimension: int, half_width: float) -> "Box":
        return cls(np.full(_integer("dimension", dimension, 1), _number("half_width", half_width)))

    @property
    def dimension(self) -> int:
        return int(self.half_widths.size)

    @property
    def is_cube(self) -> bool:
        return bool(np.all(self.half_widths == self.half_widths[0]))


@dataclass(frozen=True)
class Density:
    """Probability density supported in the open interior of a box.

    ``log_density`` accepts arrays of shape (..., d) and returns (...,)
    log-values, -inf outside the open support; a point's value must not
    depend on the array's layout or the other points.  ``log_gradient`` is only
    defined on interior points.  ``quantile`` maps uniforms of shape
    (..., d) to points of the same shape, each row alike alone or in a batch;
    ``sample`` feeds it ``rng.uniform(size=(n, d))``.  ``draw(rng, n)``,
    keyword-only and optional, gives n points (n, d) from the density by any
    exact method, without the quantile's row-by-row contract;
    ``fisher_monte_carlo`` draws through it, or through ``sample`` when it
    is None.  The dimension d is the support's.  The density must be a
    product of one factor per axis, as ``cube_eigen_density``'s is:
    ``fisher_quadrature`` integrates each axis alone and sets the
    off-diagonal entries to 0.
    """

    support: Box
    log_density: Callable[[ArrayLike], Union[float, np.ndarray]]
    log_gradient: Callable[[ArrayLike], np.ndarray]
    quantile: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    draw: Optional[Callable[[np.random.Generator, int], np.ndarray]] = field(
        default=None, repr=False, kw_only=True)

    @property
    def dimension(self) -> int:
        return self.support.dimension

    def sample(self, rng: np.random.Generator, n: Optional[int] = None) -> np.ndarray:
        """Draw one point (shape (d,)) or ``n`` points (shape (n, d))."""
        rows = 1 if n is None else _integer("n", n, 0)
        pts = self.quantile(rng.uniform(size=(rows, self.dimension)))
        return pts[0] if n is None else pts


def cube_eigen_density(box: Box) -> Density:
    """Squared Dirichlet ground-state density on ``box``.

    pi(x) = prod_i T_i**-1 * cos(pi x_i / (2 T_i))**2, with log-gradient
    component -(pi / T_i) * tan(pi x_i / (2 T_i)).  ``log_density`` adds its
    log |cos| terms in axis order for any memory layout.  ``quantile`` inverts
    the per-coordinate CDF

        F_i(x) = x / (2 T_i) + 1/2 + sin(pi x / T_i) / (2 pi)

    as Kepler's equation phi - sin(phi) = 2 pi v at eccentricity 1, with
    v = min(u, 1 - u) and x = T_i (phi / pi - 1) mirrored for u > 1/2: five
    Newton steps from the edge asymptote (12 pi v)**(1/3) reach ~2 ulp(T_i).
    Below phi = 1, where phi - sin(phi) cancels, a step sums its series
    instead, computed for those elements alone (~5% of uniform draws), into
    buffers made once per slab of rows.  Each element gets the same
    arithmetic wherever it sits, so a batch equals its rows mapped one at a
    time.  ``quantile`` clips samples (u = 0 included) strictly inside the
    box.  ``draw`` samples by per-axis rejection instead: a proposal
    y = 2 u - 1 from U(-1, 1) is kept when a second uniform is below
    cos(pi y / 2)**2 = sin(pi u)**2, about two proposals a coordinate, and
    the kept values fill the rows in order, axis i scaled by T_i and clipped
    inside the box as the quantile's are.  Its proposal rounds hold at most
    ``_SLAB`` uniforms.  A squeeze decides the test: Bhaskara's rational
    sine B = 16 v / (5 - 4 v), v = u (1 - u), has B**2 within 0.0021428 of
    sin(pi u)**2, so a coin more than ``_SQUEEZE_MARGIN`` (0.0025) from B**2
    falls on the same side of both, and only the ~0.5% of proposals closer
    to it take np.sin; every decision, and so every draw, is the exact
    test's.  Raises ValueError when pi / T_i or 2 T_i overflows
    (T_i above ~9e307, where the density would be flat), ``quantile`` on a
    uniform outside [0, 1] (NaN included), and all three on inputs that
    are not ints or floats (``_reals``).
    """
    hw = box.half_widths
    d = box.dimension
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(np.pi / hw)):
            raise ValueError("half_widths too small: pi / T overflows")
        if not np.all(np.isfinite(2.0 * hw)):
            raise ValueError("half_widths too large: 2 T overflows")
    half_freq = np.pi / (2.0 * hw)  # pi / (2 T_i) per axis
    log_norm = float(-np.sum(np.log(hw)))
    inner_lo, inner_hi = np.nextafter(-hw, 0.0), np.nextafter(hw, 0.0)

    def log_density(points: ArrayLike) -> Union[float, np.ndarray]:
        x = _reals("points", points)
        if x.shape[-1:] != (d,):
            raise ValueError(f"points have shape {x.shape}, expected (..., {d})")
        rows = x.reshape(-1, d)
        n = len(rows)
        # axis-major terms: reducing axis 0 adds whole rows, so each sum runs in
        # axis order whatever x's layout; a lone point is taken twice, as numpy
        # sums one row pairwise.  At d = 1 the one term is the sum.  No float is
        # a zero of cos, so no log(0); a term is at most 0, so an axis outside
        # the box, set to -inf, makes its point's sum -inf.  cos runs inside
        # the box alone, as cos(inf) would warn; NaN is outside too.
        inside = np.less(np.abs(rows), hw).T
        terms = np.empty((d, n + (n == 1 and d > 1)))
        np.multiply(rows, half_freq, out=terms.T)
        np.log(np.abs(np.cos(terms, out=terms, where=inside), out=terms), out=terms)
        np.copyto(terms, -np.inf, where=~inside)
        vals = terms[0] if d == 1 else np.add.reduce(terms, axis=0)[:n]
        np.add(np.multiply(vals, 2.0, out=vals), log_norm, out=vals)
        return float(vals[0]) if x.ndim == 1 else vals.reshape(x.shape[:-1])

    def log_gradient(points: ArrayLike) -> np.ndarray:
        x = _reals("points", points)
        return -(np.pi / hw) * np.tan(half_freq * x)

    def quantile(u: np.ndarray) -> np.ndarray:
        u = _reals("uniforms", u)
        if u.shape[-1:] != (d,):
            raise ValueError(f"uniforms have shape {u.shape}, expected (..., {d})")
        # slabs of rows keep the Newton temporaries to ~_SLAB values each
        flat = u.reshape(-1, d)
        x = np.empty_like(flat)
        for rows in _slabs(len(flat), d):
            v = flat[rows]
            if not ((v >= 0.0) & (v <= 1.0)).all():
                raise ValueError("uniforms must lie in [0, 1]")
            mean_anomaly = 2.0 * np.pi * np.minimum(v, 1.0 - v)
            phi = np.cbrt(6.0 * mean_anomaly)  # below the root: phi - sin(phi) <= phi**3 / 6
            resid, slope, small = np.empty_like(phi), np.empty_like(phi), np.empty(phi.shape, bool)
            for _ in range(_KEPLER_STEPS):
                np.subtract(phi, np.sin(phi, out=resid), out=resid)
                # the series only where it is taken, each element by the same arithmetic
                near = np.flatnonzero(np.less(phi, _KEPLER_SERIES_CUTOFF, out=small))
                if near.size:
                    edge = phi.take(near)
                    edge_sq = edge * edge
                    resid.put(near, edge * edge_sq * np.polyval(_KEPLER_SERIES, edge_sq))
                resid -= mean_anomaly
                # 1 - cos(phi) without cancellation; 0 only at phi ~ 0, the root for
                # u = 0, 1, where no step is taken: the residual over inf is 0
                np.sin(np.multiply(0.5, phi, out=slope), out=slope)
                np.multiply(np.square(slope, out=slope), 2.0, out=slope)
                if not slope.all():
                    slope[slope == 0.0] = np.inf
                resid /= slope
                np.clip(np.subtract(phi, resid, out=phi), 0.0, np.pi, out=phi)
            x[rows] = hw * np.copysign(1.0 - phi / np.pi, v - 0.5)
        return np.clip(x, inner_lo, inner_hi, out=x).reshape(u.shape)

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        kept = np.empty(_integer("n", n, 0) * d)
        filled = 0
        while filled < kept.size:
            # a round of proposals sized to what is left: about half are kept
            need = kept.size - filled
            proposal, coin = rng.random((2, min(_SLAB // 2, 2 * need + 64)))
            # coin - B**2 with Bhaskara's B = 16 v / (5 - 4 v), v = u (1 - u),
            # as 5 / (1 + s) - 4, s = (u - 1/2)**2: beyond the margin its sign
            # is that of coin - sin(pi u)**2, so the exact test runs only in it
            gap = np.subtract(proposal, 0.5)
            np.square(gap, out=gap)
            gap += 1.0
            np.divide(5.0, gap, out=gap)
            gap -= 4.0
            np.subtract(coin, np.square(gap, out=gap), out=gap)
            keep = np.less(gap, -_SQUEEZE_MARGIN)
            near = np.flatnonzero(np.less_equal(gap, _SQUEEZE_MARGIN) ^ keep)
            if near.size:
                bar = np.sin(np.multiply(proposal.take(near), np.pi))
                keep.put(near, np.less(coin.take(near), np.square(bar, out=bar)))
            keep = np.compress(keep, proposal)[:need]
            kept[filled:filled + keep.size] = keep
            filled += keep.size
        x = kept.reshape(-1, d)
        np.multiply(np.subtract(np.multiply(x, 2.0, out=x), 1.0, out=x), hw, out=x)
        return np.clip(x, inner_lo, inner_hi, out=x)

    return Density(box, log_density, log_gradient, quantile, draw=draw)


def dirichlet_lambda1_box(box: Box) -> float:
    """Principal Dirichlet eigenvalue of the box: sum_i pi**2 / (4 T_i**2).

    Raises ValueError when 4 T_i**2 overflows (T_i above ~6.7e153), where
    the sum would read 0, or when the sum itself overflows (tiny T_i).
    """
    with np.errstate(over="ignore", divide="ignore"):
        four_t_sq = 4.0 * box.half_widths**2
        lam = float(np.sum(np.pi**2 / four_t_sq))
    if not np.all(np.isfinite(four_t_sq)):
        raise ValueError("half_width too large: 4 T**2 overflows")
    if not math.isfinite(lam):
        raise ValueError("half_width too small: pi**2 / (4 T**2) overflows")
    return lam


@dataclass(frozen=True)
class FisherMatrix:
    """Fisher information matrix E[(grad log pi)(grad log pi)^T].

    ``estimator_kind`` is one of closed_form, quadrature, monte_carlo.
    Monte Carlo matrices carry an entrywise standard error of the same shape.
    Both are kept as read-only float64 copies; asymmetry may reach se + se^T
    plus _SYMMETRY_TOL times the largest entry (at least 1).
    """

    entries: np.ndarray
    estimator_kind: str
    std_error: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        m = np.array(_reals("entries", self.entries))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be a square matrix")
        se = np.array(_reals("std_error", 0.0 if self.std_error is None else self.std_error))
        if self.std_error is not None and se.shape != m.shape:
            raise ValueError(f"std_error must have the entries' shape {m.shape}, not {se.shape}")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(se))):
            raise ValueError("entries and std_error must be finite")
        if self.estimator_kind not in ("closed_form", "quadrature", "monte_carlo"):
            raise ValueError(f"unknown estimator_kind {self.estimator_kind!r}")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.any(np.abs(m - m.T) > _SYMMETRY_TOL * scale + se + se.T):
            raise ValueError("matrix asymmetry exceeds its tolerance and standard error")
        if np.min(np.linalg.eigvalsh(0.5 * (m + m.T))) < _PSD_FLOOR * scale:
            raise ValueError("matrix is not positive semidefinite")
        for name, array in (("entries", m), ("std_error", se)):
            if getattr(self, name) is not None:
                array.setflags(write=False)
                object.__setattr__(self, name, array)

    @property
    def dimension(self) -> int:
        return int(self.entries.shape[0])

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries))


def fisher_closed_form_cube(box: Box) -> FisherMatrix:
    """(pi**2 / T**2) * I for a cube of half-width T.

    Raises ValueError when T**2 or pi**2 / T**2 is not finite (T outside ~[1e-154, 1.3e154]).
    """
    if not box.is_cube:
        raise ValueError("closed form requires a cube (equal half-widths)")
    try:
        t_sq = float(box.half_widths[0]) ** 2
    except OverflowError:
        raise ValueError("half_width too large: T**2 overflows") from None
    scale = np.pi**2 / t_sq if t_sq > 0.0 else math.inf
    if not math.isfinite(scale):
        raise ValueError("half_width too small: pi**2 / T**2 overflows")
    return FisherMatrix(np.eye(box.dimension) * scale, "closed_form")


def _scaled_scores(density: Density, points: np.ndarray) -> np.ndarray:
    """``log_gradient`` at ``points``, axis i times 2**e_i with T_i = f 2**e_i
    (0.5 <= f < 1).  Scores scale as 1 / T_i, so this keeps their products
    and squares in range at tiny T, and ``_unscaled`` undoes it exactly."""
    exps = np.frexp(density.support.half_widths)[1]
    return np.ldexp(np.asarray(density.log_gradient(points), dtype=float), exps)


def _unscaled(density: Density, moments: np.ndarray) -> np.ndarray:
    """d x d ``moments`` (any leading axes) of ``_scaled_scores`` scaled back to
    the density's, in place, and returned.  Raises ValueError when a nonzero
    entry underflows to zero or a subnormal (T_i from ~1e153 up); an
    overflow is left to FisherMatrix."""
    exps = np.frexp(density.support.half_widths)[1]
    tiny = np.finfo(float).tiny
    nonzero = moments != 0.0
    with np.errstate(over="ignore"):
        np.ldexp(moments, -(exps[:, None] + exps[None, :]), out=moments)
    if (nonzero & np.less(moments, tiny) & np.greater(moments, -tiny)).any():
        raise ValueError("half_width too large: Fisher entries underflow")
    return moments


@functools.lru_cache(maxsize=8)
def _leggauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule of ``nodes`` points on [-1, 1], (nodes,
    weights) as read-only arrays, built once per node count: ``leggauss``
    runs LAPACK (~16 ms at 128 nodes) and leaves the BLAS threads busy."""
    rule = np.polynomial.legendre.leggauss(nodes)
    for array in rule:
        array.setflags(write=False)
    return rule


def fisher_quadrature(density: Density, grid_points_per_axis: int = 128) -> FisherMatrix:
    """Fisher matrix of a product density by one Gauss-Legendre rule per axis.

    The density is a product over axes (see ``Density``), so its Fisher
    matrix is diagonal, and entry i is the 1-d integral of the squared score
    along axis i against that axis's factor.  The rule's nodes go on the line
    through the box centre along axis i, each weighted by the density there
    relative to the line's largest value; entry i is the weighted mean of
    the squared score, and every off-diagonal is exactly 0.0.  Any d runs,
    with at least 16 nodes per axis, in slabs of ~_SLAB values.  Scores are
    scaled and scaled back as ``fisher_monte_carlo``'s are, with its
    underflow error.  Raises if the score is non-finite at any node.
    """
    nodes = _integer("grid_points_per_axis", grid_points_per_axis, 16)
    hw = density.support.half_widths
    d = density.dimension
    base_x, base_w = _leggauss(nodes)
    diagonal = np.zeros(d)
    for axes in _slabs(d, nodes * d):
        axis = np.arange(d)[axes]
        row = axis - axes.start
        lines = np.zeros((len(axis), nodes, d))
        lines[row, :, axis] = np.multiply.outer(hw[axes], base_x)
        scores = _scaled_scores(density, lines)
        if not np.all(np.isfinite(scores)):
            raise ValueError("log_gradient returned non-finite values at interior nodes")
        log_pi = np.asarray(density.log_density(lines), dtype=float)
        weights = base_w * np.exp(log_pi - np.max(log_pi, axis=1, keepdims=True))
        own = scores[row, :, axis]
        diagonal[axes] = np.sum(weights * own * own, axis=1) / np.sum(weights, axis=1)
    return FisherMatrix(_unscaled(density, np.diag(diagonal)), "quadrature")


_MC_CHUNK = 1 << 17


def fisher_monte_carlo(density: Density, samples: int, rng_seed: int) -> FisherMatrix:
    """Fisher matrix as a sample mean of score outer products.

    Samples are drawn in chunks of ``_MC_CHUNK``, each from its own substream
    SeedSequence((rng_seed, chunk_index)), so the result does not depend on
    how the chunks are scheduled.  A chunk draws (``Density.draw``, else
    ``Density.sample``), scores and squares one ``_slabs`` slab of rows at a
    time and adds the slab's sums to its own, so no array grows with the
    chunk.  The chunks split into k = min(``_cpus()``, chunks) contiguous
    shards, each after the first in a forked child (``_fork_map``), and one
    chunk forks nothing; each chunk gives its sums of score products and of
    their squares, which are added in chunk order, the bits of one
    process's loop.  Requires at least 1000 samples.

    ``std_error`` is the textbook sample standard error of each entry.  It
    is not a valid error bar on the diagonal: for the cube eigen-density the
    squared score has infinite variance, so the diagonal converges at rate
    n**(-1/3) from below, with a heavy upper tail; ``fisher --method mc``
    prints null there.  Off-diagonal products have finite variance and
    their standard error holds.  Raises ValueError when scaling back to
    1 / T_i**2 underflows a nonzero entry or standard error to zero or a
    subnormal (T_i above ~1e153).
    """
    samples = _integer("samples", samples, 1000)
    seed = _integer("rng_seed", rng_seed, 0)
    d = density.dimension
    chunks = -(-samples // _MC_CHUNK)
    k = min(_cpus(), chunks)
    draw = density.draw or density.sample
    # the sums of score products and of their squares, which the mean, the
    # standard error and the unscaled result then overwrite in place
    totals = np.zeros((2, d, d))
    product = np.empty((d, d))

    def run_shard(indices: range) -> list:
        """Each chunk's sums in order, or none in the first shard, which
        ``_fork_map`` runs in this process: that one sums chunk 0 straight
        into ``totals`` (0.0 + x is x, so the bits are the same, and no
        third (2, d, d) array is live) and adds each later chunk's sums
        into them as the chunk ends."""
        sums = []
        for chunk in indices:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, chunk))))
            outer = totals if chunk == 0 else np.zeros((2, d, d))
            for rows in _slabs(min(_MC_CHUNK, samples - chunk * _MC_CHUNK), d):
                scores = _scaled_scores(density, draw(rng, rows.stop - rows.start))
                # no (rows, d, d) outer products; einsum, not `@`, whose BLAS sums vary with threads
                outer[0] += np.einsum("ki,kj->ij", scores, scores, out=product)
                squares = np.square(scores, out=scores)
                outer[1] += np.einsum("ki,kj->ij", squares, squares, out=product)
            if indices.start:
                sums.append(outer)
            elif chunk:
                np.add(totals, outer, out=totals)
        return sums

    shards = [range(chunks * i // k, chunks * (i + 1) // k) for i in range(k)]
    for shard in _fork_map(run_shard, shards, "Monte Carlo shard"):
        while shard:  # each chunk's sums, dropped once added
            totals += shard.pop(0)
    mean, var = totals
    mean /= samples
    var -= np.multiply(np.square(mean, out=product), samples, out=product)
    del product
    np.maximum(var, 0.0, out=var)
    var /= samples - 1
    np.sqrt(np.divide(var, samples, out=var), out=var)
    entries, se = _unscaled(density, totals)
    return FisherMatrix(entries, "monte_carlo", std_error=se)


def fisher_operator_norm(fisher: FisherMatrix) -> float:
    """Largest eigenvalue of the (symmetric) Fisher matrix."""
    return float(np.linalg.eigvalsh(fisher.entries)[-1])
