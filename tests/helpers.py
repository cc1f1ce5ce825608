"""Independent oracles used by the test suite.

Everything here is deliberately written against the definitions, not against
the library code paths it checks: the Metropolis filter stepped one proposal
at a time, step streams from their formula, what a seed gives a PCG64, subset
enumeration for longest valid subsequences and a per-height loop for their
length, a closed-form 1-d rejection rate (also in 40-digit decimal), the cube
eigen-density's marginal CDF, direct Gauss-Legendre integration, a Monte Carlo
Fisher matrix from explicit outer products, a plain Monte Carlo reflected walk,
the reflected chain stepped one transition at a time (in floats, and in
integer weights over 2^k for the exact expectation) and its rational kernel
matrix, a 40-digit decimal quantile of the cube eigen-density, a Monte
Carlo one-step rejection rate, and the isotropic bound sqrt(lambda_1) * n.
Two are the library's own earlier forms, kept as written as bit-for-bit
references: the serial loop over Monte Carlo Fisher chunks, and the cube
quantile's Newton solve that computes both Kepler branches and picks one
with ``np.where``.  One runs the library's own slab path in this process
to show what a run keeps none of: ``run_experiment_ensemble``, every
trial's accept flags, origin, final point and running max.
"""

from __future__ import annotations

import dataclasses
import decimal
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from driftguard import bodies, harness
from driftguard.bodies import (_KEPLER_SERIES, _KEPLER_SERIES_CUTOFF, _KEPLER_STEPS, FisherMatrix,
                               _integer, _scaled_scores, _slabs, _trial_seeds, _unscaled)
from driftguard.metropolis import ContainmentError, EnsembleResult, _Walk
from driftguard.oracle1d import _start_weights


class LoopRun(NamedTuple):
    origin: np.ndarray  # (d,)
    final: np.ndarray  # (d,)
    accepted: np.ndarray  # (n,) bool
    accept_prob: np.ndarray  # (n,) min(pi(w + v) / pi(w), 1) per step
    sums: np.ndarray  # (n, d) accepted sum after each step


def filter_loop(density, steps, seed):
    """The Metropolis filter stepped one proposal at a time.

    From ``np.random.default_rng(seed)`` it draws the origin
    (``density.sample``), then one uniform coin per step whether or not the
    proposal can be rejected.  Step v from w is accepted iff the coin is
    below exp(min(0, log pi(w + v) - log pi(w))).  After each step the
    accepted sum must lie in twice the support box, with slack 1e-9 per
    unit of half-width, else ContainmentError(k, 0, sum), as the kernel
    names trial 0.  A non-finite step raises ValueError when it is reached.
    """
    d = density.dimension
    steps = np.asarray(steps, dtype=float).reshape(-1, d)
    rng = np.random.default_rng(seed)
    origin = density.sample(rng)
    hw = density.support.half_widths
    limit = 2.0 * hw + 1e-9 * hw
    current, log_current = origin.copy(), float(density.log_density(origin))
    n = len(steps)
    accepted, accept_prob, sums = np.zeros(n, dtype=bool), np.zeros(n), np.zeros((n, d))
    for k, step in enumerate(steps):
        if not np.all(np.isfinite(step)):
            raise ValueError("step has non-finite entries")
        proposal = current + step
        log_new = float(density.log_density(proposal))
        accept_prob[k] = np.exp(np.minimum(0.0, log_new - log_current))
        accepted[k] = rng.uniform() < accept_prob[k]
        if accepted[k]:
            current, log_current = proposal, log_new
        sums[k] = current - origin
        if not np.all(np.abs(sums[k]) <= limit):
            raise ContainmentError(k, 0, sums[k])
    return LoopRun(origin, current, accepted, accept_prob, sums)


def reference_steps(gen, n, seed):
    """A StepGenerator's n steps, written out from the definition.

    From ``np.random.default_rng(seed)``: for the random kinds n * d normals,
    each row over its ``np.linalg.norm`` (1 where that is 0), times sqrt(d)
    for isotropic_custom; else the vectors (the identity for the coordinate
    cycle) taken in turn.  With ``rademacher``, n fair signs are drawn next
    and multiply the rows.
    """
    rng = np.random.default_rng(seed)
    d = gen.dimension
    if gen.kind in ("fixed_list", "coordinate_basis_cycle"):
        base = gen.vectors if gen.kind == "fixed_list" else np.eye(d)
        out = np.array([base[k % len(base)] for k in range(n)]).reshape(n, d)
    else:
        gauss = rng.standard_normal((n, d))
        norms = np.linalg.norm(gauss, axis=1, keepdims=True)
        out = gauss / np.where(norms == 0.0, 1.0, norms)
        if gen.kind == "isotropic_custom":
            out = out * math.sqrt(d)
    if gen.rademacher:
        out = out * (rng.integers(0, 2, size=n) * 2.0 - 1.0)[:, None]
    return out


def isotropic_bound(box, n):
    """sqrt(lambda_1(K)) * n, the discard bound for n isotropic steps of unit
    covariance (``StepGenerator("isotropic_custom")``) in the box K, whose
    first Dirichlet eigenvalue is lambda_1 = sum_i (pi / (2 T_i))**2."""
    return math.sqrt(sum((math.pi / (2.0 * t)) ** 2 for t in box.half_widths)) * n


def run_experiment_ensemble(config):
    """``harness.run_experiment(config)`` and the ensemble of its trials.

    Each slab of ceil(``harness._LOCKSTEP_WIDTH`` / d) trials, the width
    read at call time, is drawn by ``harness._slab_steps`` and filtered by
    one ``metropolis._Walk`` in this process, as a run's slabs are, its
    chunks' flags joined along the steps; the slabs' results are joined
    field by field.  The run comes first, so its error, not a slab's, is
    the one raised.
    """
    stats = harness.run_experiment(config)
    m, d = config.n_trials, config.body.dimension
    size = min(m, -(-harness._LOCKSTEP_WIDTH // d))
    density = harness.cube_eigen_density(config.body)
    parts = []
    for start in range(0, m, size):
        slab = range(start, min(start + size, m))
        _, _, chunks = harness._slab_steps(config.body, config.generator, config.n_steps,
                                           _trial_seeds(config.seed, slab, 0))
        walk = _Walk(density, _trial_seeds(config.seed, slab, 1))
        # a sign-only slab of n = 0 has no chunk, so its joined flags start as (k, 0)
        flags = [np.zeros((len(slab), 0), dtype=bool), *map(walk.run, chunks)]
        parts.append(EnsembleResult(walk.origins, walk.state.T.copy(),
                                    np.concatenate(flags, axis=1), walk.max_abs))
    return stats, EnsembleResult(*(np.concatenate([getattr(part, f.name) for part in parts])
                                   for f in dataclasses.fields(EnsembleResult)))


def seed_fingerprint(seed):
    """What a seed gives a PCG64: its ``generate_state(4, uint64)`` words, and
    the first ``standard_normal``, ``integers(0, 2)`` and ``random`` draws of
    ``np.random.default_rng(seed)``, each from a fresh generator."""
    return (
        seed.generate_state(4, np.uint64).tolist(),
        np.random.default_rng(seed).standard_normal(),
        int(np.random.default_rng(seed).integers(0, 2)),
        np.random.default_rng(seed).random(),
    )


def contains_interior(box, points):
    """Strict interior test, vectorized over leading axes of ``points``."""
    return np.all(np.abs(np.asarray(points, dtype=float)) < box.half_widths, axis=-1)


def contains_scaled(box, points, scale, tol=0.0):
    """Non-strict membership in the scaled box, slack ``tol`` per axis unit."""
    limit = scale * box.half_widths + tol * box.half_widths
    return np.all(np.abs(np.asarray(points, dtype=float)) <= limit, axis=-1)


def cube_coordinate_cdf(t, x):
    """Marginal CDF x / (2T) + 1/2 + sin(pi x / T) / (2 pi) of the cube density."""
    x = np.clip(np.asarray(x, dtype=float), -t, t)
    return x / (2.0 * t) + 0.5 + np.sin(np.pi * x / t) / (2.0 * np.pi)


def direction_information(fisher, step):
    """sqrt(v^T I v): the information length of a step direction."""
    v = np.asarray(step, dtype=float)
    if v.shape != (fisher.dimension,):
        raise ValueError(f"step has shape {v.shape}, expected ({fisher.dimension},)")
    return math.sqrt(max(float(v @ fisher.entries @ v), 0.0))


def is_valid_for(walk, signs, half_width):
    """Whether ``walk``'s kept steps, taken from its start, stay in [-T, T]."""
    s = walk.start
    for i in walk.indices:
        s += signs[i - 1]
        if abs(s) > half_width:
            return False
    return True


def reflected_kernel_matrix(half_width):
    """Row-stochastic transition matrix of the reflected walk on [-T, T].

    Row i is the state i - T; a blocked half-step keeps the walk in place,
    so the uniform distribution is exactly stationary.
    """
    width = 2 * half_width + 1
    kernel = [[Fraction(0)] * width for _ in range(width)]
    for i in range(width):
        for j in (i - 1, i + 1):
            kernel[i][j if 0 <= j < width else i] += Fraction(1, 2)
    return kernel


def enumerate_longest(eps, t, start):
    """(max length, lex-min witness) by scanning every index subset.

    Scans lengths from n down; combinations() yields index tuples in lex
    order, so the first valid subset at the winning length is the lex-min.
    Witness indices are 1-based.
    """
    n = len(eps)
    for m in range(n, 0, -1):
        for combo in itertools.combinations(range(n), m):
            s = start
            ok = True
            for i in combo:
                s += eps[i]
                if s > t or s < -t:
                    ok = False
                    break
            if ok:
                return m, tuple(i + 1 for i in combo)
    return 0, ()


def longest_valid_loop(eps, t, start):
    """Longest band-valid subsequence length, one height at a time.

    best[h] is the longest kept count ending at height low + h after the
    steps so far, -1 where unreachable; heights span what n steps reach.
    """
    low = max(-t, start - len(eps))
    width = min(t, start + len(eps)) - low + 1
    best = [-1] * width
    best[start - low] = 0
    for e in eps:
        nxt = best.copy()
        for h in range(width):
            if best[h] < 0:
                continue
            h2 = h + e
            if 0 <= h2 < width and best[h] + 1 > nxt[h2]:
                nxt[h2] = best[h] + 1
        best = nxt
    return max(best)


def exhaustive_longest_table(n, t, start):
    """enumerate_longest for all 2**n sign strings at once.

    String b has sign +1 at position i+1 iff bit i of b is set.  Returns
    (lengths, witnesses): an int array of shape (2**n,) and a list of
    1-based lex-min index tuples.  Subsets are still enumerated one by one;
    only the per-string validity check is vectorized.
    """
    count = 1 << n
    bits = (np.arange(count)[:, None] >> np.arange(n)) & 1
    signs = np.where(bits == 1, 1, -1).astype(np.int64)
    lengths = np.zeros(count, dtype=np.int64)
    witnesses = [()] * count
    unresolved = np.ones(count, dtype=bool)
    for m in range(n, 0, -1):
        if not unresolved.any():
            break
        for combo in itertools.combinations(range(n), m):
            prefix = start + np.cumsum(signs[:, combo], axis=1)
            valid = np.all(np.abs(prefix) <= t, axis=1)
            newly = valid & unresolved
            if newly.any():
                witness = tuple(i + 1 for i in combo)
                for b in np.nonzero(newly)[0]:
                    lengths[b] = m
                    witnesses[b] = witness
                unresolved &= ~valid
    return lengths, witnesses


def signs_of_bits(b, n):
    """Sign tuple encoded by integer b (bit i set -> +1 at position i+1)."""
    return tuple(1 if b & (1 << i) else -1 for i in range(n))


def closed_rejection_1d(t, v):
    """Closed-form stationary discard probability for the 1-d cube density.

    For the even unimodal density with CDF F, half the L1 distance between
    the density and its shift is F(|v|/2) - F(-|v|/2), which for this
    density is |v|/(2T) + sin(pi |v| / (2T)) / pi, capped at 1.
    """
    v = abs(float(v))
    if v >= 2.0 * t:
        return 1.0
    return v / (2.0 * t) + math.sin(math.pi * v / (2.0 * t)) / math.pi


def rejection_rate_monte_carlo(density, step, n, seed):
    """Monte Carlo discard frequency of one filter step from stationarity,
    as (frequency, standard error).

    From ``np.random.default_rng(seed)`` it draws n stationary points
    (``density.sample``), then n uniform coins; the proposal x + step from
    each point is rejected unless its coin is below
    exp(min(log pi(x + step) - log pi(x), 0)).
    """
    rng = np.random.default_rng(seed)
    points = density.sample(rng, n)
    coins = rng.uniform(size=n)
    log_ratio = (density.log_density(points + np.asarray(step, dtype=float))
                 - density.log_density(points))
    freq = float(np.mean(~(coins < np.exp(np.minimum(log_ratio, 0.0)))))
    return freq, math.sqrt(freq * (1.0 - freq) / n)


def fisher_diagonal_band(samples, rate):
    """(low, high) multiples of the closed form between which a Monte Carlo
    Fisher diagonal entry of the cube eigen-density must lie.

    The squared score has no variance, so its standard error is no error
    bar.  In units of the entry, a squared score is tan(theta)**2 with theta
    of density (2 / pi) cos(theta)**2, whose tail is
    P(tan(theta)**2 > y) ~ 4 / (3 pi) * y**(-3/2).  The mean then converges
    like n**(-1/3) from below, with a light lower tail: ``low`` is the
    benchmark's one-sided rule 1 - 7.5 n**(-1/3).  Its heavy upper tail
    exceeds 1 + delta about as often as one of the n squares alone exceeds
    n delta, n * 4 / (3 pi) * (n delta)**(-3/2): ``high`` is the 1 + delta at
    which that is ``rate``.  Over 800 entries of 1e4 samples, 0.75% passed a
    1% ``high`` and 3.6% a 5% one; none fell below ``low``.
    """
    delta = (4.0 / (3.0 * math.pi) / math.sqrt(samples) / rate) ** (2.0 / 3.0)
    return 1.0 - 7.5 * samples ** (-1.0 / 3.0), 1.0 + delta


def monte_carlo_draws(density, rng, rows):
    """The ``rows`` points a Monte Carlo Fisher chunk draws from ``rng``:
    ``density.draw`` called once per ``_slabs`` slab of rows, in order."""
    return np.concatenate([density.draw(rng, s.stop - s.start)
                           for s in _slabs(rows, density.dimension)])


def fisher_outer_mean(density, samples, seed, chunk):
    """Monte Carlo Fisher (mean, std_error) from explicit score outer products.

    Draws chunk k of ``chunk`` points from SeedSequence((seed, k)), the
    substreams fisher_monte_carlo uses (``monte_carlo_draws``), and sums the
    (chunk, d, d) outer products and their squares.
    """
    d = density.dimension
    total = np.zeros((d, d))
    total_sq = np.zeros((d, d))
    for k, start in enumerate(range(0, samples, chunk)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, k))))
        scores = density.log_gradient(monte_carlo_draws(density, rng, min(chunk, samples - start)))
        outer = scores[:, :, None] * scores[:, None, :]
        total += outer.sum(axis=0)
        total_sq += np.square(outer).sum(axis=0)
    mean = total / samples
    var = np.maximum(total_sq - samples * np.square(mean), 0.0) / (samples - 1)
    return mean, np.sqrt(var / samples)


def fisher_monte_carlo_serial(density, samples, rng_seed):
    """``bodies.fisher_monte_carlo`` as one process's loop over its chunks
    of ``bodies._MC_CHUNK`` samples, each drawn, scored and summed a
    ``_slabs`` slab of rows at a time into its own sums, which are added to
    the totals as the chunk ends."""
    samples = _integer("samples", samples, 1000)
    seed = _integer("rng_seed", rng_seed, 0)
    d = density.dimension
    total = np.zeros((d, d))
    total_sq = np.zeros((d, d))
    done = 0
    chunk_index = 0
    while done < samples:
        m = min(bodies._MC_CHUNK, samples - done)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, chunk_index))))
        outer, outer_sq = np.zeros((d, d)), np.zeros((d, d))
        for rows in _slabs(m, d):
            scores = _scaled_scores(density, density.draw(rng, rows.stop - rows.start))
            # no (rows, d, d) outer products; einsum, not `@`, whose BLAS sums vary with threads
            outer += np.einsum("ki,kj->ij", scores, scores)
            squares = scores * scores
            outer_sq += np.einsum("ki,kj->ij", squares, squares)
        total += outer
        total_sq += outer_sq
        done += m
        chunk_index += 1
    mean = total / samples
    var = np.maximum(total_sq - samples * np.square(mean), 0.0) / (samples - 1)
    entries, se = _unscaled(density, np.stack([mean, np.sqrt(var / samples)]))
    return FisherMatrix(entries, "monte_carlo", std_error=se)


def kepler_quantile_where(box, u):
    """``cube_eigen_density(box).quantile(u)`` with every Newton step
    computing both the series and phi - sin(phi) on the whole slab and
    picking one per element with ``np.where``."""
    hw = box.half_widths
    d = box.dimension
    inner_lo, inner_hi = np.nextafter(-hw, 0.0), np.nextafter(hw, 0.0)
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1, d)
    x = np.empty_like(flat)
    for rows in _slabs(len(flat), d):
        v = flat[rows]
        mean_anomaly = 2.0 * np.pi * np.minimum(v, 1.0 - v)
        phi = np.cbrt(6.0 * mean_anomaly)  # below the root: phi - sin(phi) <= phi**3 / 6
        for _ in range(_KEPLER_STEPS):
            phi_sq = phi * phi
            series = phi * phi_sq * np.polyval(_KEPLER_SERIES, phi_sq)
            direct = phi - np.sin(phi)
            resid = np.where(phi < _KEPLER_SERIES_CUTOFF, series, direct) - mean_anomaly
            # 1 - cos(phi) without cancellation; 0 only at phi = 0, the root for u = 0, 1
            slope = 2.0 * np.sin(0.5 * phi) ** 2
            step = np.divide(resid, slope, out=np.zeros_like(resid), where=slope > 0.0)
            phi = np.clip(phi - step, 0.0, np.pi)
        x[rows] = hw * np.copysign(1.0 - phi / np.pi, v - 0.5)
    return np.clip(x, inner_lo, inner_hi, out=x).reshape(u.shape)


def leggauss_integrate(fn, half_widths, nodes):
    """Tensor Gauss-Legendre integral of fn over the box, built from scratch."""
    half_widths = np.asarray(half_widths, dtype=float)
    base_x, base_w = np.polynomial.legendre.leggauss(nodes)
    grids = np.meshgrid(*[base_x * t for t in half_widths], indexing="ij")
    points = np.stack([g.reshape(-1) for g in grids], axis=-1)
    weight = base_w * half_widths[0]
    for t in half_widths[1:]:
        weight = np.multiply.outer(weight, base_w * t)
    return float(np.sum(weight.reshape(-1) * fn(points)))


def mc_reflected_discards(t, n, trials, start, seed):
    """Monte Carlo discard count of the reflected +-1 walk, (mean, se)."""
    rng = np.random.default_rng(seed)
    pos = np.full(trials, int(start), dtype=np.int64)
    discards = np.zeros(trials, dtype=np.int64)
    for _ in range(n):
        move = rng.integers(0, 2, size=trials) * 2 - 1
        nxt = pos + move
        blocked = np.abs(nxt) > t
        discards += blocked
        pos = np.where(blocked, pos, nxt)
    mean = float(np.mean(discards))
    se = float(np.std(discards, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, se


def finite_difference_score(log_density, points, step):
    """Central finite differences of log_density, one row per point."""
    points = np.asarray(points, dtype=float)
    out = np.empty_like(points)
    for j in range(points.shape[1]):
        hi = points.copy()
        lo = points.copy()
        hi[:, j] += step
        lo[:, j] -= step
        out[:, j] = (np.asarray(log_density(hi)) - np.asarray(log_density(lo))) / (2.0 * step)
    return out


def chain_expectation_loop(probs, n):
    """Expected discards of the reflected walk, by stepping the law n times.

    ``probs`` is the start law on the 2T+1 states.  Each step adds the half
    of the edge mass that is pushed out, then moves half of every state's
    mass to each neighbour, the blocked half staying in place.
    """
    probs = np.asarray(probs, dtype=float)
    width = probs.size
    expected = 0.0
    for _ in range(int(n)):
        expected += 0.5 * (probs[0] + probs[-1])
        nxt = np.zeros(width)
        nxt[:-1] += 0.5 * probs[1:]
        nxt[1:] += 0.5 * probs[:-1]
        nxt[0] += 0.5 * probs[0]
        nxt[-1] += 0.5 * probs[-1]
        probs = nxt
    return float(expected)


def chain_fraction_loop(t, n, start):
    """Exact expected discards of the reflected walk, by stepping integer
    state weights n times over an implicit denominator 2^k.

    ``start`` is parsed as the library parses it.  The discard chance at step
    k is (w_bottom + w_top) / (2 * denom * 2^k); acc sums each numerator times
    2^(n-1-k), so one division happens at the end.
    """
    width = 2 * t + 1
    weights, denom = _start_weights(start, width, t)
    acc = 0
    for _ in range(n):
        acc = (acc << 1) + weights[0] + weights[-1]
        # each state takes a half-step from both neighbours; a blocked one stays put
        padded = [weights[0], *weights, weights[-1]]
        weights = [a + b for a, b in zip(padded, padded[2:])]
    return Fraction(acc, denom << n)


_PI_40 = decimal.Decimal("3.141592653589793238462643383279502884197169399")


def _decimal_sin(x):
    """sin(x) for |x| <= pi by its Taylor series, in the current context."""
    term = total = x
    k = 1
    while True:
        term = -term * x * x / ((2 * k) * (2 * k + 1))
        if total + term == total:
            return total
        total += term
        k += 1


def reference_rejection_1d(t, v):
    """closed_rejection_1d in 40-digit decimal arithmetic, as a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        t, w = decimal.Decimal(float(t)), abs(decimal.Decimal(float(v)))
        if w >= 2 * t:
            return 1.0
        return float(w / (2 * t) + _decimal_sin(_PI_40 * w / (2 * t)) / _PI_40)


def reference_quantile(u, t):
    """Quantile of F(x) = x / (2T) + 1/2 + sin(pi x / T) / (2 pi) on (-T, T).

    Bisects in 40-digit decimal arithmetic until the bracket is far below
    one float64 ulp of T, and returns the midpoint as a Decimal.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        u, t = decimal.Decimal(float(u)), decimal.Decimal(float(t))
        lo, hi = -t, t
        half = decimal.Decimal("0.5")
        for _ in range(110):
            mid = (lo + hi) / 2
            cdf = mid / (2 * t) + half + _decimal_sin(_PI_40 * mid / t) / (2 * _PI_40)
            if cdf < u:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2
