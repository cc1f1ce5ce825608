"""Exact one-dimensional machinery for unit-step walks in a band.

Given a sign string and an integer band radius T, the greedy reflected walk
keeps exactly the steps it can take without leaving [-T, T].  Its kept index
set is the longest valid subsequence, and the lexicographically smallest
one at that.  Both claims are checked here by one DP over (step, height)
on a batch of sign strings (lengths for n <= 30, witnesses for n <= 14),
whose lengths also check the start-shift inequality in exhaustive mode,
and the walk's expected discard count is computed in closed form (exactly from
its second moment while the band has at most 65 states, its eigenmodes beyond).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .bodies import _integer, _slabs

__all__ = [
    "ValidSubsequence",
    "signs_from_string",
    "reflected_walk",
    "dp_longest_valid",
    "verify_lex_optimality",
    "exhaustive_failures",
    "exact_chain_expectation",
    "exact_chain_expectation_fraction",
]

_DP_LIMIT = 30
_ENUM_LIMIT = 14
_RATIONAL_STATE_LIMIT = 65  # states 2T+1 beyond which the chain runs in floats

StartDistribution = Union[str, int, Sequence]


@dataclass(frozen=True)
class ValidSubsequence:
    """Kept step indices (1-based, increasing) for a given start height."""

    indices: tuple[int, ...]
    start: int


def signs_from_string(text: str) -> tuple[int, ...]:
    """Parse a +- string like '+-++' into a sign tuple."""
    table = {"+": 1, "-": -1}
    try:
        return tuple(table[c] for c in text)
    except KeyError:
        raise ValueError(f"sign string may only contain + and -: {text!r}") from None


def _check_band(half_width: int, start: int) -> tuple[int, int]:
    t = _integer("half_width", half_width, 0)
    s = _integer("start", start)
    if abs(s) > t:
        raise ValueError(f"start {s} outside band [-{t}, {t}]")
    return t, s


def _check_signs(signs: Sequence[int]) -> tuple[int, ...]:
    """Signs as +1 and -1 ints; 1.0 and numpy ints count, 1.5 and bools do not."""
    eps = tuple(signs)
    types = set(map(type, eps))
    if not set(eps) <= {-1, 1} or bool in types or np.bool_ in types:
        raise ValueError("signs must be +1 or -1")
    return eps if types <= {int} else tuple(1 if e > 0 else -1 for e in eps)


def reflected_walk(signs: Sequence[int], half_width: int, start: int = 0) -> ValidSubsequence:
    """Greedily keep each step that stays in the band (ties kept)."""
    t, s = _check_band(half_width, start)
    eps = _check_signs(signs)
    kept = []
    height = s
    for k, e in enumerate(eps, start=1):
        if abs(height + e) <= t:
            height += e
            kept.append(k)
    return ValidSubsequence(tuple(kept), s)


def dp_longest_valid(signs: Sequence[int], half_width: int, start: int = 0) -> int:
    """Length of the longest band-valid subsequence, by the (step, height) DP (n <= 30)."""
    t, s = _check_band(half_width, start)
    eps = _check_signs(signs)
    if len(eps) > _DP_LIMIT:
        raise ValueError(f"dp_longest_valid is limited to n <= {_DP_LIMIT}")
    lengths, _ = _lexmin_longest(np.array(eps, dtype=np.int8).reshape(1, -1), t, [s])[s]
    return int(lengths[0])


def _reflected_walks(signs: np.ndarray, t: int, start: int) -> np.ndarray:
    """(S, n) kept flags of ``reflected_walk`` on each row of ``signs``, an
    (S, n) int8 array of +-1, one vectorised step per position.  Heights are
    offsets from ``start`` in the band clipped to +-(n + 1), so any T fits."""
    count, n = signs.shape
    lo, hi = max(-t - start, -n - 1), min(t - start, n + 1)
    kept = np.empty((count, n), dtype=bool)
    height = np.zeros(count, dtype=np.int64)
    for j, column in enumerate(signs.T):
        step = height + column
        kept[:, j] = (lo <= step) & (step <= hi)
        height = np.where(kept[:, j], step, height)
    return kept


def _lexmin_longest(signs: np.ndarray, t: int, starts: Sequence[int]) -> dict:
    """{start: (lengths, taken)}: each row of ``signs``, an (S, n) int8 array
    of +-1, with its longest valid length (an (S,) int array) and the (S, n)
    bool flags of its lex-smallest longest witness from each of ``starts``,
    by one DP over (step, height).

    Backward, L[j][h] = max(L[j+1][h], 1 + L[j+1][h + e_j]) is the longest
    from step j at height h, in int8 with a -128 column beyond each side of
    the heights [lo, hi].  Forward, a start's walk takes each step j with
    1 + L[j+1][h + e_j] = L[j][h], the earliest that keep the optimum, so
    the lex-minimum.  Starts whose reach [s - n, s + n] overlaps share a
    table; heights are offsets from lo, so any T fits.  O(S n (hi - lo)).
    """
    count, n = signs.shape
    scans = {s: (np.empty(count, dtype=np.int64), np.empty((count, n), dtype=bool))
             for s in sorted(set(starts))}
    groups = []
    for s in scans:
        if not groups or s - groups[-1][-1] > 2 * n:
            groups.append([])
        groups[-1].append(s)
    for group in groups:
        lo = max(-t, group[0] - n)
        width = min(t, group[-1] + n) - lo + 3
        for slab in _slabs(count, (n + 1) * width):
            chunk = signs[slab]
            best = np.full((n + 1, len(chunk), width), -128, dtype=np.int8)
            best[n, :, 1:-1] = 0
            for j in range(n - 1, -1, -1):
                step = np.where(chunk[:, j, None] > 0, best[j + 1, :, 2:], best[j + 1, :, :-2])
                np.maximum(best[j + 1, :, 1:-1], step + 1, out=best[j, :, 1:-1])
            flat = best.reshape(n + 1, -1)
            for s in group:
                lengths, taken = scans[s][0][slab], scans[s][1][slab]
                at = np.arange(len(chunk)) * width + (s - lo + 1)
                lengths[:] = flat[0, at]
                for j in range(n):
                    to = at + chunk[:, j]
                    taken[:, j] = flat[j + 1, to] + 1 == flat[j, at]
                    at = np.where(taken[:, j], to, at)
    return scans


def verify_lex_optimality(signs: Sequence[int], half_width: int, start: int = 0) -> bool:
    """True iff the reflected walk is the lexicographically smallest of the
    longest valid subsequences, found by the (step, height) DP (n <= 14)."""
    t, s = _check_band(half_width, start)
    eps = _check_signs(signs)
    if len(eps) > _ENUM_LIMIT:
        raise ValueError(f"verify_lex_optimality is limited to n <= {_ENUM_LIMIT}")
    _, (taken,) = _lexmin_longest(np.array(eps, dtype=np.int8).reshape(1, -1), t, [s])[s]
    return reflected_walk(eps, t, s).indices == tuple((np.flatnonzero(taken) + 1).tolist())


def exhaustive_failures(n: int, half_width: int, starts: Sequence[int]) -> list[tuple]:
    """The (signs, start) instances, over all 2**n sign strings and ``starts``,
    where ``verify_lex_optimality`` would be False or the start-shift
    inequality fails: the longest valid length from 0 exceeds the longest
    from the start plus |start|.

    String b has sign +1 at position i + 1 iff bit i of b is set; failures
    come string by string, and within one in the order of ``starts``.  One
    ``_lexmin_longest`` DP, O(2**n n) work per height the starts can reach,
    gives the lengths and taken rows from each start and from 0, and
    ``_reflected_walks`` the greedy's kept rows from each start, so a start
    fails a string where its rows differ or the shift inequality does not hold.
    """
    n = _integer("n", n, 0)
    if n > _ENUM_LIMIT:
        raise ValueError(f"exhaustive mode is limited to n <= {_ENUM_LIMIT}")
    t, _ = _check_band(half_width, 0)
    starts = [_check_band(t, s)[1] for s in starts]
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    signs = (2 * bits - 1).astype(np.int8)
    scans = _lexmin_longest(signs, t, [*starts, 0])
    fails = {s: (_reflected_walks(signs, t, s) != scans[s][1]).any(axis=1)
             | (scans[0][0] - scans[s][0] > min(abs(s), n + 1)) for s in set(starts)}
    bad = np.array([fails[s] for s in starts], dtype=bool).reshape(len(starts), 1 << n)
    return [(tuple(signs[b].tolist()), starts[i]) for b, i in zip(*np.nonzero(bad.T))]


def _start_weights(start: StartDistribution, width: int, t: int) -> tuple[list[int], int]:
    """Integer weights and their common denominator for the start law.

    A start vector holds exact nonnegative rationals summing to exactly 1;
    floats of any width count at their exact binary value, strings and bools not.
    """
    if isinstance(start, str):
        if start != "uniform":
            raise ValueError(f"unknown start distribution {start!r}")
        return [1] * width, width
    if isinstance(start, (int, float, np.number)):
        _, s = _check_band(t, start)
        weights = [0] * width
        weights[s + t] = 1
        return weights, 1
    try:
        entries = list(start)
        if any(isinstance(p, (str, bool, np.bool_)) for p in entries):
            raise TypeError("a string or bool entry")
        probs = [Fraction(*p.as_integer_ratio()) if isinstance(p, np.floating) else Fraction(p)
                 for p in entries]
    except (TypeError, ValueError, OverflowError) as exc:  # NaN gives ValueError, inf overflows
        raise ValueError("start vector entries must be finite rationals or floats") from exc
    if len(probs) != width:
        raise ValueError(f"start vector must have {width} entries")
    if any(p < 0 for p in probs) or sum(probs) != 1:
        raise ValueError("start vector must be a probability distribution")
    denom = 1
    for p in probs:
        denom = denom * p.denominator // math.gcd(denom, p.denominator)
    return [int(p * denom) for p in probs], denom


def exact_chain_expectation_fraction(
    half_width: int, n_steps: int, start: StartDistribution = "uniform"
) -> Fraction:
    """Exact expected discard count over n steps of the reflected walk.

    Each step adds 1 to E[h^2] and each discard takes N = 2T+1 off it, so
    E = (n + E[h_0^2] - E[h_n^2]) / N.  A blocked step holds, so h_n is the
    free walk's i - n + 2r folded with period 2N (the method of images), and
    E[h_n^2] needs Pascal's row n summed by r mod N: O(n) big-int steps.
    Limited to N <= 65 states; beyond that use exact_chain_expectation.
    """
    t, _ = _check_band(half_width, 0)
    n = _integer("n_steps", n_steps, 0)
    width = 2 * t + 1
    if width > _RATIONAL_STATE_LIMIT:
        raise ValueError(f"rational arithmetic is limited to {_RATIONAL_STATE_LIMIT} states")
    weights, denom = _start_weights(start, width, t)
    # C(n, j) by j mod N for j < n - j; C(n, n - j) = C(n, j) gives the rest
    half, c = [0] * width, 1
    for j in range((n + 1) // 2):
        half[j % width] += c
        c = c * (n - j) // (j + 1)
    sums = [a + half[(n - r) % width] for r, a in enumerate(half)]
    if n % 2 == 0:
        sums[n // 2 % width] += c  # the middle term C(n, n/2)
    period = 2 * width
    squares = [(min(y, period - 1 - y) - t) ** 2 for y in range(period)]
    # denom * 2^n * E[h_n^2]; squares[i] is (i - T)^2 for a state i
    end = sum(b * sum(w * squares[(i - n + 2 * r) % period] for i, w in enumerate(weights) if w)
              for r, b in enumerate(sums))
    first = sum(w * squares[i] for i, w in enumerate(weights))
    return Fraction(((n * denom + first) << n) - end, (width * denom) << n)


def exact_chain_expectation(
    half_width: int, n_steps: int, start: StartDistribution = "uniform"
) -> float:
    """Expected discard count; exact rationals while 2T+1 <= 65, else float64.

    Both sides parse ``start`` alike: "uniform", a point in [-T, T], or a
    vector of 2T+1 exact nonnegative rationals or floats summing to 1.
    Beyond 65 states it is ``_spectral_expectation``, whose cost does not
    grow with n_steps, or exactly 0 when no start state can reach an edge
    within n_steps; a point start is found to be so before any state is built.
    """
    t, _ = _check_band(half_width, 0)
    width = 2 * t + 1
    if width <= _RATIONAL_STATE_LIMIT:
        return float(exact_chain_expectation_fraction(t, n_steps, start))
    n = _integer("n_steps", n_steps, 0)
    if isinstance(start, (int, float, np.number)) and n <= t - abs(_check_band(t, start)[1]):
        return 0.0
    weights, denom = _start_weights(start, width, t)
    # int / int is correctly rounded even when the integers exceed float range
    probs = np.array([w / denom for w in weights])
    support = np.flatnonzero(probs)
    if n <= min(support[0], width - 1 - support[-1]):
        return 0.0  # the spectral sum would return rounding noise of either sign
    return _spectral_expectation(probs, n)


def _spectral_expectation(probs: np.ndarray, n: int) -> float:
    """Expected discards over n steps from the law ``probs`` on N states.

    The kernel's eigenvectors are cos(theta_j (i + 1/2)), theta_j = pi j / N,
    with eigenvalues cos(theta_j); the edges each discard half their mass per
    step, and only even modes reach both alike.  So with c_j the law's
    projection on mode j (one FFT of length 2N gives them all) and
    G_j = sum_{k<n} cos(theta_j)**k,
    E = n / N + (2 / N) sum_{even j > 0} c_j cos(theta_j / 2) G_j.
    The modes cancel, so the error is absolute (~1e-15 at N = 2001): an E far
    below that, like a centre start's over n << T**2 steps, is lost.
    """
    width = probs.size
    j = np.arange(2, width, 2)
    theta = np.pi * j / width
    gap = 2.0 * np.sin(0.5 * theta) ** 2  # 1 - cos(theta), without cancellation
    with np.errstate(divide="ignore", invalid="ignore"):
        # 1 - cos(theta)**n; expm1/log1p keep its digits near theta = 0
        power = -np.expm1(n * np.log1p(-gap))
    decay = np.where(gap < 1.0, power, 1.0 - np.cos(theta) ** float(n))
    # sum_i p_i cos(theta_j (i + 1/2)) = Re(exp(-i theta_j / 2) sum_i p_i exp(-i theta_j i))
    coef = (np.exp(-0.5j * theta) * np.fft.rfft(probs, 2 * width)[j]).real
    return n / width + 2.0 / width * float(np.sum(coef * np.cos(0.5 * theta) * decay / gap))
