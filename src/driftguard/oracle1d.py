"""Exact one-dimensional machinery for unit-step walks in a band.

Given a sign string and an integer band radius T, the greedy reflected walk
keeps exactly the steps it can take without leaving [-T, T].  Its kept index
set is the longest valid subsequence, and the lexicographically smallest
one at that.  Both claims are checked here by brute force on small inputs,
and the walk's discard count is computed in closed form via its Markov chain
(exact rationals while the state space is small, its eigenmodes beyond).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .bodies import _integer

__all__ = [
    "ValidSubsequence",
    "signs_from_string",
    "reflected_walk",
    "dp_longest_valid",
    "verify_lex_optimality",
    "verify_start_shift",
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
    """Length of the longest band-valid subsequence, by DP over the heights n steps reach."""
    t, s = _check_band(half_width, start)
    eps = _check_signs(signs)
    if len(eps) > _DP_LIMIT:
        raise ValueError(f"dp_longest_valid is limited to n <= {_DP_LIMIT}")
    low = max(-t, s - len(eps))
    width = min(t, s + len(eps)) - low + 1
    best = [-1] * width
    best[s - low] = 0
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


def _subsequence_valid(eps: tuple[int, ...], combo: tuple[int, ...], t: int, s: int) -> bool:
    height = s
    for i in combo:
        height += eps[i]
        if height > t or height < -t:
            return False
    return True


def _enumerate_longest_lexmin(
    eps: tuple[int, ...], t: int, s: int
) -> tuple[int, tuple[int, ...]]:
    """Longest length and lex-smallest witness, by scanning every subset.

    combinations() yields index tuples in lexicographic order, so within a
    length the first valid one is the lex-minimum.
    """
    n = len(eps)
    for m in range(n, 0, -1):
        for combo in itertools.combinations(range(n), m):
            if _subsequence_valid(eps, combo, t, s):
                return m, tuple(i + 1 for i in combo)
    return 0, ()


def verify_lex_optimality(signs: Sequence[int], half_width: int, start: int = 0) -> bool:
    """True iff the reflected walk is a longest valid subsequence and the
    lexicographically smallest one, against exhaustive enumeration."""
    t, s = _check_band(half_width, start)
    eps = _check_signs(signs)
    if len(eps) > _ENUM_LIMIT:
        raise ValueError(f"verify_lex_optimality is limited to n <= {_ENUM_LIMIT}")
    walk = reflected_walk(eps, t, s)
    length, lexmin = _enumerate_longest_lexmin(eps, t, s)
    return len(walk.indices) == length and walk.indices == lexmin


def verify_start_shift(signs: Sequence[int], half_width: int, start: int) -> bool:
    """True iff longest-from-0 <= longest-from-start + |start| (via DP, n <= _DP_LIMIT)."""
    t, s = _check_band(half_width, start)
    eps = _check_signs(signs)
    return dp_longest_valid(eps, t, 0) <= dp_longest_valid(eps, t, s) + abs(s)


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

    Evolves integer state weights over an implicit denominator 2^k, so no
    per-step rational normalization is needed.  Limited to 2T+1 <= 65
    states; beyond that use exact_chain_expectation.
    """
    t, _ = _check_band(half_width, 0)
    n = _integer("n_steps", n_steps, 0)
    width = 2 * t + 1
    if width > _RATIONAL_STATE_LIMIT:
        raise ValueError(f"rational arithmetic is limited to {_RATIONAL_STATE_LIMIT} states")
    weights, denom = _start_weights(start, width, t)
    # expected discards at step k: (w_top + w_bottom) / (2 * denom * 2^k);
    # acc accumulates sum_k c_k * 2^(n-1-k) so one division happens at the end
    acc = 0
    for _ in range(n):
        acc = (acc << 1) + weights[0] + weights[-1]
        # each state takes a half-step from both neighbours; a blocked one stays put
        padded = [weights[0], *weights, weights[-1]]
        weights = [a + b for a, b in zip(padded, padded[2:])]
    return Fraction(acc, denom << n)


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
