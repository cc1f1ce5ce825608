"""Closed-form bounds on the expected number of discarded steps.

All three calculators return a BoundReport so downstream reports carry the
bound kind and the inputs it was computed from next to the value.
``matching_bounds`` is the one rule for which of them apply to a run; one
pass of scaled step norms serves both of its upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bodies import Box, FisherMatrix, _integer, _number, _reals, _row_norms, _slabs

__all__ = [
    "BoundReport",
    "upper_bound_general",
    "upper_bound_cube",
    "lower_bound_1d",
    "matching_bounds",
]

@dataclass(frozen=True)
class BoundReport:
    kind: str  # general_fisher | cube_l2 | lower_1d
    value: float
    inputs_digest: str

    def __post_init__(self) -> None:
        for key in ("kind", "inputs_digest"):
            if not isinstance(getattr(self, key), str):
                raise ValueError(f"{key} must be a string, not {getattr(self, key)!r}")
        object.__setattr__(self, "value", _number("value", self.value))


def upper_bound_general(fisher: FisherMatrix, steps) -> BoundReport:
    """(1/2) * sum_j sqrt(v_j^T I v_j) over the step sequence.

    ``steps`` is (n, d) for one run or (m, n, d) for m trials; with a
    trials axis the value is the mean over trials of the per-run bound.
    Raises ValueError on non-finite steps, and on finite ones whose
    quadratic forms or bound overflow.
    """
    v = _steps(steps, fisher.dimension, "the Fisher matrix")

    def root_forms(slab):
        quad = np.einsum("...nd,df,...nf->...n", slab, fisher.entries, slab)
        np.maximum(quad, 0.0, out=quad)
        return np.sqrt(quad, out=quad)

    sums = _trial_sums(v, root_forms)
    digest = f"n={v.shape[-2]}, d={fisher.dimension}, fisher={fisher.estimator_kind}"
    return _report("general_fisher", 0.5, sums, v, digest)


def upper_bound_cube(half_width: float, step_l2_norms) -> BoundReport:
    """(pi / (2 T)) * sum_j |v_j|_2 for a cube of half-width T.

    ``step_l2_norms`` is (n,) for one run or (m, n) for m trials; with a
    trials axis the value is the mean over trials of the per-run bound.
    Raises ValueError on norms that are not ints or floats, negative or
    non-finite, on zero trials, when pi / (2 T) is not finite (T below
    ~1e-308), and when the bound overflows.
    """
    t, factor = _cube_factor(half_width)
    norms = _reals("step_l2_norms", step_l2_norms)
    if norms.ndim not in (1, 2) or not np.all((norms >= 0.0) & (norms < math.inf)):
        raise ValueError("step_l2_norms must be (n,) or (m, n) finite nonnegative norms")
    sums = _trial_sums(norms[..., None], lambda slab: slab[..., 0])
    return _report("cube_l2", factor, sums, norms, f"n={norms.shape[-1]}, T={t}")


def _cube_factor(half_width: float) -> tuple[float, float]:
    """(T, pi / (2 T)), or ValueError unless T is positive and the factor finite."""
    t = _number("half_width", half_width)
    if not t > 0.0:
        raise ValueError("half_width must be positive and finite")
    factor = (0.5 * math.pi) / t  # 2 T would overflow for T above ~9e307
    if not math.isfinite(factor):
        raise ValueError("half_width too small: pi / (2 T) overflows")
    return t, factor


def lower_bound_1d(half_width: int, n_steps: int) -> BoundReport:
    """n / (2 T + 1) - T for the unit-step walk on a band of integer radius T.

    Computed as an exact rational, then converted.  May be negative for
    short runs; reported raw.  The digest writes T as an integer below
    2**53 and as its float repr from there on.  Raises ValueError when the
    bound or T is beyond the float range.
    """
    t = _integer("half_width", half_width, 0)
    n = _integer("n_steps", n_steps, 0)
    try:
        value = float(Fraction(n, 2 * t + 1) - t)
        shown = t if t < 2**53 else float(t)
    except OverflowError:
        raise ValueError("n_steps or half_width too large: the lower_1d bound overflows") from None
    return BoundReport("lower_1d", value, f"n={n}, T={shown!r}")


def matching_bounds(box: Box, steps) -> list[BoundReport]:
    """The bounds that apply to ``steps`` ((n, d), or (m, n, d) averaged over
    trials) in ``box``: the Fisher bound on every box and the cube bound, the
    same float, on cubes, both pi / (2 T_min) * sum_j |v_j / (T / T_min)|_2;
    and the 1-d lower bound only for steps of exactly +-1 on an integer band.
    Raises ValueError on non-finite steps, and on finite ones whose norms or
    bound overflow.
    """
    v = _steps(steps, box.dimension, "the box")
    return _bound_reports(box, *_bound_pass(box, v), v.shape[-2])


def _bound_pass(box: Box, steps: np.ndarray) -> tuple[np.ndarray, bool]:
    """``matching_bounds``' pass over (n, d) or (m, n, d) ``steps``: each
    trial's sum of |v_j / (T / T_min)|_2, and whether ``lower_1d`` attaches
    (d = 1, an integer T and every entry +-1).  Passes over slabs of trials
    give the sums of one pass.  Raises ValueError on non-finite steps, and on
    finite ones whose sums overflow.
    """
    t_min, _ = _cube_factor(np.min(box.half_widths))
    with np.errstate(over="ignore"):  # T_i / T_min = inf zeroes v_i, as pi**2 / T_i**2 does
        divisor = box.half_widths / t_min
    # a C-ordered quotient, so norms of d >= 8 sum each row alike whatever the steps' layout
    sums = _trial_sums(steps, lambda slab: _row_norms(np.divide(slab, divisor, order="C")))
    _check_finite(sums, steps)
    return sums, box.dimension == 1 and t_min.is_integer() and _all_unit(steps)


def _bound_reports(box: Box, sums: np.ndarray, unit: bool, n: int) -> list[BoundReport]:
    """The reports of ``matching_bounds`` from ``_bound_pass``' finite sums
    (one trial's, or an (m,) array averaged over trials) for n-step trials.
    Raises ValueError when the bound overflows."""
    t_min, factor = _cube_factor(np.min(box.half_widths))
    digest = f"n={n}, d={box.dimension}, fisher=closed_form"
    reports = [_report("general_fisher", factor, sums, sums, digest)]
    if box.is_cube:
        reports.append(_report("cube_l2", factor, sums, sums, f"n={n}, T={t_min}"))
    if unit:
        reports.append(lower_bound_1d(t_min, n))
    return reports


def _steps(steps, d: int, what: str) -> np.ndarray:
    """(n, d) or (m, n, d) ``steps`` as floats (``bodies._reals``), d matching ``what``."""
    v = _reals("steps", steps)
    if v.ndim not in (2, 3) or v.shape[-1] != d:
        raise ValueError(f"steps must have shape (n, d) or (m, n, d) matching {what}")
    return v


def _report(kind: str, factor: float, sums: np.ndarray, inputs, digest: str) -> BoundReport:
    """A ``kind`` report of ``factor`` times the mean of ``sums`` (one trial's,
    or (m,) ones, and the digest then ends ", mean over m trials"); ValueError
    unless it is finite, naming why from the ``inputs`` the sums came from."""
    with np.errstate(over="ignore"):
        value = factor * float(np.mean(sums))
    _check_finite(value, inputs)
    trials = f", mean over {sums.size} trials" if sums.ndim == 1 else ""
    return BoundReport(kind, value, digest + trials)


def _trial_sums(steps: np.ndarray, per_step) -> np.ndarray:
    """``np.sum(per_step(steps), axis=-1)`` for (n, d) or (m, n, d) ``steps``
    without the (m, n) array: a slab of k whole trials (one, if a trial is
    longer than a slab) gets its (k, n) per-step values, filled by
    ``per_step`` a slab of steps at a time (all n at once when the k trials
    fit in one).  The sums are the bits of the unslabbed ones, each row of n
    summed alike; an overflow gives an inf sum, left to ``_check_finite``.
    Raises ValueError for zero trials, whose mean would be NaN.
    """
    v = steps if steps.ndim == 3 else steps[None]
    m, n, d = v.shape
    if m == 0:
        raise ValueError("need at least one trial")
    sums = np.empty(m)
    with np.errstate(over="ignore"):
        for trials in _slabs(m, n * d):
            values = np.empty((trials.stop - trials.start, n))
            for chunk in _slabs(n, len(values) * d):
                values[:, chunk] = per_step(v[trials, chunk])
            sums[trials] = np.sum(values, axis=-1)
    return sums.reshape(steps.shape[:-2])


def _check_finite(values, steps) -> None:
    """ValueError unless ``values`` are finite, naming why: a non-finite step
    makes its trial's sum, and so the mean, non-finite; finite steps can
    still overflow a norm, a quadratic form or a sum of them."""
    if np.isfinite(values).all():
        return
    if not np.isfinite(steps).all():
        raise ValueError("steps have non-finite entries")
    raise ValueError("steps too large: the bound overflows")


def _all_unit(steps: np.ndarray) -> bool:
    """Whether every entry is exactly +-1, checked ~_SLAB values at a time."""
    flat = steps.reshape(-1)
    return all(bool(np.all(np.abs(flat[s]) == 1.0)) for s in _slabs(flat.size, 1))
