"""Closed-form bounds on the expected number of discarded steps.

All four calculators return a BoundReport so downstream reports carry the
bound kind and the inputs it was computed from next to the value.
``matching_bounds`` is the one rule for which of them apply to a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bodies import Box, FisherMatrix, dirichlet_lambda1_box, fisher_closed_form_cube

__all__ = [
    "BoundReport",
    "upper_bound_general",
    "upper_bound_cube",
    "isotropic_bound",
    "lower_bound_1d",
    "matching_bounds",
]

_NORM_SLAB = 1 << 16  # float64 values per slab of the step-norm temporaries


@dataclass(frozen=True)
class BoundReport:
    kind: str  # general_fisher | cube_l2 | isotropic | lower_1d
    value: float
    inputs_digest: str


def upper_bound_general(fisher: FisherMatrix, steps) -> BoundReport:
    """(1/2) * sum_j sqrt(v_j^T I v_j) over the step sequence.

    ``steps`` is (n, d) for one run or (m, n, d) for m trials; with a
    trials axis the value is the mean over trials of the per-run bound.
    Raises ValueError on non-finite steps.
    """
    v = np.asarray(steps, dtype=float)
    if v.ndim not in (2, 3) or v.shape[-1] != fisher.dimension:
        raise ValueError("steps must have shape (n, d) or (m, n, d) matching the Fisher matrix")
    quad = np.einsum("...nd,df,...nf->...n", v, fisher.entries, v)
    # a non-finite step makes its quadratic form non-finite, so the (m, n)
    # forms screen the (m, n, d) steps; finite steps may still overflow
    if not np.isfinite(quad).all() and not np.isfinite(v).all():
        raise ValueError("steps have non-finite entries")
    np.maximum(quad, 0.0, out=quad)
    np.sqrt(quad, out=quad)  # in place: the (m, n) forms are the only big array
    value = 0.5 * float(np.mean(np.sum(quad, axis=-1)))
    digest = f"n={v.shape[-2]}, d={fisher.dimension}, fisher={fisher.estimator_kind}"
    if v.ndim == 3:
        digest += f", mean over {v.shape[0]} trials"
    return BoundReport("general_fisher", value, digest)


def upper_bound_cube(half_width: float, step_l2_norms) -> BoundReport:
    """(pi / (2 T)) * sum_j |v_j|_2 for a cube of half-width T.

    ``step_l2_norms`` is (n,) for one run or (m, n) for m trials; with a
    trials axis the value is the mean over trials of the per-run bound.
    Raises ValueError on negative or non-finite norms.
    """
    t = float(half_width)
    if not (0.0 < t < math.inf):
        raise ValueError("half_width must be positive and finite")
    norms = np.asarray(step_l2_norms, dtype=float)
    if norms.ndim not in (1, 2) or not np.all((norms >= 0.0) & (norms < math.inf)):
        raise ValueError("step_l2_norms must be (n,) or (m, n) finite nonnegative norms")
    value = (math.pi / (2.0 * t)) * float(np.mean(np.sum(norms, axis=-1)))
    digest = f"n={norms.shape[-1]}, T={t}"
    if norms.ndim == 2:
        digest += f", mean over {norms.shape[0]} trials"
    return BoundReport("cube_l2", value, digest)


def isotropic_bound(box: Box, n_steps: int) -> BoundReport:
    """sqrt(lambda_1(K)) * n for isotropic unit-covariance steps."""
    n = int(n_steps)
    if n < 0:
        raise ValueError("n_steps must be nonnegative")
    lam = dirichlet_lambda1_box(box)
    digest = f"n={n}, d={box.dimension}, lambda1={lam}"
    return BoundReport("isotropic", math.sqrt(lam) * n, digest)


def lower_bound_1d(half_width: int, n_steps: int) -> BoundReport:
    """n / (2 T + 1) - T for the unit-step walk on a band of integer radius T.

    Computed as an exact rational, then converted.  May be negative for
    short runs; reported raw.
    """
    t = int(half_width)
    n = int(n_steps)
    if t < 0 or n < 0:
        raise ValueError("half_width and n_steps must be nonnegative integers")
    value = float(Fraction(n, 2 * t + 1) - t)
    return BoundReport("lower_1d", value, f"n={n}, T={t}")


def matching_bounds(box: Box, steps) -> list[BoundReport]:
    """The bounds that apply to ``steps`` ((n, d), or (m, n, d) averaged over
    trials) in ``box``: the Fisher-based upper bounds on cubes, which have a
    closed-form Fisher matrix; the isotropic bound always; and the 1-d lower
    bound only for steps of exactly +-1 on a band of integer radius.
    """
    v = np.asarray(steps, dtype=float)
    if v.ndim not in (2, 3) or v.shape[-1] != box.dimension:
        raise ValueError("steps must have shape (n, d) or (m, n, d) matching the box")
    n = v.shape[-2]
    t = float(box.half_widths[0])
    reports = []
    if box.is_cube:
        reports.append(upper_bound_general(fisher_closed_form_cube(box), v))
        reports.append(upper_bound_cube(t, _l2_norms(v)))
    reports.append(isotropic_bound(box, n))
    if box.dimension == 1 and t.is_integer() and bool(np.all(np.abs(v) == 1.0)):
        reports.append(lower_bound_1d(int(t), n))
    return reports


def _l2_norms(steps: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(steps, axis=-1)``, over slabs of ~_NORM_SLAB values."""
    rows = steps.reshape(-1, steps.shape[-1])
    norms = np.empty(len(rows))
    slab = max(1, _NORM_SLAB // rows.shape[1])
    for i in range(0, len(rows), slab):
        norms[i : i + slab] = np.linalg.norm(rows[i : i + slab], axis=1)
    return norms.reshape(steps.shape[:-1])
