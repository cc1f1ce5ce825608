"""Closed-form bounds on the expected number of discarded steps.

All four calculators return a BoundReport so downstream reports carry the
bound kind and the inputs it was computed from next to the value.
``matching_bounds`` is the one rule for which of them apply to a run; one
pass of scaled step norms serves both of its upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bodies import Box, FisherMatrix, _integer, dirichlet_lambda1_box

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
    Raises ValueError on negative or non-finite norms, and when pi / (2 T)
    is not finite (T below ~1e-308).
    """
    t = float(half_width)
    if not (0.0 < t < math.inf):
        raise ValueError("half_width must be positive and finite")
    factor = (0.5 * math.pi) / t  # 2 T would overflow for T above ~9e307
    if not math.isfinite(factor):
        raise ValueError("half_width too small: pi / (2 T) overflows")
    norms = np.asarray(step_l2_norms, dtype=float)
    if norms.ndim not in (1, 2) or not np.all((norms >= 0.0) & (norms < math.inf)):
        raise ValueError("step_l2_norms must be (n,) or (m, n) finite nonnegative norms")
    value = factor * float(np.mean(np.sum(norms, axis=-1)))
    digest = f"n={norms.shape[-1]}, T={t}"
    if norms.ndim == 2:
        digest += f", mean over {norms.shape[0]} trials"
    return BoundReport("cube_l2", value, digest)


def isotropic_bound(box: Box, n_steps: int) -> BoundReport:
    """sqrt(lambda_1(K)) * n for isotropic steps with unit covariance.

    It holds only for that step law (``StepGenerator("isotropic_custom")``
    draws it) and ignores the steps of a run, so no report attaches it.
    """
    n = _integer("n_steps", n_steps, 0)
    lam = dirichlet_lambda1_box(box)
    digest = f"n={n}, d={box.dimension}, lambda1={lam}"
    return BoundReport("isotropic", math.sqrt(lam) * n, digest)


def lower_bound_1d(half_width: int, n_steps: int) -> BoundReport:
    """n / (2 T + 1) - T for the unit-step walk on a band of integer radius T.

    Computed as an exact rational, then converted.  May be negative for
    short runs; reported raw.
    """
    t = _integer("half_width", half_width, 0)
    n = _integer("n_steps", n_steps, 0)
    value = float(Fraction(n, 2 * t + 1) - t)
    return BoundReport("lower_1d", value, f"n={n}, T={t}")


def matching_bounds(box: Box, steps) -> list[BoundReport]:
    """The bounds that apply to ``steps`` ((n, d), or (m, n, d) averaged over
    trials) in ``box``: the Fisher bound on every box and the cube bound, the
    same float, on cubes, both pi / (2 T_min) * sum_j |v_j / (T / T_min)|_2;
    and the 1-d lower bound only for steps of exactly +-1 on an integer band.
    """
    v = np.asarray(steps, dtype=float)
    if v.ndim not in (2, 3) or v.shape[-1] != box.dimension:
        raise ValueError("steps must have shape (n, d) or (m, n, d) matching the box")
    t_min = float(np.min(box.half_widths))
    with np.errstate(over="ignore"):  # T_i / T_min = inf zeroes v_i, as pi**2 / T_i**2 does
        cube = upper_bound_cube(t_min, _l2_norms(v, box.half_widths / t_min))
    digest = f"n={v.shape[-2]}, d={box.dimension}, fisher=closed_form"
    if v.ndim == 3:
        digest += f", mean over {v.shape[0]} trials"
    reports = [BoundReport("general_fisher", cube.value, digest)]
    if box.is_cube:
        reports.append(cube)
    if box.dimension == 1 and t_min.is_integer() and bool(np.all(np.abs(v) == 1.0)):
        reports.append(lower_bound_1d(t_min, v.shape[-2]))
    return reports


def _l2_norms(steps: np.ndarray, divisor=1.0) -> np.ndarray:
    """``np.linalg.norm(steps / divisor, axis=-1)``, over slabs of ~_NORM_SLAB values."""
    rows = steps.reshape(-1, steps.shape[-1])
    norms = np.empty(len(rows))
    slab = max(1, _NORM_SLAB // rows.shape[1])
    for i in range(0, len(rows), slab):
        norms[i : i + slab] = np.linalg.norm(rows[i : i + slab] / divisor, axis=1)
    return norms.reshape(steps.shape[:-1])
