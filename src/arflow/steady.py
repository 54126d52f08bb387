"""Explicit steady states for q_r = 1 and the stationarity residual.

The equilibrium quantile function solves U(X*(z)) = 2z - 1.  At q_a = 2 the
drift is affine, U(x) = 2m(x - com), so X* = com + (2z - 1)/(2m) in closed
form; for 1 < q_a < 2 bisection inverts U node by node; for q_a = 1 X* is a
shifted window of the datum's quantile function.  For m < 1 (q = 1) only a
partial limit profile exists and the outer mass escapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import rhs
from .kernels import AttractionPotential
from .measures import InverseCDF, midpoint_grid

__all__ = [
    "SteadyState",
    "ShiftedProfile",
    "steady_qr1",
    "shifted_profile_mlt1",
    "steady_residual",
    "invert_increasing",
]


@dataclass(frozen=True)
class SteadyState:
    Xstar: InverseCDF | None
    x_lo: float
    x_hi: float
    x_zero: float
    kind: str  # qa_gt_1 | qa_eq_1_shift | none_exists


@dataclass(frozen=True)
class ShiftedProfile:
    """Partial limit for q_a = q_r = 1, m < 1.

    ``values`` holds the limit quantile on the interior mass window and NaN
    at escaping nodes; ``escape`` is -1/0/+1 per node.
    """

    values: np.ndarray
    escape: np.ndarray
    window: tuple


def invert_increasing(f, targets, lo, hi, tol=1e-12, max_expand=200):
    """Vectorized bisection solving f(x) = target for an increasing f.

    The bracket [lo, hi] is expanded geometrically until it straddles all
    targets (valid since f has limits -inf/+inf).  Bisection stops at width
    ``tol`` or, where ``tol`` is below the float spacing of the roots, once
    no midpoint lies strictly inside its bracket.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    width = max(hi - lo, 1.0)
    for _ in range(max_expand):
        if f(lo) <= targets.min() and f(hi) >= targets.max():
            break
        lo -= width
        hi += width
        width *= 2.0
    else:
        raise RuntimeError("could not bracket the roots")
    lo_arr = np.full_like(targets, lo)
    hi_arr = np.full_like(targets, hi)
    while np.max(hi_arr - lo_arr) > tol:
        mid = 0.5 * (lo_arr + hi_arr)
        if np.all((mid == lo_arr) | (mid == hi_arr)):
            break
        below = np.asarray(f(mid)) < targets
        lo_arr = np.where(below, mid, lo_arr)
        hi_arr = np.where(below, hi_arr, mid)
    out = 0.5 * (lo_arr + hi_arr)
    return out


def steady_qr1(profile, q_a, n):
    """Steady state for q_r = 1 (unique for q_a > 1; shifted datum for q_a = 1).

    Closed form at q_a = 2, bisection for 1 < q_a < 2.
    """
    m = profile.mass
    z = midpoint_grid(n)
    if q_a == 1.0:
        if m < 1.0:
            return SteadyState(None, np.nan, np.nan, np.nan, "none_exists")
        shift = (m - 1.0) / 2.0
        xstar = profile.quantile(z + shift)
        x_lo = profile.quantile(shift)
        hi_level = shift + 1.0
        if hi_level < m:
            x_hi = profile.quantile(hi_level)
        else:
            x_hi = profile.support[1]
        x_zero = profile.quantile(m / 2.0)
        return SteadyState(InverseCDF(xstar), float(x_lo), float(x_hi),
                           float(x_zero), "qa_eq_1_shift")
    if q_a == 2.0:
        com, half = profile.com(), 0.5 / m
        return SteadyState(InverseCDF(com + (2.0 * z - 1.0) * half),
                           com - half, com + half, com, "qa_gt_1")
    pot = AttractionPotential(profile, q_a)
    lo, hi = profile.support
    x_lo, x_zero, x_hi = invert_increasing(pot, [-1.0, 0.0, 1.0], lo, hi)
    xstar = invert_increasing(pot, 2.0 * z - 1.0, lo, hi)
    return SteadyState(InverseCDF(xstar), float(x_lo), float(x_hi),
                       float(x_zero), "qa_gt_1")


def shifted_profile_mlt1(profile, n):
    """Interior-window limit profile for q_a = q_r = 1 and m < 1."""
    m = profile.mass
    if m >= 1.0:
        raise ValueError("shifted profile requires m < 1")
    z = midpoint_grid(n)
    lo, hi = (1.0 - m) / 2.0, (1.0 + m) / 2.0
    inside = (z >= lo) & (z <= hi)
    values = np.full(n, np.nan)
    # clip guards the right edge where zeta would hit m exactly
    zeta = np.clip(z[inside] - lo, 0.0, np.nextafter(m, 0.0))
    values[inside] = profile.quantile(zeta)
    escape = np.where(inside, 0, np.sign(2.0 * z - 1.0 + m)).astype(int)
    return ShiftedProfile(values, escape, (lo, hi))


def steady_residual(X, profile, exps):
    """Sup-norm stationarity defect ||rhs(X)||_inf."""
    pot = AttractionPotential(profile, exps.q_a)
    return float(np.max(np.abs(rhs(X, pot, exps))))
