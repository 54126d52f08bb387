"""Explicit steady states for q_r = 1 and the stationarity residual.

The equilibrium quantile function solves U(X*(z)) = 2z - 1, and one inverse
of the drift gives every node and edge.  At q_a = 2 the drift is affine,
U(x) = 2m(x - com), so X* = com + (2z - 1)/(2m) in closed form; for
1 < q_a < 2 one bisection inverts U at the edges and all nodes together,
halving one bracket ceil(log2(width / ``_TOL``)) times; for q_a = 1 X* is a
shifted window of the datum's quantile function.  For m < 1 (q = 1) only a
partial limit profile exists and the outer mass escapes.  Nothing here
takes a time step, so the integrator's step-size guard does not apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _velocity
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
    Xstar: InverseCDF | None  # None, as are the edges, where none exists
    x_lo: float | None
    x_hi: float | None
    x_zero: float | None
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


_MAX_EXPAND = 200  # bracket doublings before invert_increasing gives up
_TOL = 1e-12  # bracket width at which invert_increasing stops


def invert_increasing(f, targets, lo, hi):
    """Vectorized bisection solving f(x) = target for an increasing f.

    The bracket [lo, hi] is expanded geometrically until it straddles all
    targets (valid since f has limits -inf/+inf); OverflowError if
    ``_MAX_EXPAND`` doublings do not reach them.  Every bracket starts at
    the same width, so ceil(log2(width / ``_TOL``)) halvings bring all of
    them to ``_TOL``; a halving of one already at the float spacing of its
    root leaves it where it is.  An infinite width is an OverflowError too.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    width = max(hi - lo, 1.0)
    for _ in range(_MAX_EXPAND):
        if f(lo) <= targets.min() and f(hi) >= targets.max():
            break
        lo -= width
        hi += width
        width *= 2.0
    else:
        raise OverflowError(f"could not bracket the roots in {_MAX_EXPAND} doublings")
    lo_arr, hi_arr = np.full_like(targets, lo), np.full_like(targets, hi)
    for _ in range(math.ceil(math.log2(max(hi - lo, _TOL) / _TOL))):
        mid = 0.5 * (lo_arr + hi_arr)
        below = np.asarray(f(mid)) < targets
        lo_arr = np.where(below, mid, lo_arr)
        hi_arr = np.where(below, hi_arr, mid)
    return 0.5 * (lo_arr + hi_arr)


def _invert_drift(profile, q_a, z):
    """The x with U(x) = 2z - 1 at each mass level z in [0, 1].

    At q_a = 1: the datum's quantile at zeta = z + (m - 1)/2, the end of its
    mass (past any trailing gap) at zeta = m, and NaN outside [0, m].
    """
    m = profile.mass
    if q_a == 2.0:
        return profile.com() + (2.0 * z - 1.0) * (0.5 / m)
    if q_a != 1.0:
        pot = AttractionPotential(profile, q_a)
        return invert_increasing(pot, 2.0 * z - 1.0, *profile.support)
    zeta = z + (m - 1.0) / 2.0
    end = profile.breakpoints[1:][profile.densities > 0][-1]
    x = np.where(zeta == m, end, np.nan)
    inside = (zeta >= 0.0) & (zeta < m)
    x[inside] = profile.quantile(zeta[inside])
    return x


def steady_qr1(profile, q_a, n):
    """Steady state for q_r = 1 (unique for q_a > 1; shifted datum for q_a = 1).

    One inversion of the drift, at the levels 0, 1/2, 1 of the edges and
    the centre and at the nodes; OverflowError where a root is not finite.
    """
    if q_a == 1.0 and profile.mass < 1.0:
        return SteadyState(None, None, None, None, "none_exists")
    with np.errstate(over="ignore", invalid="ignore"):
        roots = _invert_drift(profile, q_a, np.r_[0, 0.5, 1, midpoint_grid(n)])
    if not np.all(np.isfinite(roots)):
        raise OverflowError(f"the steady state at q_a = {q_a} overflows")
    x_lo, x_zero, x_hi = roots[:3].tolist()
    return SteadyState(InverseCDF(roots[3:]), x_lo, x_hi, x_zero,
                       "qa_eq_1_shift" if q_a == 1.0 else "qa_gt_1")


def shifted_profile_mlt1(profile, n):
    """Interior-window limit profile for q_a = q_r = 1 and m < 1."""
    m = profile.mass
    if m >= 1.0:
        raise ValueError("shifted profile requires m < 1")
    z = midpoint_grid(n)
    values = _invert_drift(profile, 1.0, z)
    escape = np.where(np.isnan(values), np.sign(2.0 * z - 1.0 + m), 0)
    return ShiftedProfile(values, escape.astype(int),
                          ((1.0 - m) / 2.0, (1.0 + m) / 2.0))


def steady_residual(X, profile, exps):
    """Sup-norm stationarity defect max |V|, with V from ``_velocity`` alone:
    no energy (a datum sum at every node) is formed beside it."""
    pot = AttractionPotential(profile, exps.q_a)
    v = _velocity(X.x_values, X.z_grid, pot, exps.q_r)[1]
    return float(np.max(np.abs(v)))
