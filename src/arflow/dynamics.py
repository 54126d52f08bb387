"""Time integration of the quantile-coordinate evolution equation.

The right-hand side combines the attraction drift -U(X) with pairwise
repulsion; both exponent branches (q = 1 vs q > 1) are handled.  A closed
form for q_a = q_r = 2 serves as an integrator oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import AttractionPotential, _half_triangle
from .measures import InverseCDF

__all__ = [
    "FlowState",
    "IntegratorConfig",
    "Trajectory",
    "MonotonicityError",
    "rhs",
    "repulsion_term",
    "repulsion_direct",
    "step",
    "simulate",
    "closed_form_q2",
]


class MonotonicityError(RuntimeError):
    """The discrete state lost monotonicity; dt is too large or n too coarse."""


@dataclass(frozen=True)
class FlowState:
    t: float
    X: InverseCDF
    min_slope: float

    @classmethod
    def initial(cls, X):
        return cls(0.0, X, X.min_slope())


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_end: float
    safety: float = 0.5
    record_every: int = 1

    def __post_init__(self):
        if self.dt <= 0 or self.t_end < 0:
            raise ValueError("dt must be positive and t_end nonnegative")
        if not 0 < self.safety <= 1:
            raise ValueError("safety must lie in (0, 1]")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(
                f"t_end={self.t_end} is not an integer multiple of dt={self.dt}"
            )

    @property
    def n_steps(self):
        """Steps from t = 0 to t_end (exact, as t_end is a multiple of dt)."""
        return round(self.t_end / self.dt)

    def check_guard(self, lam):
        """Raise ValueError unless dt * lam <= safety (the step-size guard)."""
        if self.dt * lam > self.safety:
            raise ValueError(
                f"dt={self.dt} violates the step-size guard dt <= "
                f"{self.safety / lam:.3e} (safety/lambda)"
            )


@dataclass
class Trajectory:
    states: list
    slope_certificate: float  # running min of min_slope(t) e^{lambda t} / alpha
    lam: float

    @property
    def times(self):
        return np.array([s.t for s in self.states])


def repulsion_term(x, z, q_r):
    """Repulsion felt by each node: (1/n) sum_j psi_r'(x_i - x_j), or 2z - 1.

    For q_r = 2 the sum collapses to 2(x - mean x), taken about the middle
    node, so that far from the origin the differences are exact and the
    mean does not round at the scale of |x|; for q_r = 1 the cadlag rank
    formula 2z - 1 is exact.  Both agree with the direct O(n^2) sum to
    roundoff.
    """
    if q_r == 1.0:
        return 2.0 * z - 1.0
    if q_r == 2.0:
        d = x - x[x.size // 2]
        return 2.0 * (d - np.mean(d))
    return repulsion_direct(x, q_r)


def repulsion_direct(x, q_r):
    """(1/n) sum_j psi_r'(x_i - x_j), visiting each pair once.

    RK4 stage states need not be monotone, so the sum runs on a stable sort
    of x and is scattered back.  In sorted order a pair j > i has
    d = x_j - x_i >= 0 and adds psi_r'(d) to node j and -psi_r'(d) to node i.
    A block's row and column sums are BLAS matvecs with a ones vector.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    n = xs.size
    acc = np.zeros(n)
    ones = np.ones(n)
    for rows, d in _half_triangle(xs, q_r - 1.0):
        r, c = d.shape
        acc[rows] -= d @ ones[:c]
        acc[rows.start:] += ones[:r] @ d
    out = np.empty(n)
    out[order] = q_r * acc / n
    return out


def _rhs_values(x, z, pot, exps):
    return repulsion_term(x, z, exps.q_r) - pot(x)


def rhs(X, pot, exps):
    """Velocity field V of the transformed equation at state X."""
    return _rhs_values(X.x_values, X.z_grid, pot, exps)


def step(state, cfg, pot, exps):
    """One accepted RK4 step; aborts if the update breaks monotonicity."""
    cfg.check_guard(pot.lam)
    x, z, dt = state.X.x_values, state.X.z_grid, cfg.dt
    k1 = _rhs_values(x, z, pot, exps)
    k2 = _rhs_values(x + 0.5 * dt * k1, z, pot, exps)
    k3 = _rhs_values(x + 0.5 * dt * k2, z, pot, exps)
    k4 = _rhs_values(x + dt * k3, z, pot, exps)
    x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(x_new)):
        raise OverflowError(f"state overflowed at t={state.t + cfg.dt}")
    if np.any(np.diff(x_new) < 0):
        raise MonotonicityError(
            f"monotonicity lost at t={state.t + cfg.dt:.6g}; "
            f"try dt <= {cfg.dt / 2:.3e} or a finer grid"
        )
    X_new = InverseCDF(x_new)
    return FlowState(state.t + cfg.dt, X_new, X_new.min_slope())


def _slope_ratio(min_slope, alpha, growth):
    """min(1, min_slope e^growth / alpha), in log space: e^growth may overflow."""
    if min_slope <= 0.0:
        return 0.0
    return math.exp(min(0.0, math.log(min_slope) - math.log(alpha) + growth))


def simulate(X0, profile, exps, cfg):
    """Advance X0 to t_end, recording every record_every steps.

    Also tracks the slope-condition certificate: the running minimum over
    snapshots of min_slope(t) e^{+lambda t} relative to the initial slope.
    The drift is exact for the piecewise-constant datum.  A tied X0 or a
    dt that breaks the step-size guard raises ValueError before any step.
    """
    state = FlowState.initial(X0)
    alpha = state.min_slope
    if alpha <= 0:
        raise ValueError("initial state must have strictly positive min slope")
    pot = AttractionPotential(profile, exps.q_a)
    cfg.check_guard(pot.lam)
    states = [state]
    cert = 1.0
    n_steps = cfg.n_steps
    for k in range(1, n_steps + 1):
        state = step(state, cfg, pot, exps)
        if k % cfg.record_every == 0 or k == n_steps:
            states.append(state)
            cert = min(cert, _slope_ratio(state.min_slope, alpha,
                                          pot.lam * state.t))
    return Trajectory(states, cert, pot.lam)


def closed_form_q2(X0, profile, t):
    """Exact solution for q_a = q_r = 2.

    X(t,z) = com + e^{-2(m-1)t} (X0(z) - com - (1 - e^{-2t}) (mean X0 - com)),
    taken about b_0: with u = X0 - b_0 and com - b_0 from the breakpoints
    relative to b_0, every term rounds with the spread, not with |x|, and
    only adding b_0 back rounds at ulp(|x|).
    """
    m = profile.mass
    b0 = profile.breakpoints[0]
    u = X0.x_values - b0
    com_offset = -profile.centred(b0)  # com - b_0, exactly
    grow = np.exp(-2.0 * (m - 1.0) * t)
    x = b0 + (grow * (u + np.expm1(-2.0 * t) * np.mean(u))
              - np.expm1(-2.0 * m * t) * com_offset)
    return InverseCDF(x)
