"""Time integration of the quantile-coordinate evolution equation.

The velocity V = rep - U(X), pairwise repulsion plus the attraction drift
-U(X) in both exponent branches (q = 1 vs q > 1), has one formula,
``_velocity``.  The repulsion's one loop over pairs, each pair once on the
sorted state, is ``repulsion_direct``.  ``simulate`` checks the step-size
guard once per run, and ``step`` is its bare RK4 update.  A closed form for
q_a = q_r = 2 is an integrator oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import AttractionPotential, _pow, _scratch_blocks, \
    lipschitz_bound
from .measures import InverseCDF

__all__ = [
    "FlowState",
    "IntegratorConfig",
    "Trajectory",
    "MonotonicityError",
    "repulsion_term",
    "repulsion_direct",
    "simulate",
    "closed_form_q2",
]


class MonotonicityError(RuntimeError):
    """The discrete state lost monotonicity; dt is too large or n too coarse."""


@dataclass(frozen=True)
class FlowState:
    t: float
    X: InverseCDF


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


@dataclass
class Trajectory:
    states: list
    slope_certificate: float  # running min of min_slope(t) e^{lambda t} / alpha

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
    d = x_j - x_i >= 0, so no |.| is taken, and adds q_r d^p, p = q_r - 1,
    to node j and its negative to node i.  A pair block holds the columns
    j >= rows.start; the entries j <= i of its own square are set to 1.0
    before the power, as ln 0 takes a slow path, and to 0 after it.  Tied
    pairs j > i still take ln 0, hence the one errstate.  At p = 0 the term
    is sgn(d), so tied pairs give 0, not 0**0.  A block's row and column
    sums are BLAS matvecs with a ones vector.
    """
    p = q_r - 1.0
    with np.errstate(divide="ignore"):
        order = np.argsort(x, kind="stable")
        xs = x[order]
        n = xs.size
        acc = np.zeros(n)
        ones = np.ones(n)
        # x_j - x_i = (-x_i) - (-x_j)
        for rows, own, d in _scratch_blocks(-xs, -xs, pairs=True):
            square = d[:, :len(own)]
            if p == 0.0:
                np.sign(d, out=d)
            else:
                np.copyto(square, 1.0, where=own)
                _pow(d, p)
            np.copyto(square, 0.0, where=own)
            r, c = d.shape
            acc[rows] -= d @ ones[:c]
            acc[rows.start:] += ones[:r] @ d
        out = np.empty(n)
        out[order] = q_r * acc / n
    return out


def _velocity(x, z, pot, q_r):
    """Repulsion rep at x and the velocity V = rep - U(x): V's one formula."""
    rep = repulsion_term(x, z, q_r)
    return rep, rep - pot(x)


def step(state, dt, pot, q_r):
    """``simulate``'s RK4 update; aborts on overflow or lost monotonicity."""
    x, z = state.X.x_values, state.X.z_grid
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        k1 = _velocity(x, z, pot, q_r)[1]
        k2 = _velocity(x + 0.5 * dt * k1, z, pot, q_r)[1]
        k3 = _velocity(x + 0.5 * dt * k2, z, pot, q_r)[1]
        k4 = _velocity(x + dt * k3, z, pot, q_r)[1]
        x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(x_new)):
        raise OverflowError(f"state overflowed at t={state.t + dt}")
    if np.any(np.diff(x_new) < 0):
        raise MonotonicityError(
            f"monotonicity lost at t={state.t + dt:.6g}; "
            f"try dt <= {dt / 2:.3e} or a finer grid"
        )
    return FlowState(state.t + dt, InverseCDF(x_new))


def _slope_ratio(min_slope, alpha, growth):
    """min(1, min_slope e^growth / alpha), in log space: e^growth may overflow."""
    if min_slope <= 0.0:
        return 0.0
    return math.exp(min(0.0, math.log(min_slope) - math.log(alpha) + growth))


def simulate(X0, profile, exps, cfg):
    """Advance X0 to t_end, recording every record_every steps.

    The run owns the step-size guard, lambda = Lip(U) from
    ``lipschitz_bound``, taken once: a tied X0 or dt lambda > safety raises
    ValueError before any step.  The slope-condition certificate is the
    running minimum over snapshots of min_slope(t) e^{lambda t} / alpha.
    """
    state = FlowState(0.0, X0)
    alpha = X0.min_slope()
    if alpha <= 0:
        raise ValueError("initial state must have strictly positive min slope")
    pot = AttractionPotential(profile, exps.q_a)
    lam = lipschitz_bound(profile, exps.q_a)
    if cfg.dt * lam > cfg.safety:
        raise ValueError(f"dt={cfg.dt} violates the step-size guard dt <= "
                         f"{cfg.safety / lam:.3e} (safety/lambda)")
    states = [state]
    cert = 1.0
    n_steps = cfg.n_steps
    for k in range(1, n_steps + 1):
        state = step(state, cfg.dt, pot, exps.q_r)
        if k % cfg.record_every == 0 or k == n_steps:
            states.append(state)
            cert = min(cert, _slope_ratio(state.X.min_slope(), alpha,
                                          lam * state.t))
    return Trajectory(states, cert)


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
