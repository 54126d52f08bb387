"""Discrete N-point energy and its gradient flow, used as an oracle.

With particles pinned to the mass-grid midpoints, the (scaled) particle
gradient coincides with the continuum right-hand side, so these routines
re-derive the dynamics independently rather than re-simulating them.

They sum full rows, both i < j and j < i, with the per-element formulas
|d|^q and q sgn(d) |d|^{q-1}: no sorting and no closed forms, so they share
no summation code with the pair sums in ``kernels``.  They share only the
differences p_i - y_j (``kernels._differences``, bit for bit the broadcast
subtraction), and keep ``np.power`` and ``np.sum`` where the kernels use
exp(p ln d) and BLAS sums, so the two power evaluations stay independent.
The datum term is exact: the piecewise-constant datum integrates each
formula piece by piece through its primitive, with the pieces' two ends as
signed sources.  A ``MassQuadrature``, where a caller passes one, replaces
it by a sum over the quantile nodes.  The rows are tiled by
``kernels._scratch_blocks``, so memory stays under the kernels' cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import _differences, _scratch_blocks

__all__ = ["ParticleSystem", "discrete_energy", "particle_rhs"]


@dataclass(frozen=True)
class ParticleSystem:
    positions: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("positions must be a nonempty 1-d array")
        if not np.all(np.isfinite(p)):
            raise ValueError("positions must be finite")
        if np.any(np.diff(p) < 0):
            raise ValueError("positions must be sorted nondecreasing")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "positions", p)

    @property
    def N(self):
        return self.positions.size


def _row_sums(p, y, weights, q, kernel):
    """sum_j weights_j kernel(q, p_i - y_j) for every i, in row blocks."""
    write = _differences(p, y)
    out = np.empty(p.size)
    for rows, d, tmp in _scratch_blocks(p.size, y.size, temps=2):
        kernel(q, write(rows, d), tmp)
        if weights is not None:
            np.multiply(weights, d, out=d)
        np.sum(d, axis=1, out=out[rows])
    return out


def _psi(q, d, tmp):
    """d <- |d|^q."""
    np.abs(d, out=d)
    np.power(d, q, out=d)


def _psi_prime(q, d, mag):
    """d <- q sgn(d) |d|^{q-1} for q > 1, with ``mag`` as scratch.

    Formed as copysign(q |d|^{q-1}, d), equal bit for bit: a zero difference
    is +0.0, never -0.0, and |0|^{q-1} = 0.
    """
    np.abs(d, out=mag)
    np.power(mag, q - 1.0, out=mag)
    np.multiply(mag, q, out=mag)
    np.copysign(mag, d, out=d)


def _primitive(q, d, mag):
    """d <- sgn(d) |d|^{q+1} / (q+1), the primitive of |d|^q."""
    np.abs(d, out=mag)
    np.power(mag, q + 1.0, out=mag)
    np.copysign(mag, d, out=d)
    np.divide(d, q + 1.0, out=d)


def _datum_sums(p, profile, q, quad, kernel, primitive):
    """(kernel(q, .) * omega)(p_i) for every i.

    Exact by default: over the piece [b_k, b_{k+1}] of density rho_k the
    integral is rho_k (P(p - b_k) - P(p - b_{k+1})), with P = ``primitive``
    an antiderivative of the kernel.  With ``quad`` it is the quadrature
    sum_j w_j kernel(q, p_i - Y(zeta_j)).
    """
    if quad is not None:
        y = profile.quantile(quad.nodes)
        return _row_sums(p, y, quad.weights, q, kernel)
    b = profile.breakpoints
    rho = profile.densities
    ends = np.concatenate([b[:-1], b[1:]])
    return _row_sums(p, ends, np.concatenate([rho, -rho]), q, primitive)


def discrete_energy(sys, profile, exps, quad=None):
    """E_N = -1/(2N^2) sum psi_r(p_i - p_j) + (1/N) sum (psi_a * omega)(p_i).

    The datum term is exact unless ``quad`` is given.
    """
    p = sys.positions
    N = sys.N
    rep = np.sum(_row_sums(p, p, None, exps.q_r, _psi))
    attr = np.sum(_datum_sums(p, profile, exps.q_a, quad, _psi, _primitive))
    return float(-rep / (2.0 * N * N) + attr / N)


def particle_rhs(sys, profile, exps, quad=None):
    """Scaled steepest descent -N dE_N/dp_i; requires q_r > 1.

    At q_r = 1 the repulsion gradient is set-valued whenever particles
    coincide, so that case is rejected.  The datum term is exact unless
    ``quad`` is given.
    """
    if exps.q_r == 1.0:
        raise ValueError("particle flow undefined for q_r = 1 (set-valued gradient)")
    p = sys.positions
    N = sys.N
    rep = _row_sums(p, p, None, exps.q_r, _psi_prime) / N
    attr = _datum_sums(p, profile, exps.q_a, quad, _psi_prime, _psi)
    return rep - attr
