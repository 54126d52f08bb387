"""Discrete N-point energy and its gradient flow, used as an oracle.

With particles pinned to the mass-grid midpoints, the particle system is the
state itself: both routines take the ``InverseCDF`` X they check, with one
particle at each node X(z_i).  Its (scaled) gradient coincides with the
continuum right-hand side, so these routines re-derive the dynamics
independently rather than re-simulating them.

They sum full rows, both i < j and j < i, with the per-element formulas
|d|^q and q sgn(d) |d|^{q-1}: no sorting and no closed forms, so they share
no summation code with the pair sums in ``kernels``.  They share only the
differences p_i - y_j (``kernels._differences``, bit for bit the broadcast
subtraction), and keep ``np.power`` and ``np.sum`` where the kernels use
exp(p ln d) and BLAS sums, so the two power evaluations stay independent.
The datum term is exact: each piece integrates the formula through its
primitive, pivoted on the piece's right end, where the kernels pivot on
its left end with exp(p ln d).  A ``MassQuadrature``, where a caller passes one, replaces
it by a sum over the quantile nodes.  The rows are tiled by
``kernels._scratch_blocks``, so memory stays under the kernels' cap.
"""

from __future__ import annotations

import numpy as np

from .kernels import _differences, _scratch_blocks

__all__ = ["discrete_energy", "particle_rhs"]


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
    return np.power(d, q, out=d)


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
    return np.divide(d, q + 1.0, out=d)


def _datum_sums(p, profile, q, quad, kernel, primitive, s):
    """(kernel(q, .) * omega)(p_i) for every i.

    Exact by default: the piece [b_k, b_{k+1}] of density rho_k and width w
    adds rho_k (P(e + w) - P(e)), e = p - b_{k+1}, with P = ``primitive``
    of power s.  Where |e| > w, e + w shares the sign of e and that is
    P(e) expm1(s log1p(w/e)), which does not cancel on a narrow piece;
    nearer, it is taken directly.  With ``quad`` it is the quadrature
    sum_j w_j kernel(q, p_i - Y(zeta_j)).
    """
    if quad is not None:
        y = profile.quantile(quad.nodes)
        return _row_sums(p, y, quad.weights, q, kernel)
    b = profile.breakpoints
    w = np.diff(b)

    def piece(q, e, ratio):
        near = np.nonzero(np.abs(e, out=ratio) <= w)
        en, wn = e[near], w[near[1]]
        e[near] = wn  # a stand-in, replaced below
        np.log1p(np.divide(w, e, out=ratio), out=ratio)
        np.expm1(np.multiply(ratio, s, out=ratio), out=ratio)
        np.multiply(primitive(q, e, np.empty_like(e)), ratio, out=e)
        e[near] = (primitive(q, en + wn, np.empty_like(en))
                   - primitive(q, en, np.empty_like(en)))

    return _row_sums(p, b[1:], profile.densities, q, piece)


def discrete_energy(X, profile, exps, quad=None):
    """E_N = -1/(2N^2) sum psi_r(p_i - p_j) + (1/N) sum (psi_a * omega)(p_i).

    The particles p_i are the nodes of the state X.  The datum term is
    exact unless ``quad`` is given.
    """
    p = X.x_values
    rep = np.sum(_row_sums(p, p, None, exps.q_r, _psi))
    attr = np.sum(_datum_sums(p, profile, exps.q_a, quad, _psi, _primitive,
                              exps.q_a + 1.0))
    return float(-rep / (2.0 * X.n * X.n) + attr / X.n)


def particle_rhs(X, profile, exps, quad=None):
    """Scaled steepest descent -N dE_N/dp_i at the nodes p_i of X; q_r > 1.

    At q_r = 1 the repulsion gradient is set-valued whenever particles
    coincide, so that case is rejected.  The datum term is exact unless
    ``quad`` is given.
    """
    if exps.q_r == 1.0:
        raise ValueError("particle flow undefined for q_r = 1 (set-valued gradient)")
    p = X.x_values
    rep = _row_sums(p, p, None, exps.q_r, _psi_prime) / X.n
    attr = _datum_sums(p, profile, exps.q_a, quad, _psi_prime, _psi, exps.q_a)
    return rep - attr
