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
primitive, about the piece's centre, where the kernels take it from its far
end with exp(p ln d).  The rows are tiled by ``kernels._scratch_blocks``, so
memory stays under the kernels' cap.
"""

from __future__ import annotations

import numpy as np

from .kernels import _differences, _scratch_blocks

__all__ = ["discrete_energy", "particle_rhs"]


def _row_sums(p, y, weights, q, kernel):
    """sum_j weights_j kernel(q, p_i - y_j) for every i, in row blocks."""
    write = _differences(p, y)
    out = np.empty(p.size)
    for rows, d, *tmp in _scratch_blocks(p.size, y.size, temps=4):
        kernel(q, write(rows, d), *tmp)
        if weights is not None:
            np.multiply(weights, d, out=d)
        np.sum(d, axis=1, out=out[rows])
    return out


def _psi(q, d, *_):
    """d <- |d|^q."""
    np.abs(d, out=d)
    return np.power(d, q, out=d)


def _psi_prime(q, d, mag, *_):
    """d <- q sgn(d) |d|^{q-1} for q > 1, with ``mag`` as scratch.

    Formed as copysign(q |d|^{q-1}, d), equal bit for bit: a zero difference
    is +0.0, never -0.0, and |0|^{q-1} = 0.
    """
    np.abs(d, out=mag)
    np.power(mag, q - 1.0, out=mag)
    np.multiply(mag, q, out=mag)
    np.copysign(mag, d, out=d)


def _datum_sums(p, profile, q, kernel, odd):
    """(kernel(q, .) * omega)(p_i) for every i, exact by pieces.

    The piece [b_k, b_{k+1}] of density rho_k and width 2h
    adds rho_k (P(c + h) - P(c - h)), c = (p - b_{k+1}) + h, with P of power
    s the primitive |t|^q, or sgn(t) |t|^{q+1} / (q+1) if ``odd``.  With
    M = max(|c|, h), r = min(|c|, h) / M and E(+-r) = expm1(s log1p(+-r)),
    even P adds sgn(c) M^s (E(r) - E(-r)), odd P M^s (E(r) - E(-r)) outside
    the piece and M^s (2 + E(r) + E(-r)) inside it.  E(r) >= 0 >= E(-r), so
    nothing cancels.
    """
    w, s = np.diff(profile.breakpoints), q + odd

    def piece(q, c, m, r, v):  # in lengths 2c, 2M, 2h = w: h may round to 0
        np.copyto(v, w)
        np.add(np.add(c, c, out=c), v, out=c)
        np.maximum(np.abs(c, out=m), v, out=m)
        np.minimum(np.abs(c, out=r), v, out=r)
        if not odd:  # sgn(c) (E(r) - E(-r)) = E(sgn(c) r) - E(-sgn(c) r)
            np.copysign(r, c, out=r)
        np.negative(np.divide(r, m, out=v), out=c)
        with np.errstate(divide="ignore"):  # log1p(-1) at a piece's end
            for e in (c, v):  # E(-r), then E(r)
                np.expm1(np.multiply(np.log1p(e, out=e), s, out=e), out=e)
        if odd:  # |c| < h exactly, where r M may round across h
            np.subtract(-2.0, c, out=c, where=r < w)
        np.power(np.multiply(m, 0.5, out=m), s, out=m)
        np.multiply(m, np.subtract(v, c, out=v), out=c)

    return _row_sums(p, profile.breakpoints[1:], profile.densities, q,
                     piece) / (q + 1.0) ** odd


def discrete_energy(X, profile, exps):
    """E_N = -1/(2N^2) sum psi_r(p_i - p_j) + (1/N) sum (psi_a * omega)(p_i).

    The particles p_i are the nodes of the state X.
    """
    p = X.x_values
    rep = np.sum(_row_sums(p, p, None, exps.q_r, _psi))
    attr = np.sum(_datum_sums(p, profile, exps.q_a, _psi, True))
    return float(-rep / (2.0 * X.n * X.n) + attr / X.n)


def particle_rhs(X, profile, exps):
    """Scaled steepest descent -N dE_N/dp_i at the nodes p_i of X; q_r > 1.

    At q_r = 1 the repulsion gradient is set-valued whenever particles
    coincide, so that case is rejected.
    """
    if exps.q_r == 1.0:
        raise ValueError("particle flow undefined for q_r = 1 (set-valued gradient)")
    p = X.x_values
    rep = _row_sums(p, p, None, exps.q_r, _psi_prime) / X.n
    attr = _datum_sums(p, profile, exps.q_a, _psi_prime, False)
    return rep - attr
