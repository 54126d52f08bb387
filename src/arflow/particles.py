"""Discrete N-point energy and its gradient flow, used as an oracle.

With particles pinned to the mass-grid midpoints, the particle system is the
state itself: both routines take the ``InverseCDF`` X they check, with one
particle at each node X(z_i).  Its (scaled) gradient coincides with the
continuum right-hand side, so these routines re-derive the dynamics
independently rather than re-simulating them.

Each sum picks its per-element formula by one parity flag: |d|^q for the
energy, or q sgn(d) |d|^{q-1} for the gradient if ``odd``.  The pair sum
(``_pair_rows``) takes each pair of particles once, adding the formula on
p_i - p_j to row i and, by its parity, to row j: no sorting and no closed
forms, so it shares no summation code with the pair sums in ``kernels``.
The oracle shares only the blocks of ``kernels._scratch_blocks``: their
differences p_i - y_j, bit for bit the broadcast subtraction, and a pair
block's mask.  It keeps ``np.power`` and ``np.sum`` where the kernels use
exp(p ln d) and BLAS sums, so the two power evaluations stay independent.
The datum term is exact: each piece integrates the formula through its
primitive, about the piece's centre, where the kernels take it from its far
end with exp(p ln d).  Both sums run in those row blocks, so memory stays
under the kernels' cap.
"""

from __future__ import annotations

import numpy as np

from .kernels import _scratch_blocks

__all__ = ["discrete_energy", "particle_rhs"]


def _pair_rows(p, q, odd):
    """sum_{j != i} of |d|^q, or q sgn(d) |d|^{q-1} if ``odd``, over the
    differences d = p_i - p_j, for every i, each pair taken once.

    A block holds the pairs j >= i of its rows; the entries j <= i of its
    own square are zeroed after the formula.  Its row sums go to the rows i
    and its column sums, negated if ``odd``, to the rows j.  p need not be
    sorted: the odd formula is copysign(q |d|^{q-1}, d), where a zero
    difference is +0.0, not -0.0, and |0|^{q-1} = 0 for q > 1.
    """
    out = np.zeros(p.size)
    cols = np.subtract if odd else np.add
    for rows, own, d, mag in _scratch_blocks(p, p, temps=2, pairs=True):
        if odd:
            np.abs(d, out=mag)
            np.power(mag, q - 1.0, out=mag)
            np.multiply(mag, q, out=mag)
            np.copysign(mag, d, out=d)
        else:
            np.power(np.abs(d, out=d), q, out=d)
        np.copyto(d[:, :len(own)], 0.0, where=own)
        out[rows] += np.sum(d, axis=1)
        cols(out[rows.start:], np.sum(d, axis=0), out=out[rows.start:])
    return out


def _datum_sums(p, profile, q, odd):
    """(f * omega)(p_i) for every i, exact by pieces, in row blocks, with
    f = |.|^q, or q sgn(.) |.|^{q-1} if ``odd``.

    The piece [b_k, b_{k+1}] of density rho_k and width 2h
    adds rho_k (P(c + h) - P(c - h)), c = (p - b_{k+1}) + h, with P of power
    s the primitive of f: the odd sgn(t) |t|^{q+1} / (q+1), or the even
    |t|^q if ``odd``.  With M = max(|c|, h), r = min(|c|, h) / M and
    E(+-r) = expm1(s log1p(+-r)), even P adds sgn(c) M^s (E(r) - E(-r)),
    odd P M^s (E(r) - E(-r)) outside the piece and M^s (2 + E(r) + E(-r))
    inside it.  E(r) >= 0 >= E(-r), so nothing cancels.
    """
    w, s = np.diff(profile.breakpoints), (q if odd else q + 1.0)
    out = np.empty(p.size)
    # in lengths 2c, 2M, 2h = w: h may round to 0
    for rows, c, m, r, v in _scratch_blocks(p, profile.breakpoints[1:],
                                            temps=4):
        np.copyto(v, w)
        np.add(np.add(c, c, out=c), v, out=c)
        np.maximum(np.abs(c, out=m), v, out=m)
        np.minimum(np.abs(c, out=r), v, out=r)
        if odd:  # sgn(c) (E(r) - E(-r)) = E(sgn(c) r) - E(-sgn(c) r)
            np.copysign(r, c, out=r)
        np.negative(np.divide(r, m, out=v), out=c)
        with np.errstate(divide="ignore"):  # log1p(-1) at a piece's end
            for e in (c, v):  # E(-r), then E(r)
                np.expm1(np.multiply(np.log1p(e, out=e), s, out=e), out=e)
        if not odd:  # |c| < h exactly, where r M may round across h
            np.subtract(-2.0, c, out=c, where=r < w)
        np.power(np.multiply(m, 0.5, out=m), s, out=m)
        np.multiply(m, np.subtract(v, c, out=v), out=c)
        np.multiply(profile.densities, c, out=c)
        np.sum(c, axis=1, out=out[rows])
    return out if odd else out / (q + 1.0)


def discrete_energy(X, profile, exps):
    """E_N = -1/(2N^2) sum psi_r(p_i - p_j) + (1/N) sum (psi_a * omega)(p_i).

    The particles p_i are the nodes of the state X.
    """
    p = X.x_values
    rep = np.sum(_pair_rows(p, exps.q_r, False))
    attr = np.sum(_datum_sums(p, profile, exps.q_a, False))
    return float(-rep / (2.0 * X.n * X.n) + attr / X.n)


def particle_rhs(X, profile, exps):
    """Scaled steepest descent -N dE_N/dp_i at the nodes p_i of X; q_r > 1.

    At q_r = 1 the repulsion gradient is set-valued whenever particles
    coincide, so that case is rejected.
    """
    if exps.q_r == 1.0:
        raise ValueError("particle flow undefined for q_r = 1 (set-valued gradient)")
    p = X.x_values
    rep = _pair_rows(p, exps.q_r, True) / X.n
    attr = _datum_sums(p, profile, exps.q_a, True)
    return rep - attr
