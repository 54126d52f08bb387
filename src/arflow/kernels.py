"""Blocks, powers and datum sums of power kernels |x|^q, and the drift.

The drift generated by the datum is U = psi_a' * omega; its Lipschitz bound
is the step-size guard, which ``dynamics.simulate`` alone takes.  Every datum
term is one sum (``_datum_sum``) over the datum's one representation
(``_pieces``): its pieces, exact, or the point masses of a ``MassQuadrature``
where a caller passes one, which only the benchmark's Fourier job does.  U,
psi_a * omega and the datum's self term are each one level of it.  Only
q_a = 1 (U = 2G - m) and the exact datum at q = 2 keep O(n) closed forms,
the latter with omega's spread from ``_moments``, as on the Fourier side.

Every dense sum runs in row blocks of at most ``_BLOCK_ELEMS`` elements,
and a sum over pairs (the repulsion's in ``dynamics`` and the particle
oracle's) in blocks of at most ``_TRIANGLE_ROWS`` rows, built with ``out=``
ufunc chains in one scratch buffer per call, so memory stays flat as n
grows and no block faults in fresh pages.  One generator
(``_scratch_blocks``) lays out every block: it writes the block's
differences as a rank-2 BLAS product, bit for bit the broadcast
subtraction, and masks a pair block's own square.  Each power is
exp(p ln d) (``_pow``), not ``np.power``.  The particle oracle keeps
``np.power`` and takes each piece about its centre, not from its far end,
so the oracle check compares two different formulas and two independent
power evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import MassQuadrature

__all__ = [
    "Exponents",
    "AttractionPotential",
    "attraction_U",
    "lipschitz_bound",
]

# Largest temporary, in array elements, that a blocked sum builds at once
# (512 KB of float64).
_BLOCK_ELEMS = 2**16
# Most rows in a block of a sum over pairs i < j: the entries j <= i of a
# block's own square are computed and dropped, r(r + 1)/2 of them per block.
_TRIANGLE_ROWS = 64


def _scratch_blocks(a, b, temps=1, pairs=False):
    """Row blocks of the differences a_i - b_j under the memory cap.

    Yields ``(block, d, view_2, ..., view_temps)``.  Each view is a
    C-contiguous (len(block), len(b)) window of one buffer allocated for
    this call, and d holds a[block, None] - b as the rank-2 BLAS product
    [a_i, 1] [1; -b_j].  Products by 1 are exact and BLAS rounds the sum of
    the two once, so each entry equals the subtraction a_i - b_j, except
    that a zero difference is always +0.0; at these shapes this is several
    times faster than the broadcast subtraction.  Given sizes for a and b,
    as a sum of products does, every view is left as scratch.

    With ``pairs`` (b = a, for a sum over pairs i < j) each view holds the
    columns j >= block.start, in blocks of at most ``_TRIANGLE_ROWS`` rows,
    so that little of each block's own square is wasted, and the block
    comes with ``own``, the mask of the entries j <= i of that square:
    ``(block, own, d, ...)``.  The first block is the largest, so the
    buffer never grows, and blocks built in the views with ``out=`` fault
    in no fresh pages.
    """
    sizes = np.ndim(a) == 0
    rows, cols = (a, b) if sizes else (a.size, b.size)
    step = max(1, _BLOCK_ELEMS // max(cols, 1))
    if pairs:
        step = min(step, _TRIANGLE_ROWS)
    if not sizes:  # the two factors, in O(len(a) + len(b)) memory
        left = np.ones((rows, 2))
        left[:, 0] = a
        right = np.ones((2, cols))
        np.negative(b, out=right[1])
    buf = None
    for start in range(0, rows, step):
        block = slice(start, min(start + step, rows))
        r, c = block.stop - start, cols - start if pairs else cols
        if buf is None:
            buf = np.empty(temps * r * c)
            tri = np.tri(r, dtype=bool) if pairs else None
        views = [buf[k * r * c:(k + 1) * r * c].reshape(r, c)
                 for k in range(temps)]
        if not sizes:
            np.matmul(left[block], right[:, cols - c:], out=views[0])
        yield (block, tri[:r, :r], *views) if pairs else (block, *views)


def _pow(d, p):
    """d <- d**p in place for d >= 0, as exp(p ln d), for p > 0.

    About 1.5 times faster than ``np.power``.  The rounding of p ln d is
    amplified by exp, so the relative error grows like |p ln d| ulp: within
    2 (1 + |p ln d|) ulp of ``np.power``, 4 ulp where |p ln d| <= 1.  A zero
    goes through ln 0 = -inf to 0: the caller holds
    ``np.errstate(divide="ignore")`` once around its whole loop of blocks.
    """
    np.log(d, out=d)
    np.multiply(d, p, out=d)
    return np.exp(d, out=d)


def _pieces(profile, quad=None):
    """The datum as pieces ``(a, w, rho)``: density rho_k on [a_k, a_k + w_k].

    w_k is the difference of the piece's breakpoints as stored, and pieces
    of density 0 are dropped.  A ``quad`` gives point masses instead, w
    None: its nodes Y(zeta_j) with its weights.
    """
    if quad is not None:
        y = np.asarray(profile.quantile(quad.nodes), dtype=float)
        y.setflags(write=False)
        return y, None, quad.weights
    b, rho = profile.breakpoints, profile.densities
    keep = rho > 0
    return b[:-1][keep], np.diff(b)[keep], rho[keep]


def _centres(pieces):
    """Centres, masses and widths of pieces in ``_pieces``' form.

    A piece of density rho on [a, a + w] has centre a + w/2 and mass rho w;
    a point mass (w None) is its own centre.
    """
    a, w, rho = pieces
    return (a, rho, w) if w is None else (a + 0.5 * w, rho * w, w)


def _moments(pieces):
    """First three moments of the pieces, each uniform on its width."""
    centre, mass, width = _centres(pieces)
    w2 = 0.0 if width is None else width**2
    terms = (centre, centre**2 + w2 / 12.0, centre**3 + centre * w2 / 4.0)
    return tuple(float(mass @ t) for t in terms)


def _datum_sum(x, q, pieces, level):
    """int K(x - y) d omega(y) per x, over the pieces of ``_pieces``.

    K is the level-th primitive of |d|^q, level >= -1: q sgn(d) |d|^{q-1}
    at -1, and sgn(d)^l |d|^{q+l} / ((q+1)...(q+l)) at l >= 0.  So level -1
    is psi_q' * omega and level 0 is psi_q * omega.  A point mass rho at a
    adds rho K(x - a); a piece adds rho (P(d) - P(d - w)), d = x - a, with
    P the next primitive, of power s, taken from the piece's far end:
    F = max(|d|, |d - w|) >= w/2, Delta = min(w, |2d - w|) = F - G, with G
    the distance to the near end, and e = expm1(s log1p(-Delta/F)) =
    (G/F)^s - 1.  The piece adds -sgn(2d - w) F^s e for even P; for odd P,
    -F^s e outside it and F^s (2 + e) inside it.  Delta/F lies in [0, 1],
    so nothing cancels, divides by 0 or overflows, and e = -1 at an end.
    """
    a, w, rho = pieces
    order = level if w is None else level + 1
    s, odd = q + order, order % 2
    # the constant of K, or of P on a piece: q at order -1
    factor = q if order < 0 else 1.0 / math.prod(q + np.arange(1, order + 1))
    flat = np.ravel(x)
    out = np.empty(flat.size)
    with np.errstate(divide="ignore"):  # ln 0 at a point mass or piece end
        for rows, d, f, u in _scratch_blocks(flat, a, temps=3):
            if w is None:  # sgn(d)^odd |d|^s
                _pow(np.abs(d, out=f), s)
                if odd:
                    np.copysign(f, d, out=f)
            else:
                np.subtract(d, w, out=f)
                np.add(d, f, out=u)  # 2d - w: |2d - w| >= w outside the piece
                np.maximum(np.abs(d, out=d), np.abs(f, out=f), out=f)  # F
                np.minimum(np.abs(u, out=d), w, out=d)  # Delta
                np.negative(np.divide(d, f, out=d), out=d)
                np.expm1(np.multiply(np.log1p(d, out=d), s, out=d), out=d)
                if odd:  # 2 + e inside the piece, and u = |2d - w| >= 0
                    np.add(d, 2.0, out=d, where=np.abs(u, out=u) < w)
                np.copysign(d, u, out=d)  # -sgn(2d - w) e, or for odd P |.|
                np.multiply(_pow(f, s), d, out=f)
            np.matmul(f, rho, out=out[rows])
    return factor * out.reshape(np.shape(x))


def _datum_conv(profile, q, x, quad=None):
    """psi_q * omega at x: level 0 of the datum sum.

    The exact datum at q = 2 takes m (x - com)^2, pivoted on b_0, plus the
    ``_moments`` spread of the pieces about com, which does not cancel.
    """
    if quad is None and q == 2.0:
        a, w, rho = _pieces(profile)
        spread = _moments((profile.centred(a), w, rho))[1]
        return profile.mass * profile.centred(x) ** 2 + spread
    return _datum_sum(x, q, _pieces(profile, quad), 0)


@dataclass(frozen=True)
class Exponents:
    """Kernel exponent pair, restricted to 1 <= q_r <= q_a <= 2."""

    q_a: float
    q_r: float

    def __post_init__(self):
        if not (1.0 <= self.q_r <= self.q_a <= 2.0):
            raise ValueError(
                f"exponents must satisfy 1 <= q_r <= q_a <= 2, "
                f"got q_a={self.q_a}, q_r={self.q_r}"
            )

    @property
    def regime(self):
        return "balanced" if self.q_r == self.q_a else "attraction_dominated"


def _check_q(q):
    if not 1.0 <= q <= 2.0:
        raise ValueError(f"exponent {q} outside [1, 2]")


@dataclass(frozen=True)
class AttractionPotential:
    """Drift U = psi_a' * omega.

    ``y_nodes`` holds the datum's breakpoints without ``quad``, where U is
    exact by pieces, and Y(quad.nodes) with it.  For q_a = 1 both use the
    exact CDF form U = 2G - m.
    """

    profile: object
    q_a: float
    quad: MassQuadrature | None = None
    y_nodes: np.ndarray = field(init=False)

    def __post_init__(self):
        _check_q(self.q_a)
        object.__setattr__(self, "_datum", _pieces(self.profile, self.quad))
        object.__setattr__(self, "y_nodes", self.profile.breakpoints
                           if self.quad is None else self._datum[0])

    def __call__(self, x):
        return attraction_U(self, x)


def lipschitz_bound(profile, q_a):
    """Upper bound for Lip(U): ``simulate``'s lambda in its dt guard."""
    rho = profile.density_bound
    m = profile.mass
    if q_a == 1.0:
        return 2.0 * rho
    if q_a == 2.0:
        return 2.0 * m
    return q_a * (q_a - 1.0) * (2.0 / (q_a - 1.0) * rho + m)


def attraction_U(pot, x):
    """Evaluate U at x (scalar or array)."""
    x = np.asarray(x, dtype=float)
    profile = pot.profile
    if pot.q_a == 1.0:
        out = 2.0 * np.asarray(profile.cdf(x)) - profile.mass
    elif pot.q_a == 2.0 and pot.quad is None:
        out = 2.0 * profile.mass * profile.centred(x)
    else:
        out = _datum_sum(x, pot.q_a, pot._datum, -1)
    return out if out.ndim else float(out)
