"""Power kernels |x|^q, their derivatives, and the attraction potential.

The drift generated by the datum is U = psi_a' * omega, which is Lipschitz;
its constant doubles as the step-size guard for the integrator.  The datum
is piecewise constant, so U and psi_a * omega are exact sums over its K + 1
breakpoints; a ``MassQuadrature`` replaces them only where a caller passes
one, as the particle oracle's reference.

Pair sums over quantile samples use their order: at q = 1 and q = 2 they
have O(n) closed forms, and otherwise each pair is visited once.  Every
dense sum runs in row blocks of at most ``_BLOCK_ELEMS`` elements, built with
``out=`` ufunc chains in one scratch buffer per call (``_scratch_blocks``), so
memory stays flat as n grows and no block faults in fresh pages.  Each block
of differences is a rank-2 BLAS product (``_differences``), bit for bit the
broadcast subtraction, and each power is exp(p ln d) (``_pow``), not
``np.power``: the particle oracle keeps ``np.power``, so the oracle check
compares two independent power evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import MassQuadrature

__all__ = [
    "Exponents",
    "AttractionPotential",
    "psi",
    "psi_prime",
    "psi_double_prime",
    "attraction_U",
    "lipschitz_bound",
]

# Largest temporary, in array elements, that a blocked sum builds at once
# (512 KB of float64).
_BLOCK_ELEMS = 2**16


def _scratch_blocks(rows, cols, upper=False, temps=1):
    """Row blocks of range(rows) under the memory cap, with scratch views.

    Yields ``(block, view_1, ..., view_temps)``.  Each view is a
    C-contiguous (len(block), cols) window of one buffer allocated for this
    call, or (len(block), cols - block.start) with ``upper``: the columns
    j >= block.start of a sum over pairs i < j.  The first block is the
    largest, so the buffer never grows, and blocks built in the views with
    ``out=`` fault in no fresh pages.
    """
    step = max(1, _BLOCK_ELEMS // max(cols, 1))
    buf = None
    for start in range(0, rows, step):
        block = slice(start, min(start + step, rows))
        shape = (block.stop - start, cols - start if upper else cols)
        size = shape[0] * shape[1]
        if buf is None:
            buf = np.empty(temps * size)
        yield (block, *(buf[k * size:(k + 1) * size].reshape(shape)
                        for k in range(temps)))


def _differences(a, b):
    """Writer of the blocks a[rows, None] - b[start:], bit for bit, by BLAS.

    Returns ``write(rows, out, start=0)``, which sets ``out`` to the rank-2
    product [a_i, 1] [1; -b_j].  Products by 1 are exact and BLAS rounds the
    sum of the two once, so each entry equals the subtraction a_i - b_j,
    except that a zero difference is always +0.0.  For the block shapes the
    sums build this is several times faster than the broadcast subtraction,
    whose loop order numpy picks badly.  The two factors are built once per
    call, in O(len(a) + len(b)) memory.
    """
    left = np.ones((a.size, 2))
    left[:, 0] = a
    right = np.ones((2, b.size))
    np.negative(b, out=right[1])

    def write(rows, out, start=0):
        return np.matmul(left[rows], right[:, start:], out=out)

    return write


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


def _half_triangle(x, p):
    """Row blocks of |x_j - x_i|^p over the pairs j > i, for nondecreasing x.

    Yields ``(rows, block)`` with block[r, c] the term of the pair
    (rows.start + r, rows.start + c), a window of one scratch buffer: the
    columns j >= rows.start.  On sorted x every difference j > i is already
    >= 0, so no |.| is taken.  The entries j <= i of the block's own square
    are set to 1.0 before the power and to 0 after it, as ln 0 takes a slow
    path.  Tied pairs j > i still take ln 0, so the loop runs under one
    ``np.errstate(divide="ignore")``, which the consumer's code between
    yields shares.  At p = 0 the term is sgn(x_j - x_i), so tied pairs give
    0, not 0**0.
    """
    write = _differences(-x, -x)  # x_j - x_i = (-x_i) - (-x_j)
    tri = None
    with np.errstate(divide="ignore"):
        for rows, d in _scratch_blocks(x.size, x.size, upper=True):
            write(rows, d, rows.start)
            r = rows.stop - rows.start
            if tri is None:  # the first block is the largest
                tri = np.tri(r, dtype=bool)
            own = tri[:r, :r]
            if p == 0.0:
                np.sign(d, out=d)
            else:
                np.copyto(d[:, :r], 1.0, where=own)
                _pow(d, p)
            np.copyto(d[:, :r], 0.0, where=own)
            yield rows, d


def _pair_sum(x, w, q):
    """sum_ij w_i w_j |x_i - x_j|^q for nondecreasing x.

    The closed forms at q = 1 and q = 2 need a nonzero total weight; the
    blocked sum takes weights of any sign and total.
    """
    if q in (1.0, 2.0):
        total = np.sum(w)
        centred = x - (w @ x) / total
        if q == 2.0:
            return float(2.0 * total * (w @ (centred * centred)))
        # pair i < j adds w_i w_j (x_j - x_i): x_i collects the mass below
        # it minus the mass above it
        cum = np.cumsum(w)
        return float(2.0 * ((w * centred) @ (2.0 * cum - w - cum[-1])))
    out = 0.0
    for rows, d in _half_triangle(x, q):
        out += w[rows] @ d @ w[rows.start:]
    return float(2.0 * out)


def _cross_sum(x, v, y, w, q):
    """sum_ij v_i w_j |x_i - y_j|^q for nondecreasing y and any x."""
    total = np.sum(w)
    y_bar = (w @ y) / total
    x = x - y_bar
    y = y - y_bar
    if q == 2.0:
        return float(total * (v @ (x * x)) + np.sum(v) * (w @ (y * y)))
    if q == 1.0:
        # sum_j w_j |x_i - y_j| = x_i (2 C_k - W) + S_K - 2 S_k with C, S the
        # prefix sums of w and w y over the k nodes below x_i
        cum_w = np.concatenate([[0.0], np.cumsum(w)])
        cum_wy = np.concatenate([[0.0], np.cumsum(w * y)])
        k = np.searchsorted(y, x)
        per_x = x * (2.0 * cum_w[k] - cum_w[-1]) + cum_wy[-1] - 2.0 * cum_wy[k]
        return float(v @ per_x)
    write = _differences(x, y)
    out = 0.0
    with np.errstate(divide="ignore"):  # a tie takes ln 0
        for rows, d in _scratch_blocks(x.size, y.size):
            np.abs(write(rows, d), out=d)
            _pow(d, q)
            out += v[rows] @ d @ w
    return float(out)


def _density_jumps(profile):
    """rho_j - rho_{j-1} at each breakpoint b_j, with rho = 0 off the support."""
    return np.diff(np.concatenate([[0.0], profile.densities, [0.0]]))


def _exact_sum(profile, x, kernel):
    """sum_k rho_k (kernel(x - b_k) - kernel(x - b_{k+1})) per x.

    Summed by breakpoint: b_j carries the density jump rho_j - rho_{j-1}.
    ``kernel(d, tmp)`` overwrites the block d = x - b with its values and may
    use ``tmp``, a scratch block of the same shape.
    """
    b = profile.breakpoints
    jumps = _density_jumps(profile)
    flat = np.ravel(x)
    write = _differences(flat, b)
    out = np.empty(flat.size)
    with np.errstate(divide="ignore"):  # x on a breakpoint takes ln 0
        for rows, d, tmp in _scratch_blocks(flat.size, b.size, temps=2):
            kernel(write(rows, d), tmp)
            np.matmul(d, jumps, out=out[rows])
    return out.reshape(np.shape(x))


def _exact_U(profile, q, x):
    """psi_q' * omega at x, exactly: sum_k rho_k (|x-b_k|^q - |x-b_{k+1}|^q)."""
    if q == 2.0:
        return 2.0 * profile.mass * (x - profile.com())

    def kernel(d, tmp):
        _pow(np.abs(d, out=d), q)

    return _exact_sum(profile, x, kernel)


def _exact_conv(profile, q, x):
    """psi_q * omega at x, exactly, with primitive sgn(u)|u|^{q+1}/(q+1)."""
    if q == 2.0:
        # m (x - com)^2 plus the centred second moment of omega, by pieces
        com = profile.com()
        b = profile.breakpoints - com
        spread = profile.densities @ (b[1:] ** 3 - b[:-1] ** 3) / 3.0
        return profile.mass * (x - com) ** 2 + spread

    def kernel(d, mag):
        _pow(np.abs(d, out=mag), q + 1.0)
        np.copysign(mag, d, out=d)
        np.divide(d, q + 1.0, out=d)

    return _exact_sum(profile, x, kernel)


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


def psi(q, x):
    """|x|^q."""
    _check_q(q)
    return np.abs(x) ** q


def psi_prime(q, x):
    """q sgn(x) |x|^{q-1}, with psi'(0) = 0 for every q (sgn(0) = 0)."""
    _check_q(q)
    x = np.asarray(x, dtype=float)
    if q == 2.0:
        out = 2.0 * x
    elif q == 1.0:
        out = np.sign(x)
    else:
        out = q * np.sign(x) * np.abs(x) ** (q - 1.0)
    return out if out.ndim else float(out)


def psi_double_prime(q, x):
    """q(q-1)|x|^{q-2}; singular at 0 for q < 2."""
    _check_q(q)
    x = np.asarray(x, dtype=float)
    if q < 2.0 and np.any(x == 0.0):
        raise ValueError(f"second derivative of |x|^{q} undefined at 0")
    if q == 2.0:
        out = np.full_like(x, 2.0)
    else:
        out = q * (q - 1.0) * np.abs(x) ** (q - 2.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class AttractionPotential:
    """Drift U = psi_a' * omega with its Lipschitz constant.

    Without ``quad`` U is exact for the piecewise-constant datum, and
    ``y_nodes`` holds the datum's breakpoints.  With ``quad`` U is the
    quadrature over the nodes ``y_nodes = Y(quad.nodes)``, the particle
    oracle's reference.  For q_a = 1 both use the exact CDF form U = 2G - m.
    """

    profile: object
    q_a: float
    quad: MassQuadrature | None = None
    y_nodes: np.ndarray = field(init=False)
    lam: float = field(init=False)

    def __post_init__(self):
        _check_q(self.q_a)
        if self.quad is None:
            y = self.profile.breakpoints
        else:
            y = np.asarray(self.profile.quantile(self.quad.nodes), dtype=float)
            y.setflags(write=False)
        object.__setattr__(self, "y_nodes", y)
        object.__setattr__(self, "lam", lipschitz_bound(self.profile, self.q_a))

    def __call__(self, x):
        return attraction_U(self, x)


def lipschitz_bound(profile, q_a):
    """Upper bound for Lip(U); any valid bound works as a dt guard."""
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
    q_a = pot.q_a
    if q_a == 1.0:
        out = 2.0 * np.asarray(pot.profile.cdf(x)) - pot.profile.mass
    elif pot.quad is None:
        out = _exact_U(pot.profile, q_a, x)
    elif q_a == 2.0:
        # quadrature of 2(x - y) collapses to an affine function
        wy = np.dot(pot.quad.weights, pot.y_nodes)
        out = 2.0 * (pot.quad.total * x - wy)
    else:
        flat = x.ravel()
        out = np.empty(flat.size)
        y = pot.y_nodes
        write = _differences(flat, y)
        with np.errstate(divide="ignore"):  # x on a node takes ln 0
            for rows, d, mag in _scratch_blocks(flat.size, y.size, temps=2):
                write(rows, d)
                _pow(np.abs(d, out=mag), q_a - 1.0)
                np.copysign(mag, d, out=mag)
                np.matmul(mag, pot.quad.weights, out=out[rows])
        out = q_a * out.reshape(x.shape)
    out = np.asarray(out)
    return out if out.ndim else float(out)
