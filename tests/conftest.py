import decimal
import functools

import numpy as np
import pytest

from arflow import ReferenceProfile, dynamics
from arflow.kernels import _check_q


def psi(q, x):
    """|x|^q, the tests' dense kernel reference."""
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


@pytest.fixture
def uniform_profile():
    """Density 1 on [0, 1], mass 1."""
    return ReferenceProfile([0.0, 1.0], [1.0])


@pytest.fixture
def dense2_profile():
    """Density 2 on [0, 1], mass 2."""
    return ReferenceProfile([0.0, 1.0], [2.0])


@pytest.fixture
def half_profile():
    """Density 1/2 on [0, 1], mass 1/2."""
    return ReferenceProfile([0.0, 1.0], [0.5])


@pytest.fixture
def gap_profile():
    """Density 1 on [0, 1] and [2, 3], zero in between, mass 2."""
    return ReferenceProfile([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def pair_passes(monkeypatch):
    """q_r of every ``dynamics.repulsion_direct`` pass."""
    passes = []

    def counted(x, q_r, inner=dynamics.repulsion_direct):
        passes.append(q_r)
        return inner(x, q_r)

    monkeypatch.setattr(dynamics, "repulsion_direct", counted)
    return passes


# narrow datums, on which the breakpoint (jump) form of a piece of width w
# loses about log10(|x - b| / w) digits; every width is the exact
# difference of its breakpoints
NARROW_DATUMS = {
    "1e3-on-1e-3": ([0.0, 1e-3], [1e3]),
    "1e6-on-1e-6": ([0.0, 1e-6], [1e6]),
    "two-pieces-gap": ([0.0, 1e-3, 1.0, 1.0 + 1e-3], [500.0, 0.0, 500.0]),
}

# unit-mass datums with pieces 1e-8 wide far from the centre of mass, on
# which omega's spread from cubed breakpoints cancels (the energy's q = 2
# term); kept apart from NARROW_DATUMS, as the datum's self term cancels on
# them too
SPREAD_DATUMS = {
    "two-1e-8-pieces": ([0.0, 1e-8, 1.0, 1.00000001], [5e7, 0.0, 5e7]),
    "unit-plus-1e-8-at-10": ([0.0, 1.0, 10.0, 10.00000001],
                             [0.5, 0.0, 5e7]),
}


def _positive_pieces(datum):
    breaks, densities = datum
    return [(breaks[k], breaks[k + 1], rho)
            for k, rho in enumerate(densities) if rho > 0]


def decimal_datum_sums(datum, q, x, levels):
    """Level-l datum sums of ``datum = (breaks, densities)`` at x, to 50
    digits.

    Stdlib ``decimal`` only: each piece adds rho (P(x - b_k) - P(x - b_{k+1}))
    with P the primitive sgn(d)^m |d|^{q+m} / ((q+1)...(q+m)), m = l + 1, of
    the level-l kernel, from the doubles converted exactly.  One row per
    level.
    """
    pieces = _positive_pieces(datum)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        dq = decimal.Decimal(q)

        def primitive(u, m):
            if u == 0:
                return decimal.Decimal(0)
            value = abs(u) ** (dq + m)
            for j in range(1, m + 1):
                value /= dq + j
            return value.copy_sign(u) if m % 2 else value

        rows = []
        for m in (level + 1 for level in levels):
            row = []
            for v in map(decimal.Decimal, x):
                total = decimal.Decimal(0)
                for a, b, rho in pieces:
                    total += decimal.Decimal(rho) * (
                        primitive(v - decimal.Decimal(a), m)
                        - primitive(v - decimal.Decimal(b), m))
                row.append(float(total))
            rows.append(row)
    return np.array(rows)


@functools.lru_cache(maxsize=None)
def decimal_datum_terms(name, q):
    """Points x in [-3, 3] outside the datum ``NARROW_DATUMS[name]``, with
    U = psi_q' * omega and psi_q * omega there to 50 digits.

    Beside a grid of step 0.02 the points sit 0.5, 2 and 10 widths off
    either end of each piece.
    """
    pieces = _positive_pieces(NARROW_DATUMS[name])
    x = np.concatenate([np.linspace(-3.0, 3.0, 301)] + [
        [a - f * (b - a), b + f * (b - a)]
        for a, b, _ in pieces for f in (0.5, 2.0, 10.0)])
    x = np.array([v for v in x if not any(a <= v <= b for a, b, _ in pieces)])
    u, c = decimal_datum_sums(NARROW_DATUMS[name], q, x, (-1, 0))
    return x, u, c


@functools.lru_cache(maxsize=None)
def decimal_inside_terms(name, q):
    """Points x on and inside the pieces of ``NARROW_DATUMS[name]``, with
    the datum sums of levels -1, 0 and 1 there to 50 digits.

    Per piece of positive density: both ends, one ulp either side of each
    end, and the centre.
    """
    x = []
    for a, b, _ in _positive_pieces(NARROW_DATUMS[name]):
        for end in (a, b):
            x += [np.nextafter(end, -np.inf), end, np.nextafter(end, np.inf)]
        x.append(0.5 * (a + b))
    x = np.array(x)
    return x, decimal_datum_sums(NARROW_DATUMS[name], q, x, (-1, 0, 1))
