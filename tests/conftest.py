import numpy as np
import pytest

from arflow import ReferenceProfile, dynamics, kernels
from arflow.kernels import _check_q


def convolve_kernel(profile, quad, g, x):
    """Quadrature of (g * omega)(x) = integral of g(x - Y(zeta)) over (0, m).

    The tests' dense quadrature reference: one broadcast over the quantile
    nodes, with no blocking and no primitives.
    """
    y = profile.quantile(quad.nodes)
    x = np.asarray(x, dtype=float)
    vals = np.sum(quad.weights * g(x[..., None] - y), axis=-1)
    return vals if vals.ndim else float(vals)


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
    """The exponent of every ``_half_triangle`` pass, through the binding of
    ``kernels`` or of ``dynamics``."""
    passes = []
    for module in (kernels, dynamics):
        def counted(x, p, inner=module._half_triangle):
            passes.append(p)
            return inner(x, p)

        monkeypatch.setattr(module, "_half_triangle", counted)
    return passes
