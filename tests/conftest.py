import numpy as np
import pytest

from arflow import ReferenceProfile


def convolve_kernel(profile, quad, g, x):
    """Quadrature of (g * omega)(x) = integral of g(x - Y(zeta)) over (0, m).

    The tests' dense quadrature reference: one broadcast over the quantile
    nodes, with no blocking and no primitives.
    """
    y = profile.quantile(quad.nodes)
    x = np.asarray(x, dtype=float)
    vals = np.sum(quad.weights * g(x[..., None] - y), axis=-1)
    return vals if vals.ndim else float(vals)


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
