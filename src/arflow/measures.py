"""Pseudo-inverse (quantile) representation of finite measures on the line.

The evolving state of the flow is the grid-sampled pseudo-inverse of a
probability measure; the fixed datum is a piecewise-constant density whose
CDF and quantile function have closed forms.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InverseCDF",
    "ReferenceProfile",
    "MassQuadrature",
    "wasserstein",
    "moment",
    "sample_profile",
    "uniform_state",
]


def midpoint_grid(n):
    """Mass-variable midpoints z_i = (i - 1/2)/n in (0, 1)."""
    return (np.arange(n) + 0.5) / n


_CSV_CHUNK = 512  # rows per formatted chunk of a state CSV


@functools.lru_cache(maxsize=1)
def _csv_templates(n):
    """The body of a state CSV on the grid of n nodes, as ``%`` templates.

    Each row is ``"<z_i>,%.17g\\n"`` with z_i already formatted to 17
    digits, and the rows are joined in chunks of ``_CSV_CHUNK``.  Every
    snapshot of a run shares its grid, so the z column is formatted once
    per grid size, and a snapshot's x column takes one ``%`` per chunk.
    """
    rows = ["%.17g,%%.17g\n" % z for z in midpoint_grid(n).tolist()]
    return tuple("".join(rows[k:k + _CSV_CHUNK])
                 for k in range(0, n, _CSV_CHUNK))


@dataclass(frozen=True)
class InverseCDF:
    """Nondecreasing samples X(z_i) of a probability measure's quantile function.

    The grid is implicit: z_i = (i - 1/2)/n.  Total mass is 1 by construction.
    """

    x_values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_values, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("x_values must be a nonempty 1-d array")
        if not np.all(np.isfinite(x)):
            raise ValueError("x_values must be finite")
        if np.any(np.diff(x) < 0):
            raise ValueError("x_values must be nondecreasing")
        x = x.copy()
        x.setflags(write=False)
        object.__setattr__(self, "x_values", x)

    @property
    def n(self):
        return self.x_values.size

    @property
    def z_grid(self):
        return midpoint_grid(self.n)

    def mean(self):
        """Center of mass, (1/n) sum X(z_i)."""
        return float(np.mean(self.x_values))

    def min_slope(self):
        """min_i (x_{i+1} - x_i) / (z_{i+1} - z_i); +inf for a single node."""
        if self.n < 2:
            return np.inf
        return float(np.min(np.diff(self.x_values)) * self.n)

    def to_csv(self, path):
        """Write the header ``z,x`` and one ``%.17g`` row per node.

        This is csv.writer's rendering, as no %.17g field needs quoting.
        Each chunk of rows is one ``%`` on its ``_csv_templates`` text.
        Chunks are written one by one, as one joined string raised the
        peak RSS.
        """
        xs = tuple(self.x_values.tolist())
        with open(path, "w", newline="") as fh:
            fh.write("z,x\n")
            for k, template in enumerate(_csv_templates(self.n)):
                fh.write(template % xs[k * _CSV_CHUNK:(k + 1) * _CSV_CHUNK])

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as fh:
            header = next(csv.reader([fh.readline()]))
            if header[:2] != ["z", "x"]:
                raise ValueError(f"unexpected CSV header {header!r}")
            # an empty body would make loadtxt warn "input contained no data"
            while not (line := fh.readline()).partition("#")[0].strip():
                if not line:
                    raise ValueError("CSV has no data rows")
        # given a path, numpy's C reader takes the file in blocks; given a
        # handle, it would iterate over its lines
        xs = np.loadtxt(path, delimiter=",", usecols=1, ndmin=1, skiprows=1)
        return cls(xs)


@dataclass(frozen=True)
class ReferenceProfile:
    """Piecewise-constant density on [b_0, b_K] with exact CDF and quantile.

    ``densities[k]`` is the value on [breakpoints[k], breakpoints[k+1]).
    """

    breakpoints: np.ndarray
    densities: np.ndarray
    mass: float = field(init=False)
    density_bound: float = field(init=False)

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        d = np.asarray(self.densities, dtype=float)
        if b.ndim != 1 or b.size < 2:
            raise ValueError("need at least two breakpoints")
        if d.shape != (b.size - 1,):
            raise ValueError("densities must have one entry per interval")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(d))):
            raise ValueError("breakpoints and densities must be finite")
        # finite breakpoints can still lie more than the largest double apart
        with np.errstate(over="ignore", invalid="ignore"):
            rel = b - b[0]
            piece_mass = d * np.diff(b)
            mass = float(np.sum(piece_mass))
            # 2 m (com - b_0) from the breakpoints relative to b_0, as width
            # times midpoint: it rounds with the datum's width, not with |com|
            moment = float(np.sum(piece_mass * (rel[1:] + rel[:-1])))
        if np.any(b[1:] <= b[:-1]):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(d < 0):
            raise ValueError("densities must be nonnegative")
        if not np.all(np.isfinite([rel[-1], mass, moment])):
            raise ValueError("the datum's width, mass and first moment "
                             "must be finite")
        if mass <= 0:
            raise ValueError("profile must have positive mass")
        b = b.copy()
        d = d.copy()
        b.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "densities", d)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "density_bound", float(np.max(d)))
        # cumulative mass at each breakpoint, c_0 = 0, c_K = mass
        cum = np.concatenate([[0.0], np.cumsum(piece_mass)])
        cum[-1] = mass
        cum.setflags(write=False)
        object.__setattr__(self, "_cum_mass", cum)
        object.__setattr__(self, "_com_offset", moment / (2.0 * mass))

    @property
    def support(self):
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def cdf(self, x):
        """Exact piecewise-linear CDF G(x); 0 left of support, mass right of it."""
        x = np.asarray(x, dtype=float)
        b = self.breakpoints
        idx = np.clip(np.searchsorted(b, x, side="right") - 1, 0, b.size - 2)
        g = self._cum_mass[idx] + self.densities[idx] * (x - b[idx])
        g = np.where(x <= b[0], 0.0, g)
        g = np.where(x >= b[-1], self.mass, g)
        return g if g.ndim else float(g)

    def quantile(self, zeta):
        """Cadlag pseudo-inverse Y(zeta) = inf{x : G(x) > zeta}, zeta in [0, m).

        Across zero-density gaps this returns the left edge of the next mass.
        """
        zeta = np.asarray(zeta, dtype=float)
        if np.any(zeta < 0) or np.any(zeta >= self.mass):
            raise ValueError("zeta must lie in [0, mass)")
        cum = self._cum_mass
        # first interval k with cum[k+1] > zeta; 'right' skips plateaus at zeta
        idx = np.searchsorted(cum[1:], zeta, side="right")
        dens = self.densities[idx]
        y = self.breakpoints[idx] + (zeta - cum[idx]) / dens
        return y if y.ndim else float(y)

    def com(self):
        """Center of mass (1/m) * integral of x * density, b_0 + (com - b_0)."""
        return float(self.breakpoints[0] + self._com_offset)

    def centred(self, x):
        """x - com as (x - b_0) - (com - b_0), which rounds with the width."""
        return (x - self.breakpoints[0]) - self._com_offset

    @classmethod
    def from_doc(cls, doc):
        """A profile from its ``{"breakpoints": [...], "densities": [...]}``."""
        return cls(doc["breakpoints"], doc["densities"])

    def to_doc(self):
        """The profile as the document ``from_doc`` reads."""
        return {"breakpoints": self.breakpoints.tolist(),
                "densities": self.densities.tolist()}

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_doc(json.load(fh))

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_doc(), fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass(frozen=True)
class MassQuadrature:
    """Nodes/weights discretizing the mass integral over (0, m)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        nodes = nodes.copy()
        weights = weights.copy()
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def total(self):
        return float(np.sum(self.weights))

    @classmethod
    def midpoint(cls, profile, num_nodes):
        """Default rule: midpoints zeta_j = (j - 1/2) m / M with equal weights."""
        m = profile.mass
        nodes = (np.arange(num_nodes) + 0.5) * (m / num_nodes)
        weights = np.full(num_nodes, m / num_nodes)
        return cls(nodes, weights)


# -- operations ----------------------------------------------------------


def wasserstein(a, b, p):
    """W_p between two same-grid states as the L^p norm of X_a - X_b.

    For p = inf this is the grid max, a lower bound of the true W_inf.
    """
    if a.n != b.n:
        raise ValueError(f"grid mismatch: {a.n} != {b.n}")
    if p < 1:
        raise ValueError("p must be >= 1")
    delta = np.abs(a.x_values - b.x_values)
    if np.isinf(p):
        return float(np.max(delta))
    return float((np.mean(delta**p)) ** (1.0 / p))


def moment(a, r):
    """Midpoint-rule r-th absolute moment, (1/n) sum |X(z_i)|^r."""
    if r <= 0:
        raise ValueError("r must be positive")
    return float(np.mean(np.abs(a.x_values) ** r))


# -- state constructors --------------------------------------------------


def sample_profile(profile, n):
    """Unit-mass state with the shape of the profile: X(z_i) = Y(m z_i)."""
    z = midpoint_grid(n)
    return InverseCDF(profile.quantile(z * profile.mass))


def uniform_state(a, b, n):
    """Uniform probability density on [a, b] sampled on the midpoint grid."""
    if not -np.inf < a < b < np.inf:
        raise ValueError(f"need finite a < b, got a={a}, b={b}")
    return InverseCDF(a + (b - a) * midpoint_grid(n))
