"""Energy, dissipation, the Fourier-side energy, and moment certificates.

Energy and dissipation take the datum exactly: the attraction term is the
mean of psi_a * omega over the state's nodes, and the drift is exact, unless
a caller passes a ``MassQuadrature``.  The repulsion term, and the datum
terms on a quadrature, are midpoint double sums in mass coordinates, taken
on the sorted state through the pair-sum helpers of ``kernels``.  The
Fourier form evaluates the same quadratic energy through characteristic
functions, and the moment certificates turn the a-priori bounds on energy
sublevels into checkable per-snapshot inequalities.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import rhs
from .kernels import AttractionPotential, _cross_sum, _exact_conv, _pair_sum, \
    _scratch_blocks
from .measures import MassQuadrature, moment

__all__ = [
    "EnergyReport",
    "XiGrid",
    "FourierEnergy",
    "CertificateResult",
    "energy",
    "dissipation",
    "energy_balance",
    "make_report",
    "reports_to_csv",
    "fourier_energy",
    "tilde_energy",
    "self_energy_constant",
    "dq_constant",
    "moment_certificate",
]

try:
    _trapezoid = np.trapezoid
except AttributeError:  # numpy < 2
    _trapezoid = np.trapz


@dataclass(frozen=True)
class EnergyReport:
    t: float
    E: float
    D: float
    E_hat: float | None
    moment_qa: float
    moment_r: float


@dataclass(frozen=True)
class XiGrid:
    """Symmetric log-spaced frequency grid (positive half stored)."""

    xi_min: float = 1e-4
    xi_max: float = 1e3
    nodes_per_side: int = 4000

    def positive_nodes(self):
        return np.logspace(
            np.log10(self.xi_min), np.log10(self.xi_max), self.nodes_per_side
        )


@dataclass(frozen=True)
class FourierEnergy:
    value: float
    error_bound: float


@dataclass(frozen=True)
class CertificateResult:
    passed: bool
    bound: float
    max_observed: float
    regime: str
    r: float


def _moment_order(q):
    """Order r = q/2 - 0.1 of the balanced-regime moment certificate."""
    return q / 2.0 - 0.1


def energy(X, profile, exps, quad=None):
    """Interaction energy; the datum term is exact unless ``quad`` is given."""
    x = X.x_values
    w_mu = np.full(X.n, 1.0 / X.n)
    if quad is None:
        attr = float(np.mean(_exact_conv(profile, exps.q_a, x)))
    else:
        y = profile.quantile(quad.nodes)
        attr = _cross_sum(x, w_mu, y, quad.weights, exps.q_a)
    return attr - 0.5 * _pair_sum(x, w_mu, exps.q_r)


def dissipation(X, profile, exps, quad=None):
    """D = (1/n) sum V_i^2 with V the evolution velocity.

    For q_r = 1 this evaluates the same formula through the rank substitution
    and is a formal extension of the q_r > 1 dissipation identity.  The drift
    is exact unless ``quad`` is given.
    """
    pot = AttractionPotential(profile, exps.q_a, quad)
    v = rhs(X, pot, exps)
    return float(np.mean(v * v))


def energy_balance(reports):
    """Defect |E(0) - E(T) - trapezoid(D, t)| of the energy-dissipation identity."""
    if len(reports) < 2:
        raise ValueError("need at least two snapshots")
    t = np.array([r.t for r in reports])
    e = np.array([r.E for r in reports])
    d = np.array([r.D for r in reports])
    return float(abs(e[0] - e[-1] - _trapezoid(d, t)))


def make_report(t, X, profile, exps, quad=None, with_fourier=False, xi_grid=None):
    e_hat = None
    if with_fourier:
        e_hat = fourier_energy(X, profile, exps.q_a, xi_grid, quad=quad).value
    return EnergyReport(
        t=float(t),
        E=energy(X, profile, exps, quad),
        D=dissipation(X, profile, exps, quad),
        E_hat=e_hat,
        moment_qa=moment(X, exps.q_a),
        moment_r=moment(X, _moment_order(exps.q_a)),
    )


def reports_to_csv(reports, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "E", "D", "E_hat", "moment_qa", "moment_r"])
        for r in reports:
            e_hat = "" if r.E_hat is None else f"{r.E_hat:.17g}"
            writer.writerow(
                [f"{r.t:.17g}", f"{r.E:.17g}", f"{r.D:.17g}", e_hat,
                 f"{r.moment_qa:.17g}", f"{r.moment_r:.17g}"]
            )


# -- Fourier representation ----------------------------------------------


def dq_constant(q, d=1):
    """Positive constant in the |xi|^{-d-q} representation of |x|^q."""
    return float(
        -((2.0 * math.pi) ** (-d / 2.0))
        * 2.0 ** (q + d / 2.0)
        * math.gamma((d + q) / 2.0)
        / (2.0 * math.gamma(-q / 2.0))
    )


def _char_fn(points, weights, xi):
    # weights.exp(-i xi x) = weights.cos(xi x) - i weights.sin(xi x), in
    # xi-row blocks under the kernel memory cap
    out = np.empty(xi.size, dtype=complex)
    for rows, phase, cos in _scratch_blocks(xi.size, points.size, temps=2):
        np.multiply(xi[rows, None], points, out=phase)
        np.cos(phase, out=cos)
        np.sin(phase, out=phase)
        out[rows] = cos @ weights - 1j * (phase @ weights)
    return out


def tilde_energy(X, profile, q, quad=None):
    """-1/2 double integral of |x-y|^q against (mu - omega) twice, by sums."""
    if quad is None:
        quad = MassQuadrature.midpoint(profile, X.n)
    x = X.x_values
    w_mu = np.full(X.n, 1.0 / X.n)
    y = profile.quantile(quad.nodes)
    w_om = quad.weights
    s_mm = _pair_sum(x, w_mu, q)
    s_mo = _cross_sum(x, w_mu, y, w_om, q)
    s_oo = _pair_sum(y, w_om, q)
    return -0.5 * (s_mm - 2.0 * s_mo + s_oo)


def fourier_energy(X, profile, q, xi_grid=None, quad=None):
    """D_q integral of |mu_hat - omega_hat|^2 |xi|^{-1-q} over the line.

    Valid in the balanced regime with unit-mass datum (the difference of the
    characteristic functions must vanish at xi = 0).  The analytically known
    first-moment head term below xi_min is included in the value; the tail
    beyond xi_max and the next head order go into the error bound.
    """
    if not 1.0 < q < 2.0:
        raise ValueError("fourier energy requires q in (1, 2)")
    if abs(profile.mass - 1.0) > 1e-12:
        raise ValueError("fourier energy requires a unit-mass datum")
    if xi_grid is None:
        xi_grid = XiGrid()
    if quad is None:
        quad = MassQuadrature.midpoint(profile, X.n)
    x = X.x_values
    w_mu = np.full(X.n, 1.0 / X.n)
    y = profile.quantile(quad.nodes)
    w_om = quad.weights

    xi = xi_grid.positive_nodes()
    diff = _char_fn(x, w_mu, xi) - _char_fn(y, w_om, xi)
    integrand = np.abs(diff) ** 2 * xi ** (-1.0 - q)
    body = 2.0 * _trapezoid(integrand, xi)

    # moment differences drive the small-xi asymptotics
    d1 = float(w_mu @ x - w_om @ y)
    d2 = float(w_mu @ x**2 - w_om @ y**2)
    d3 = float(w_mu @ x**3 - w_om @ y**3)
    head = 2.0 * d1 * d1 * xi_grid.xi_min ** (2.0 - q) / (2.0 - q)
    head_rem = (
        2.0 * (d2 * d2 / 4.0 + abs(d1 * d3) / 3.0)
        * xi_grid.xi_min ** (4.0 - q) / (4.0 - q)
    )
    tail = 2.0 * (4.0 / q) * xi_grid.xi_max ** (-q)

    dq = dq_constant(q)
    return FourierEnergy(dq * (body + head), dq * (head_rem + tail))


def self_energy_constant(profile, q, quad=None):
    """C = 1/2 double integral of |x-y|^q against the datum twice."""
    if quad is None:
        quad = MassQuadrature.midpoint(profile, 400)
    y = profile.quantile(quad.nodes)
    return 0.5 * _pair_sum(y, quad.weights, q)


# -- moment certificates -------------------------------------------------


def moment_certificate(reports, exps, profile, xi_grid=None, quad=None):
    """Check every snapshot's moment against the a-priori sublevel bound.

    Attraction-dominated: the q_a-th moment is bounded by
    4 (E(0) + int |x|^{q_a} d omega + 2 R^{q_r}) with R the crossover radius
    of the two power terms.  Balanced: the r-th moment (r < q/2) is bounded
    through the Fourier representation with explicit constants.
    """
    if not reports:
        raise ValueError("empty report stream")
    e0 = reports[0].E
    if exps.regime == "attraction_dominated":
        radius = 8.0 ** (1.0 / (exps.q_a - exps.q_r))
        bound = 4.0 * (
            e0 + profile.abs_moment(exps.q_a) + 2.0 * radius**exps.q_r
        )
        observed = max(r.moment_qa for r in reports)
        return CertificateResult(observed <= bound, bound, observed,
                                 "attraction_dominated", exps.q_a)

    q = exps.q_a
    r = _moment_order(q)
    if abs(profile.mass - 1.0) > 1e-12:
        raise ValueError("balanced certificate requires a unit-mass datum")
    if xi_grid is None:
        xi_grid = XiGrid()
    # energy sublevel in the completed-square form
    level = e0 - self_energy_constant(profile, q, quad)
    t_omega = _omega_vs_point_mass(profile, q, xi_grid, quad)
    m2 = 2.0 * (level / dq_constant(q) + t_omega)
    bound = 2.0 * dq_constant(r, d=1) * (
        math.sqrt(2.0 / (q - 2.0 * r)) * math.sqrt(max(m2, 0.0)) + 4.0 / r
    )
    observed = max(rep.moment_r for rep in reports)
    return CertificateResult(observed <= bound, bound, observed, "balanced", r)


def _omega_vs_point_mass(profile, q, xi_grid, quad=None):
    # integral of |1 - omega_hat|^2 |xi|^{-1-q}; upper estimates for the
    # truncated head/tail keep the certificate a valid bound
    if quad is None:
        quad = MassQuadrature.midpoint(profile, 400)
    y = profile.quantile(quad.nodes)
    w = quad.weights
    xi = xi_grid.positive_nodes()
    diff = 1.0 - _char_fn(y, w, xi)
    body = 2.0 * _trapezoid(np.abs(diff) ** 2 * xi ** (-1.0 - q), xi)
    m1 = float(w @ y)
    m2 = float(w @ y**2)
    head = 2.0 * (m1 * m1 + m2 * m2 / 4.0) * xi_grid.xi_min ** (2.0 - q) / (2.0 - q)
    tail = 2.0 * (4.0 / q) * xi_grid.xi_max ** (-q)
    return body + head + tail
