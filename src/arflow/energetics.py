"""Energy, dissipation, the Fourier-side energy, and moment certificates.

Every datum term is exact for the piecewise-constant datum unless a caller
passes a ``MassQuadrature``.  The attraction term is the mean of
psi_a * omega over the state's nodes and the datum's self term a double sum
over its signed atoms, both from the datum sums of ``kernels``; its
transform omega_hat is a sum over its pieces.  The repulsion term is a
midpoint double sum in mass coordinates, taken on the sorted state through
the pair-sum helpers of ``kernels``.  The Fourier form evaluates the same
quadratic energy through characteristic functions, on Gauss-Legendre
panels uniform in ln xi, with an error bound that holds the truncated head
and tail and the rule's own error.  The moment certificates turn the a-priori bounds on energy
sublevels into checkable per-snapshot inequalities.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import rhs
from .kernels import AttractionPotential, _datum_atoms, _datum_conv, \
    _level_factor, _pair_sum, _scratch_blocks
from .measures import moment

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
    moment_qa: float
    moment_r: float


# panels of the xi rule, its Gauss-Legendre nodes per panel, and those of the
# lower-order rule on the same panels whose difference from it estimates its
# error
_XI_PANELS = 12
_XI_ORDER = 16
_XI_CHECK_ORDER = 8


@dataclass(frozen=True)
class XiGrid:
    """Frequency panels on [xi_min, xi_max], uniform in ln xi (positive half)."""

    xi_min: float = 1e-4
    xi_max: float = 1e3

    @property
    def nodes_per_side(self):
        """xi nodes per side at which the character sums run, check rule's too."""
        return _XI_PANELS * (_XI_ORDER + _XI_CHECK_ORDER)


_XI_GRID = XiGrid()


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
    attr = float(np.mean(_datum_conv(profile, exps.q_a, x, quad)))
    return attr - 0.5 * _pair_sum(x, np.full(X.n, 1.0 / X.n), exps.q_r)


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


def make_report(t, X, profile, exps, quad=None):
    return EnergyReport(
        t=float(t),
        E=energy(X, profile, exps, quad),
        D=dissipation(X, profile, exps, quad),
        moment_qa=moment(X, exps.q_a),
        moment_r=moment(X, _moment_order(exps.q_a)),
    )


def reports_to_csv(reports, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "E", "D", "moment_qa", "moment_r"])
        for r in reports:
            writer.writerow(
                [f"{r.t:.17g}", f"{r.E:.17g}", f"{r.D:.17g}",
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


def _datum_transform(profile, quad=None, shift=0.0):
    """omega_hat and the moments m_1..m_3 of the datum translated by -shift.

    Exact by pieces unless ``quad`` is given.  A piece of density rho, width
    w and midpoint c adds rho w e^{-i xi c} sinc(xi w / 2), which does not
    cancel at small xi as the breakpoint (jump) form does.
    """
    if quad is not None:
        y, w, _ = _datum_atoms(profile, quad)
        y = y - shift
        return ((lambda xi: _char_fn(y, w, xi)),
                tuple(float(w @ y**k) for k in (1, 2, 3)))
    b = profile.breakpoints
    width = np.diff(b)
    centre = b[:-1] + 0.5 * width - shift
    mass = profile.densities * width
    moments = (float(mass @ centre),
               float(mass @ (centre**2 + width**2 / 12.0)),
               float(mass @ (centre**3 + centre * width**2 / 4.0)))

    def transform(xi):
        out = np.empty(xi.size, dtype=complex)
        for rows, amp, phase, trig in _scratch_blocks(xi.size, width.size,
                                                      temps=3):
            # np.sinc(t) = sin(pi t) / (pi t)
            np.multiply(xi[rows, None], width / (2.0 * np.pi), out=amp)
            amp[...] = np.sinc(amp)
            np.multiply(xi[rows, None], centre, out=phase)
            np.multiply(np.cos(phase, out=trig), amp, out=trig)
            out[rows].real = trig @ mass
            np.multiply(np.sin(phase, out=trig), amp, out=trig)
            out[rows].imag = -(trig @ mass)
        return out

    return transform, moments


def _omega_pair_sum(profile, q, quad=None):
    """Double integral of |x - y|^q against the datum twice.

    Over the datum's atoms (y, c, k) it is (-1)^k sum_ij c_i c_j G(y_i - y_j),
    with G the 2k-th primitive of |u|^q: integration by parts in both
    variables.  Exact unless ``quad`` is given.
    """
    y, c, k = _datum_atoms(profile, quad)
    return (-1) ** k * _level_factor(q, 2 * k) * _pair_sum(y, c, q + 2 * k)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order):
    """Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(order)


def _panel_rule(order):
    """Nodes and weights, (panels, order), of Gauss-Legendre on each panel.

    The panels are uniform in s = ln xi, and dxi = xi ds goes into the
    weights.
    """
    t, w = _gauss_legendre(order)
    edges = np.linspace(math.log(_XI_GRID.xi_min), math.log(_XI_GRID.xi_max),
                        _XI_PANELS + 1)
    half = 0.5 * (edges[1] - edges[0])
    xi = np.exp(edges[:-1, None] + half * (1.0 + t))
    return xi, half * w * xi


def _xi_integral(char_diff, moments, q):
    """2 int_0^inf |char_diff(xi)|^2 xi^{-1-q} dxi, and an error bound.

    ``char_diff`` is the transform of a zero-mass signed measure whose first
    three moments are ``moments`` = (d1, d2, d3), so at small xi
    |char_diff|^2 = d1^2 xi^2 + (d2^2/4 - d1 d3/3) xi^4 + ....  The value
    is the panel rule on [xi_min, xi_max] plus the first head order below
    xi_min.  The bound holds the next head order, the
    tail beyond xi_max (where |char_diff| <= 2), and, panel by panel, the
    difference between the rule and the lower-order check rule.
    """
    xi_hi, w_hi = _panel_rule(_XI_ORDER)
    xi_lo, w_lo = _panel_rule(_XI_CHECK_ORDER)
    xi = np.concatenate([xi_hi.ravel(), xi_lo.ravel()])
    diff = char_diff(xi)
    f = (diff.real**2 + diff.imag**2) * xi ** (-1.0 - q)
    panel_hi = np.sum(w_hi * f[:xi_hi.size].reshape(w_hi.shape), axis=1)
    panel_lo = np.sum(w_lo * f[xi_hi.size:].reshape(w_lo.shape), axis=1)
    rule_err = float(np.sum(np.abs(panel_hi - panel_lo)))

    d1, d2, d3 = moments
    head = d1 * d1 * _XI_GRID.xi_min ** (2.0 - q) / (2.0 - q)
    head_rem = ((d2 * d2 / 4.0 + abs(d1 * d3) / 3.0)
                * _XI_GRID.xi_min ** (4.0 - q) / (4.0 - q))
    tail = (4.0 / q) * _XI_GRID.xi_max ** (-q)
    body = float(np.sum(panel_hi))
    return 2.0 * (body + head), 2.0 * (head_rem + tail + rule_err)


def tilde_energy(X, profile, q, quad=None):
    """-1/2 double integral of |x-y|^q against (mu - omega) twice, by sums.

    The datum terms are exact unless ``quad`` is given.
    """
    x = X.x_values
    s_mm = _pair_sum(x, np.full(X.n, 1.0 / X.n), q)
    s_mo = float(np.mean(_datum_conv(profile, q, x, quad)))
    s_oo = _omega_pair_sum(profile, q, quad)
    return -0.5 * (s_mm - 2.0 * s_mo + s_oo)


def fourier_energy(X, profile, q, quad=None):
    """D_q integral of |mu_hat - omega_hat|^2 |xi|^{-1-q} over the line.

    Valid in the balanced regime with unit-mass datum (the difference of the
    characteristic functions must vanish at xi = 0).  The datum's transform
    is exact unless ``quad`` is given.  Both measures are centred on the
    datum's mean, which leaves |mu_hat - omega_hat| unchanged.  The error
    bound is that of ``_xi_integral``.
    """
    if not 1.0 < q < 2.0:
        raise ValueError("fourier energy requires q in (1, 2)")
    if abs(profile.mass - 1.0) > 1e-12:
        raise ValueError("fourier energy requires a unit-mass datum")
    shift = profile.com()
    x = X.x_values - shift
    w_mu = np.full(X.n, 1.0 / X.n)
    omega_hat, m_omega = _datum_transform(profile, quad, shift)
    moments = [float(np.mean(x**k)) - m for k, m in zip((1, 2, 3), m_omega)]
    value, bound = _xi_integral(
        lambda xi: _char_fn(x, w_mu, xi) - omega_hat(xi), moments, q)
    dq = dq_constant(q)
    return FourierEnergy(dq * value, dq * bound)


def self_energy_constant(profile, q, quad=None):
    """C = 1/2 double integral of |x-y|^q against the datum twice.

    Exact unless ``quad`` is given.
    """
    return 0.5 * _omega_pair_sum(profile, q, quad)


# -- moment certificates -------------------------------------------------


def moment_certificate(reports, exps, profile, quad=None):
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
    # energy sublevel in the completed-square form
    level = e0 - self_energy_constant(profile, q, quad)
    t_omega = _omega_vs_point_mass(profile, q, quad)
    m2 = 2.0 * (level / dq_constant(q) + t_omega)
    bound = 2.0 * dq_constant(r, d=1) * (
        math.sqrt(2.0 / (q - 2.0 * r)) * math.sqrt(max(m2, 0.0)) + 4.0 / r
    )
    observed = max(rep.moment_r for rep in reports)
    return CertificateResult(observed <= bound, bound, observed, "balanced", r)


def _omega_vs_point_mass(profile, q, quad=None):
    # integral of |1 - omega_hat|^2 |xi|^{-1-q} plus its error bound, an upper
    # estimate that keeps the certificate a valid bound
    omega_hat, moments = _datum_transform(profile, quad)
    value, bound = _xi_integral(lambda xi: 1.0 - omega_hat(xi),
                                [-m for m in moments], q)
    return value + bound
