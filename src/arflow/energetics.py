"""Energy, dissipation, the Fourier-side energy, and moment certificates.

Every datum term is exact for the piecewise-constant datum unless a caller
passes a ``MassQuadrature``, which only the benchmark's Fourier job does
(through ``make_report``, ``tilde_energy``, ``fourier_energy`` and
``moment_certificate``; ``dissipation`` takes none), and reads the datum in
the one form of ``kernels._pieces``.  The attraction term is the mean of
psi_a * omega over the state's nodes and the datum's self term its integral
against the datum, both from the datum sums of ``kernels``.  The pair term
comes from ``dynamics.repulsion_term`` by Euler's identity, so a state's
energy and velocity take one repulsion sum.  The Fourier form
evaluates the same quadratic energy through characteristic functions.  On
that side every measure is a set of pieces in that same form: the datum's
own pieces, uniform on their widths, or point masses (width None), which
are the state's nodes or a quadrature's nodes.  One sum over the pieces
gives each transform, one formula (``kernels._moments``) their moments, and
one helper integrates the difference of two transforms over xi, on
Gauss-Legendre panels uniform in ln xi, with an error bound that holds the
truncated head and tail and the rule's own error.  The moment certificates
turn the a-priori bounds on energy sublevels into checkable per-snapshot
inequalities; they take their Fourier-side term exactly, in real space.

``energy`` takes the repulsion alone, with no drift, and shares the energy's
one formula with ``energy_and_velocity``; ``dissipation`` takes the velocity
of ``energy_and_velocity``.  No other module calls them.  Both names stay:
``bench/spans.py`` wraps each of them in the traced benchmark pass, which
would fail without them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .kernels import AttractionPotential, Exponents, _centres, \
    _datum_conv, _datum_sum, _moments, _pieces, _scratch_blocks
from .measures import moment

__all__ = [
    "EnergyReport",
    "XiGrid",
    "FourierEnergy",
    "CertificateResult",
    "energy",
    "energy_and_velocity",
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

    xi_min = 1e-4
    xi_max = 1e3
    # xi nodes per side at which the character sums run, check rule's too
    nodes_per_side = _XI_PANELS * (_XI_ORDER + _XI_CHECK_ORDER)


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


def _energy_from(X, profile, exps, rep, quad):
    """E at X from the repulsion rep that the state's nodes feel.

    The pair sum R = sum_{i<j} |x_j - x_i|^{q_r} is translation invariant
    and homogeneous of degree q_r, with gradient n rep, so for any pivot c
    Euler's identity sum_i (x_i - c) d_i R = q_r R gives
    E = mean(psi_a * omega)(x) - (x - c) . rep / (n q_r).  Far from the
    origin every x_i lies within a factor of 2 of c = x[n // 2], so x - c is
    exact and the term rounds with the state's spread, not with |x|.
    """
    x = X.x_values
    attr = float(np.mean(_datum_conv(profile, exps.q_a, x, quad)))
    pairs = float((x - x[x.size // 2]) @ rep) / (X.n * exps.q_r)
    return attr - pairs


def energy_and_velocity(X, profile, exps, quad=None):
    """Energy E and velocity V = rep - U(x) at X, from one repulsion sum.

    rep and V are ``dynamics._velocity``'s, and E is ``_energy_from`` rep.
    Exact datum terms unless ``quad``.
    """
    pot = AttractionPotential(profile, exps.q_a, quad)
    rep, v = dynamics._velocity(X.x_values, X.z_grid, pot, exps.q_r)
    return _energy_from(X, profile, exps, rep, quad), v


def energy(X, profile, exps, quad=None):
    """Interaction energy, bit for bit ``energy_and_velocity``'s, without U.

    The datum term is exact unless ``quad`` is given.
    """
    rep = dynamics.repulsion_term(X.x_values, X.z_grid, exps.q_r)
    return _energy_from(X, profile, exps, rep, quad)


def dissipation(X, profile, exps):
    """D = (1/n) sum V_i^2 with V the velocity of ``energy_and_velocity``.

    At q_r = 1 the rank substitution makes this a formal extension of the
    q_r > 1 dissipation identity.  The datum terms are exact.
    """
    v = energy_and_velocity(X, profile, exps)[1]
    return float(np.mean(v * v))


def energy_balance(reports):
    """Defect |E(0) - E(T) - trapezoid(D, t)| of the energy-dissipation identity.

    The trapezoid sum is written as ``np.trapezoid`` forms it, bit for bit.
    """
    if len(reports) < 2:
        raise ValueError("need at least two snapshots")
    t = np.array([r.t for r in reports])
    e = np.array([r.E for r in reports])
    d = np.array([r.D for r in reports])
    dissipated = np.add.reduce(np.diff(t) * (d[1:] + d[:-1]) / 2.0)
    return float(abs(e[0] - e[-1] - dissipated))


def make_report(t, X, profile, exps, quad=None):
    E, v = energy_and_velocity(X, profile, exps, quad)
    return EnergyReport(
        t=float(t),
        E=E,
        D=float(np.mean(v * v)),
        moment_qa=moment(X, exps.q_a),
        moment_r=moment(X, _moment_order(exps.q_a)),
    )


def reports_to_csv(reports, path):
    # csv.writer's rendering, as no %.17g field needs quoting
    with open(path, "w", newline="") as fh:
        fh.write("t,E,D,moment_qa,moment_r\n")
        fh.writelines("%.17g,%.17g,%.17g,%.17g,%.17g\n"
                      % (r.t, r.E, r.D, r.moment_qa, r.moment_r)
                      for r in reports)


# -- Fourier representation ----------------------------------------------


def dq_constant(q):
    """Positive constant in the |xi|^{-1-q} representation of |x|^q in 1D."""
    if not 0.0 < q < 2.0:
        raise ValueError(f"dq_constant requires q in (0, 2), got {q}")
    return float(-((2.0 * math.pi) ** -0.5) * 2.0 ** (q + 0.5)
                 * math.gamma((1.0 + q) / 2.0) / (2.0 * math.gamma(-q / 2.0)))


def _char_fn(pieces, xi):
    """sum_j m_j e^{-i xi c_j} sinc(xi w_j / 2) at each xi.

    The pieces are in ``kernels._pieces``' form, with centres c_j and
    masses m_j from ``_centres``.  Uniform pieces do not cancel at small xi
    as the datum's breakpoint (jump) form does.  Without widths no sinc is
    taken, so a point sum costs cos and sin only.  Runs in xi-row blocks
    under the kernel memory cap.
    """
    centre, mass, width = _centres(pieces)
    out = np.empty(xi.size, dtype=complex)
    temps = 2 if width is None else 3
    for rows, *amp, phase, trig in _scratch_blocks(xi.size, centre.size,
                                                   temps=temps):
        if amp:
            # np.sinc(t) = sin(pi t) / (pi t)
            np.multiply(xi[rows, None], width / (2.0 * np.pi), out=amp[0])
            amp[0][...] = np.sinc(amp[0])
        np.multiply(xi[rows, None], centre, out=phase)
        for part, trig_fn in ((out.real, np.cos), (out.imag, np.sin)):
            trig_fn(phase, out=trig)
            if amp:
                np.multiply(trig, amp[0], out=trig)
            part[rows] = trig @ mass
    np.negative(out.imag, out=out.imag)  # e^{-it} = cos t - i sin t
    return out


def _xi_rule():
    """xi nodes of the rule, then its check rule's, and each rule's weights.

    Both rules are Gauss-Legendre on the same panels, uniform in
    s = ln xi, with dxi = xi ds in the weights, which have the shape
    (panels, order).
    """
    edges = np.linspace(math.log(XiGrid.xi_min), math.log(XiGrid.xi_max),
                        _XI_PANELS + 1)
    half = 0.5 * (edges[1] - edges[0])
    nodes, weights = [], []
    for order in (_XI_ORDER, _XI_CHECK_ORDER):
        t, w = np.polynomial.legendre.leggauss(order)
        xi = np.exp(edges[:-1, None] + half * (1.0 + t))
        nodes.append(xi.ravel())
        weights.append(half * w * xi)
    return (np.concatenate(nodes), *weights)


def _xi_integral(mu, nu, q):
    """2 int_0^inf |mu_hat - nu_hat|^2 xi^{-1-q} dxi, and an error bound.

    ``mu`` and ``nu`` are pieces of equal mass, so their difference has
    moments (d1, d2, d3) and at small xi
    |mu_hat - nu_hat|^2 = d1^2 xi^2 + (d2^2/4 - d1 d3/3) xi^4 + ....  The
    value is the panel rule on [xi_min, xi_max] plus the first head order
    below xi_min.  The bound holds the next head order, the tail beyond
    xi_max (where |mu_hat - nu_hat| <= 2), and, panel by panel, the
    difference between the rule and the lower-order check rule.
    """
    xi, w_hi, w_lo = _xi_rule()
    diff = _char_fn(mu, xi) - _char_fn(nu, xi)
    f = (diff.real**2 + diff.imag**2) * xi ** (-1.0 - q)
    panel_hi = np.sum(w_hi * f[:w_hi.size].reshape(w_hi.shape), axis=1)
    panel_lo = np.sum(w_lo * f[w_hi.size:].reshape(w_lo.shape), axis=1)
    rule_err = float(np.sum(np.abs(panel_hi - panel_lo)))

    d1, d2, d3 = (a - b for a, b in zip(_moments(mu), _moments(nu)))
    head = d1 * d1 * XiGrid.xi_min ** (2.0 - q) / (2.0 - q)
    head_rem = ((d2 * d2 / 4.0 + abs(d1 * d3) / 3.0)
                * XiGrid.xi_min ** (4.0 - q) / (4.0 - q))
    tail = (4.0 / q) * XiGrid.xi_max ** (-q)
    body = float(np.sum(panel_hi))
    return 2.0 * (body + head), 2.0 * (head_rem + tail + rule_err)


def tilde_energy(X, profile, q, quad=None):
    """-1/2 double integral of |x-y|^q against (mu - omega) twice.

    That is the energy at q_a = q_r = q less the datum's self energy.  The
    datum terms are exact unless ``quad`` is given.
    """
    return (energy(X, profile, Exponents(q, q), quad)
            - self_energy_constant(profile, q, quad))


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
    a, w, rho = _pieces(profile, quad)
    mu = (X.x_values - shift, None, np.full(X.n, 1.0 / X.n))
    value, bound = _xi_integral(mu, (a - shift, w, rho), q)
    dq = dq_constant(q)
    return FourierEnergy(dq * value, dq * bound)


def self_energy_constant(profile, q, quad=None):
    """C = 1/2 double integral of |x-y|^q against the datum twice.

    That is half the integral of psi_q * omega, level 0 of the datum sum,
    against omega.  A point mass rho_j at a_j adds rho_j times level 0 at
    a_j.  Level 1 is a primitive of level 0 in x, so a piece of density
    rho_j on [a_j, a_j + w_j] adds rho_j times the difference of level 1
    between its two ends.  Exact unless ``quad`` is given.
    """
    a, w, rho = pieces = _pieces(profile, quad)
    if w is None:
        return 0.5 * float(rho @ _datum_sum(a, q, pieces, 0))
    right, left = _datum_sum(np.stack([a + w, a]), q, pieces, 1)
    return 0.5 * float(rho @ (right - left))


# -- moment certificates -------------------------------------------------


def moment_certificate(reports, exps, profile, quad=None):
    """Check every snapshot's moment against the a-priori sublevel bound.

    Attraction-dominated: the q_a-th moment is bounded by
    4 (E(0) + int |y|^{q_a} d omega + 2 R^{q_r}) with R the crossover radius
    of the two power terms.  Balanced, for q_a < 2 only: the r-th moment
    (r < q/2) is bounded through the Fourier representation.  Its term
    D_q int |1 - omega_hat|^2 |xi|^{-1-q} is the tilde energy of delta_0,
    int |y|^q d omega - C, which the datum sums give exactly: the identity
    that criterion 10 checks, with no xi quadrature and no error bar.  In
    both regimes int |y|^{q_a} d omega is the datum sum at 0, exact unless
    ``quad`` is given.
    """
    if not reports:
        raise ValueError("empty report stream")
    e0 = reports[0].E
    datum = float(_datum_conv(profile, exps.q_a, np.zeros(1), quad)[0])
    if exps.regime == "attraction_dominated":
        try:  # R^{q_r} overflows at close exponents: the bound is inf
            radius = 8.0 ** (1.0 / (exps.q_a - exps.q_r))
            tail = 2.0 * radius**exps.q_r
        except OverflowError:
            tail = math.inf
        bound = 4.0 * (e0 + datum + tail)
        observed = max(r.moment_qa for r in reports)
        return CertificateResult(observed <= bound, bound, observed,
                                 "attraction_dominated", exps.q_a)

    q = exps.q_a
    r = _moment_order(q)
    if abs(profile.mass - 1.0) > 1e-12:
        raise ValueError("balanced certificate requires a unit-mass datum")
    c = self_energy_constant(profile, q, quad)
    # the energy sublevel in the completed-square form, plus the tilde
    # energy of delta_0
    m2 = 2.0 * (e0 - c + (datum - c)) / dq_constant(q)
    bound = 2.0 * dq_constant(r) * (
        math.sqrt(2.0 / (q - 2.0 * r)) * math.sqrt(max(m2, 0.0)) + 4.0 / r
    )
    observed = max(rep.moment_r for rep in reports)
    return CertificateResult(observed <= bound, bound, observed, "balanced", r)
