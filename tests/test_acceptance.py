"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single pass/fail line with the measured quantities before
asserting, so a full run yields a compact scoreboard.
"""

import numpy as np
import pytest

from arflow import (
    Exponents,
    InverseCDF,
    IntegratorConfig,
    MassQuadrature,
    ReferenceProfile,
    closed_form_q2,
    discrete_energy,
    energy,
    energy_balance,
    fourier_energy,
    moment_certificate,
    particle_rhs,
    rhs,
    simulate,
    steady_qr1,
    steady_residual,
    uniform_state,
    wasserstein,
)
from arflow.cli import ORACLE_PAIRS, fit_exponential_rate
from arflow.energetics import make_report, tilde_energy
from arflow.kernels import AttractionPotential
from arflow.measures import midpoint_grid
from arflow.steady import shifted_profile_mlt1


def report(num, passed, detail):
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} - {detail}")


def profile_m(m):
    return ReferenceProfile([0.0, 1.0], [m])


def run_with_reports(profile, exps, X0, cfg):
    traj = simulate(X0, profile, exps, cfg)
    reports = [make_report(s.t, s.X, profile, exps) for s in traj.states]
    return traj, reports


@pytest.fixture(scope="module")
def balance_runs():
    """Short fine-step runs for the energy balance (criteria 8, 12)."""
    out = {}
    for q_a, q_r in ((1.8, 1.4), (1.2, 1.2)):
        prof = profile_m(1.0)
        X0 = uniform_state(-0.5, 1.5, 300)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, record_every=10)
        out[(q_a, q_r)] = (prof,) + run_with_reports(
            prof, Exponents(q_a, q_r), X0, cfg)
    return out


@pytest.fixture(scope="module")
def equilibration_runs():
    """Long runs for the equilibration diagnostic (criteria 9, 12)."""
    out = {}
    for q_a, q_r in ((1.8, 1.4), (1.25, 1.25)):
        prof = profile_m(1.0)
        X0 = uniform_state(-0.5, 1.5, 200)
        cfg = IntegratorConfig(dt=0.05, t_end=100.0, record_every=20)
        out[(q_a, q_r)] = (prof,) + run_with_reports(
            prof, Exponents(q_a, q_r), X0, cfg)
    return out


def test_criterion_01_closed_form_oracle():
    worst = 0.0
    for m in (1.0, 2.0):
        prof = profile_m(m)
        X0 = uniform_state(2.0, 3.0, 500)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, record_every=1000)
        traj = simulate(X0, prof, Exponents(2.0, 2.0), cfg)
        exact = closed_form_q2(X0, prof, 1.0)
        worst = max(worst,
                    float(np.max(np.abs(traj.states[-1].X.x_values
                                        - exact.x_values))))
    passed = worst <= 1e-8
    report(1, passed, f"max abs error vs closed form {worst:.3e} (<= 1e-8)")
    assert passed


def test_criterion_02_com_rate():
    details = []
    passed = True
    for m in (0.5, 1.0, 2.0):
        prof = profile_m(m)
        X0 = uniform_state(2.0, 3.0, 200)
        cfg = IntegratorConfig(dt=1e-3, t_end=2.0, record_every=100)
        traj = simulate(X0, prof, Exponents(2.0, 2.0), cfg)
        com_err = np.array([abs(s.X.mean() - prof.com())
                            for s in traj.states])
        slope, _ = fit_exponential_rate(traj.times, com_err, 1.0, 2.0)
        rel = abs(slope + 2.0 * m) / (2.0 * m)
        passed = passed and rel <= 0.01
        details.append(f"m={m}: rate {slope:.4f} (rel err {rel:.1e})")
    report(2, passed, "; ".join(details))
    assert passed


def test_criterion_03_trichotomy():
    # m = 2: collapse to the center of mass at rate -2(m-1)
    prof2 = profile_m(2.0)
    X0 = uniform_state(2.0, 3.0, 200)
    cfg = IntegratorConfig(dt=1e-3, t_end=8.0, record_every=200)
    traj = simulate(X0, prof2, Exponents(2.0, 2.0), cfg)
    com = prof2.com()
    w2 = np.array([np.sqrt(np.mean((s.X.x_values - com) ** 2))
                   for s in traj.states])
    slope, _ = fit_exponential_rate(traj.times, w2, 4.0, 8.0)
    ok_collapse = abs(slope + 2.0) / 2.0 <= 0.02

    # m = 1: pure translation, shape exactly preserved
    prof1 = profile_m(1.0)
    cfg = IntegratorConfig(dt=1e-3, t_end=1.0, record_every=100)
    traj = simulate(X0, prof1, Exponents(2.0, 2.0), cfg)
    dev = max(float(np.ptp(s.X.x_values - X0.x_values))
              for s in traj.states)
    ok_shape = dev <= 1e-8

    # m = 1/2: outer nodes diverge with the predicted signs
    prof_h = profile_m(0.5)
    X0h = uniform_state(-1.0, 1.0, 200)
    cfg = IntegratorConfig(dt=1e-3, t_end=3.0, record_every=300)
    traj = simulate(X0h, prof_h, Exponents(2.0, 2.0), cfg)
    left = np.array([s.X.x_values[0] for s in traj.states])
    right = np.array([s.X.x_values[-1] for s in traj.states])
    ok_escape = (np.all(np.diff(left) < 0) and np.all(np.diff(right) > 0)
                 and left[-1] < left[0] - 5.0 and right[-1] > right[0] + 5.0)

    passed = ok_collapse and ok_shape and ok_escape
    report(3, passed,
           f"m=2 rate {slope:.4f}; m=1 shape dev {dev:.2e}; "
           f"m=1/2 outer nodes {left[-1]:.1f}/{right[-1]:.1f}")
    assert passed


def test_criterion_04_qr1_convergence():
    details = []
    passed = True
    for q_a, m in ((1.5, 1.0), (2.0, 1.0), (1.0, 2.0)):
        prof = profile_m(m)
        n = 400
        X0 = uniform_state(2.0, 3.0, n)
        cfg = IntegratorConfig(dt=0.05, t_end=50.0, record_every=25)
        traj = simulate(X0, prof, Exponents(q_a, 1.0), cfg)
        ss = steady_qr1(prof, q_a, n)
        w2 = np.array([wasserstein(s.X, ss.Xstar, 2.0) for s in traj.states])
        mono = bool(np.all(np.diff(w2) <= 1e-10))
        final = float(w2[-1])
        passed = passed and mono and final <= 1e-3
        details.append(f"(q_a={q_a}, m={m}): final W2 {final:.2e}, "
                       f"monotone {mono}")
    report(4, passed, "; ".join(details))
    assert passed


def test_criterion_05_steady_construction():
    details = []
    passed = True
    n = 400
    for prof, q_a in ((profile_m(1.0), 1.5), (profile_m(1.0), 2.0),
                      (profile_m(2.0), 1.5)):
        ss = steady_qr1(prof, q_a, n)
        pot = AttractionPotential(prof, q_a)
        lev = max(abs(pot(ss.x_lo) + 1.0), abs(pot(ss.x_zero)),
                  abs(pot(ss.x_hi) - 1.0))
        x = ss.Xstar.x_values
        dx = np.diff(x)
        dens = (1.0 / n) / dx
        half_slope = 0.5 * np.diff(pot(x)) / dx
        rel = float(np.max(np.abs(dens - half_slope)[5:-5]
                           / half_slope[5:-5]))
        res = steady_residual(ss.Xstar, prof, Exponents(q_a, 1.0))
        ok = lev <= 1e-10 and rel <= 5e-2 and res <= 5.0 / n
        passed = passed and ok
        details.append(f"q_a={q_a}, m={prof.mass:g}: levels {lev:.1e}, "
                       f"density {rel:.1e}, residual {res:.1e}")
    report(5, passed, "; ".join(details))
    assert passed


def test_criterion_06_frozen_left_edge():
    # q_a = q_r = 1, m = 1, support strictly left of the datum (G = 0): the
    # quantile equation reads dX/dt = 2z, so the edge X(0) is frozen while
    # every midpoint node moves at its own rate 2 z_i.  The grid has no node
    # at z = 0; the edge is read by linear extrapolation of the first two
    # nodes, which is exact for any X0 because both move linearly in t.
    n = 800
    prof = profile_m(1.0)
    X0 = uniform_state(-3.0, -2.0, n)
    cfg = IntegratorConfig(dt=0.01, t_end=20.0, record_every=50)
    traj = simulate(X0, prof, Exponents(1.0, 1.0), cfg)
    z1 = midpoint_grid(n)[0]

    def edge(x):
        return 1.5 * x[0] - 0.5 * x[1]

    edge0 = edge(X0.x_values)
    edge_drift = max(abs(edge(s.X.x_values) - edge0) for s in traj.states)
    node_law = max(abs(s.X.x_values[0] - X0.x_values[0] - 2.0 * z1 * s.t)
                   for s in traj.states)
    passed = edge_drift <= 1e-6 and node_law <= 1e-6
    report(6, passed, f"left-edge drift at z = 0: {edge_drift:.3e} (<= 1e-6); "
                      f"first node vs x_0(0) + 2 z_1 t: {node_law:.3e} "
                      f"(<= 1e-6)")
    assert passed


def test_criterion_07_escaping_mass():
    m = 0.5
    prof = profile_m(m)
    n = 200
    X0 = uniform_state(-0.5, 1.5, n)
    cfg = IntegratorConfig(dt=0.01, t_end=25.0, record_every=100)
    traj = simulate(X0, prof, Exponents(1.0, 1.0), cfg)
    z = midpoint_grid(n)
    sp = shifted_profile_mlt1(prof, n)

    # escaped nodes: measured drift vs 2z - 1 + m once below the support
    s_prev, s_last = traj.states[-2], traj.states[-1]
    inf_supp = prof.support[0]
    escaped = (sp.escape == -1) & (s_prev.X.x_values < inf_supp - 0.1)
    rate = ((s_last.X.x_values[escaped] - s_prev.X.x_values[escaped])
            / (s_last.t - s_prev.t))
    drift_err = float(np.max(np.abs(rate - (2.0 * z[escaped] - 1.0 + m))))

    # interior window: monotone nodewise convergence to the shifted profile
    inside = sp.escape == 0
    errs = np.array([np.abs(s.X.x_values[inside] - sp.values[inside])
                     for s in traj.states])
    mono = bool(np.all(np.diff(errs, axis=0) <= 1e-10))
    final = float(np.max(errs[-1]))

    passed = drift_err <= 1e-6 and mono and final <= 1e-3
    report(7, passed, f"escape drift err {drift_err:.2e}; interior final "
                      f"err {final:.2e}, monotone {mono}")
    assert passed


def test_criterion_08_energy_balance(balance_runs):
    details = []
    passed = True
    for (q_a, q_r), (prof, traj, reports) in balance_runs.items():
        defect = energy_balance(reports)
        drop = abs(reports[0].E - reports[-1].E)
        ok = defect <= 1e-3 * drop
        passed = passed and ok
        details.append(f"({q_a}, {q_r}): defect {defect:.2e} vs "
                       f"1e-3*|dE| {1e-3 * drop:.2e}")
    report(8, passed, "; ".join(details))
    assert passed


def test_criterion_09_equilibration(equilibration_runs):
    details = []
    passed = True
    for (q_a, q_r), (prof, traj, reports) in equilibration_runs.items():
        min_d = min(r.D for r in reports)
        e = np.array([r.E for r in reports])
        mono = bool(np.all(np.diff(e) <= 1e-10))
        ok = min_d <= 1e-4 and mono
        passed = passed and ok
        details.append(f"({q_a}, {q_r}): min D {min_d:.2e}, "
                       f"E monotone {mono}")
    report(9, passed, "; ".join(details))
    assert passed


def test_criterion_10_fourier_identity():
    prof = profile_m(1.0)
    n = 200
    quad = MassQuadrature.midpoint(prof, n)
    z = midpoint_grid(n)
    pairs = [
        uniform_state(0.5, 1.5, n),
        uniform_state(-1.0, 1.0, n),
        InverseCDF(z**2),
    ]
    worst = 0.0
    for q in (1.2, 1.5, 1.8):
        for X in pairs:
            e_hat = fourier_energy(X, prof, q, quad=quad).value
            e_tilde = tilde_energy(X, prof, q, quad)
            worst = max(worst, abs(e_hat - e_tilde) / abs(e_tilde))
    passed = worst <= 1e-3
    report(10, passed, f"max relative Fourier defect {worst:.2e} (<= 1e-3)")
    assert passed


def test_criterion_11_oracle_equivalence():
    prof = profile_m(1.0)
    n = 200
    quad = MassQuadrature.midpoint(prof, n)
    rng = np.random.default_rng(0)
    worst_rhs = 0.0
    worst_e = 0.0
    for q_a, q_r in ORACLE_PAIRS:
        exps = Exponents(q_a, q_r)
        pot = AttractionPotential(prof, q_a, quad)
        for _ in range(10):
            x = np.sort(rng.uniform(-2.0, 3.0, n))
            X = InverseCDF(x)
            sys_ = InverseCDF(x)
            worst_rhs = max(worst_rhs, float(np.max(np.abs(
                rhs(X, pot, exps) - particle_rhs(sys_, prof, exps, quad)))))
            worst_e = max(worst_e, abs(
                energy(X, prof, exps, quad)
                - discrete_energy(sys_, prof, exps, quad)))
    passed = worst_rhs <= 1e-12 and worst_e <= 1e-12
    report(11, passed, f"max rhs diff {worst_rhs:.2e}, "
                       f"max energy diff {worst_e:.2e} (<= 1e-12)")
    assert passed


def test_criterion_12_moment_certificates(balance_runs, equilibration_runs):
    details = []
    passed = True
    for runs in (balance_runs, equilibration_runs):
        for (q_a, q_r), (prof, traj, reports) in runs.items():
            cert = moment_certificate(reports, Exponents(q_a, q_r), prof)
            passed = passed and cert.passed
            details.append(f"({q_a}, {q_r}) {cert.regime}: "
                           f"{cert.max_observed:.3f} <= {cert.bound:.3f}")
    report(12, passed, "; ".join(details))
    assert passed
