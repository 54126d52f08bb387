import csv
import decimal
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from arflow import (
    Exponents,
    InverseCDF,
    IntegratorConfig,
    MassQuadrature,
    ReferenceProfile,
    dissipation,
    energy,
    energy_and_velocity,
    energy_balance,
    fourier_energy,
    moment_certificate,
    sample_profile,
    simulate,
    uniform_state,
)
from arflow.dynamics import rhs
from arflow.energetics import (
    EnergyReport,
    XiGrid,
    _char_fn,
    _moments,
    _xi_integral,
    dq_constant,
    make_report,
    reports_to_csv,
    self_energy_constant,
    tilde_energy,
)
from arflow.kernels import AttractionPotential, _datum_conv, _pieces
from arflow.measures import midpoint_grid
from arflow.steady import steady_qr1
from conftest import NARROW_DATUMS, psi, psi_prime


class TestEnergy:
    def test_self_interaction_balance(self, uniform_profile):
        # mu sampled = omega sampled, q_a = q_r: E reduces to the self energy
        n = 150
        X = sample_profile(uniform_profile, n)
        quad = MassQuadrature.midpoint(uniform_profile, n)
        for q in (1.0, 1.5, 2.0):
            e = energy(X, uniform_profile, Exponents(q, q), quad)
            c = self_energy_constant(uniform_profile, q, quad)
            assert abs(e - c) <= 1e-12

    def test_coincident_particles_no_repulsion(self, uniform_profile):
        n = 32
        X = InverseCDF(np.full(n, 2.0))
        exps = Exponents(2.0, 2.0)
        quad = MassQuadrature.midpoint(uniform_profile, n)
        e = energy(X, uniform_profile, exps, quad)
        y = uniform_profile.quantile(quad.nodes)
        attr = float(np.sum(quad.weights * psi(2.0, 2.0 - y)))
        assert e == pytest.approx(attr, abs=1e-12)

    def test_coincident_particles_exact_attraction(self, uniform_profile):
        # the exact datum term: integral of (2 - y)^2 over [0, 1] is 7/3
        X = InverseCDF(np.full(32, 2.0))
        e = energy(X, uniform_profile, Exponents(2.0, 2.0))
        assert e == pytest.approx(7.0 / 3.0, abs=1e-12)

    def test_translation_invariance(self):
        n = 64
        c = 1.75
        prof = ReferenceProfile([0.0, 1.0], [1.0])
        prof_c = ReferenceProfile([c, 1.0 + c], [1.0])
        X = uniform_state(-1.0, 0.5, n)
        X_c = InverseCDF(X.x_values + c)
        for exps in (Exponents(1.5, 1.5), Exponents(2.0, 1.2)):
            assert energy(X, prof, exps) == pytest.approx(
                energy(X_c, prof_c, exps), abs=1e-12
            )


class TestDissipation:
    def test_steady_state_small(self, uniform_profile):
        n = 200
        ss = steady_qr1(uniform_profile, 2.0, n)
        d = dissipation(ss.Xstar, uniform_profile, Exponents(2.0, 1.0))
        assert d <= 1e-10

    def test_q2_unit_mass_formula(self, uniform_profile):
        # V is constant in i, so D = 4 (com mu - com omega)^2
        X = uniform_state(2.0, 3.0, 64)
        d = dissipation(X, uniform_profile, Exponents(2.0, 2.0))
        expected = 4.0 * (X.mean() - uniform_profile.com()) ** 2
        assert d == pytest.approx(expected, abs=1e-12)

    def test_nonnegative(self, gap_profile, rng):
        X = InverseCDF(np.sort(rng.uniform(-2.0, 4.0, 50)))
        for exps in (Exponents(1.3, 1.3), Exponents(2.0, 1.0)):
            assert dissipation(X, gap_profile, exps) >= 0.0

    def test_triple_sum_expansion(self, uniform_profile, rng):
        # expand the square of the velocity into repulsion/cross/drift
        # triple sums and compare with the direct definition
        n = 50
        x = np.sort(rng.uniform(-1.0, 2.0, n))
        X = InverseCDF(x)
        exps = Exponents(1.8, 1.4)
        rep = psi_prime(exps.q_r, x[:, None] - x[None, :])
        # the exact drift on the unit datum, U = |x|^{q_a} - |x - 1|^{q_a}
        u = psi(exps.q_a, x) - psi(exps.q_a, x - 1.0)
        t_rr = np.einsum("ij,ik->i", rep, rep) / n**2
        t_ra = np.sum(rep, axis=1) * u / n
        t_aa = u * u
        d_triple = float(np.mean(t_rr - 2.0 * t_ra + t_aa))
        d_direct = dissipation(X, uniform_profile, exps)
        assert abs(d_triple - d_direct) <= 1e-10


class TestEnergyBalance:
    def test_needs_two_snapshots(self, uniform_profile):
        X = uniform_state(0.0, 1.0, 16)
        rep = make_report(0.0, X, uniform_profile, Exponents(2.0, 2.0))
        with pytest.raises(ValueError):
            energy_balance([rep])

    def test_steady_trajectory(self, uniform_profile):
        n = 100
        ss = steady_qr1(uniform_profile, 2.0, n)
        exps = Exponents(2.0, 1.0)
        reps = [make_report(t, ss.Xstar, uniform_profile, exps)
                for t in (0.0, 1.0, 2.0)]
        assert energy_balance(reps) <= 1e-10

    def test_trapezoid_matches_numpy_bit_for_bit(self, rng):
        for size in (2, 3, 17, 200):
            t = np.cumsum(rng.uniform(0.0, 0.1, size))
            e = rng.normal(size=size)
            d = rng.exponential(size=size)
            reps = [EnergyReport(float(ti), float(ei), float(di), 0.0, 0.0)
                    for ti, ei, di in zip(t, e, d)]
            expected = float(abs(e[0] - e[-1] - np.trapezoid(d, t)))
            assert energy_balance(reps) == expected

    def test_closed_form_run(self, uniform_profile):
        exps = Exponents(2.0, 2.0)
        X0 = uniform_state(0.5, 1.5, 200)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, record_every=1)
        traj = simulate(X0, uniform_profile, exps, cfg)
        reps = [make_report(s.t, s.X, uniform_profile, exps)
                for s in traj.states]
        assert energy_balance(reps) <= 1e-6

    def test_energy_monotone_qr_gt_1(self, uniform_profile):
        exps = Exponents(1.8, 1.4)
        X0 = uniform_state(-1.0, 2.0, 80)
        cfg = IntegratorConfig(dt=0.02, t_end=5.0, record_every=10)
        traj = simulate(X0, uniform_profile, exps, cfg)
        reps = [make_report(s.t, s.X, uniform_profile, exps)
                for s in traj.states]
        e = np.array([r.E for r in reps])
        assert np.all(np.diff(e) <= 1e-10)
        assert all(r.D >= -1e-12 for r in reps)


class TestFourierEnergy:
    def test_zero_on_identical_samples(self, uniform_profile):
        n = 100
        X = sample_profile(uniform_profile, n)
        quad = MassQuadrature.midpoint(uniform_profile, n)
        fe = fourier_energy(X, uniform_profile, 1.5, quad=quad)
        assert abs(fe.value) <= fe.error_bound + 1e-12

    def test_preconditions(self, dense2_profile, uniform_profile):
        X = uniform_state(0.0, 1.0, 32)
        with pytest.raises(ValueError):
            fourier_energy(X, dense2_profile, 1.5)
        with pytest.raises(ValueError):
            fourier_energy(X, uniform_profile, 1.0)
        with pytest.raises(ValueError):
            fourier_energy(X, uniform_profile, 2.0)

    def test_dq_positive(self):
        for q in (1.1, 1.2, 1.5, 1.8, 1.9):
            assert dq_constant(q) > 0.0
        # gamma(-0.75) < 0 flips the sign of the prefactor at q = 1.5
        assert math.gamma(-0.75) < 0.0

    def test_identity_against_double_sums(self, uniform_profile):
        n = 150
        X = uniform_state(0.5, 1.5, n)
        quad = MassQuadrature.midpoint(uniform_profile, n)
        for q in (1.3, 1.7):
            e_hat = fourier_energy(X, uniform_profile, q, quad=quad).value
            e_tilde = tilde_energy(X, uniform_profile, q, quad)
            assert abs(e_hat - e_tilde) / abs(e_tilde) <= 1e-3


class TestFourierErrorBound:
    """The bound holds the truncated head and tail and the rule's own error."""

    @pytest.mark.parametrize("q", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize("exact", [False, True],
                             ids=["quadrature", "exact"])
    def test_covers_criterion_10_cases(self, uniform_profile, q, exact):
        n = 200
        quad = None if exact else MassQuadrature.midpoint(uniform_profile, n)
        z = midpoint_grid(n)
        for X in (uniform_state(0.5, 1.5, n), uniform_state(-1.0, 1.0, n),
                  InverseCDF(z**2)):
            fe = fourier_energy(X, uniform_profile, q, quad=quad)
            observed = abs(fe.value - tilde_energy(X, uniform_profile, q, quad))
            assert observed <= fe.error_bound, (observed, fe.error_bound)

    def test_nodes_per_side_counts_both_rules(self):
        # 16 Gauss-Legendre nodes per panel, and 8 for the check rule
        assert XiGrid().nodes_per_side == 12 * 24

    def test_far_from_origin(self):
        # both measures are centred on the datum's mean, so a common offset
        # of 1e6 costs only the digits of the shifted state
        near = ReferenceProfile([0.0, 1.0], [1.0])
        far = ReferenceProfile([1e6, 1e6 + 1.0], [1.0])
        X_far = uniform_state(1e6 - 1.0, 1e6 + 0.5, 64)
        X_near = InverseCDF(X_far.x_values - 1e6)
        for q in (1.3, 1.7):
            a = fourier_energy(X_near, near, q).value
            b = fourier_energy(X_far, far, q).value
            assert abs(a - b) <= 1e-9


class TestNarrowSelfTerm:
    """The datum's self term by pieces, against a 50-digit reference.

    Each piece adds the difference of level 1 between its two ends, which
    still cancels between pieces far apart, by about log10(distance/width)
    digits: on the gap datum 1.6e-14 relative, where a breakpoint (jump)
    form is off by 7.2e-12.  The term only shifts E by a constant.
    """

    @pytest.mark.parametrize("name", list(NARROW_DATUMS))
    def test_relative_error(self, name):
        breaks, densities = NARROW_DATUMS[name]
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            q = decimal.Decimal(1.5)
            pieces = [tuple(map(decimal.Decimal,
                                (breaks[k], breaks[k + 1], rho)))
                      for k, rho in enumerate(densities) if rho > 0]

            def k2(u):  # the second primitive of |u|^q
                return abs(u) ** (q + 2) / ((q + 1) * (q + 2)) if u else u

            ref = float(sum(
                rho * sigma * (k2(b - c) - k2(a - c) - k2(b - d) + k2(a - d))
                for a, b, rho in pieces for c, d, sigma in pieces) / 2)
        got = self_energy_constant(ReferenceProfile(breaks, densities), 1.5)
        assert abs(got - ref) <= 1e-13 * ref


class TestExactDatumTransform:
    """omega_hat and the datum's self term, exact against the mass quadrature."""

    # the gap sits at a third of the mass, so for every M = 100 * 2^k it
    # falls a third of the way into a midpoint cell: the quadrature is
    # first order there, with a constant that does not change as M doubles
    GAP = ReferenceProfile([0.0, 1.0, 2.0, 4.0], [1.0, 0.0, 1.0])
    SIZES = (100, 200, 400, 800, 1600)

    @staticmethod
    def orders(errs):
        return np.log2(np.array(errs[:-1]) / np.array(errs[1:]))

    def test_transform_order_against_quadrature(self):
        xi = np.geomspace(1e-4, 10.0, 60)
        exact = _char_fn(_pieces(self.GAP), xi)
        errs = [
            np.max(np.abs(_char_fn(_pieces(
                self.GAP, MassQuadrature.midpoint(self.GAP, m)), xi) - exact))
            for m in self.SIZES
        ]
        assert np.all(self.orders(errs) >= 0.9), (errs, self.orders(errs))

    def test_no_cancellation_at_xi_min(self):
        # the jump form sum_j J_j e^{-i xi b_j} / (i xi) has terms of size
        # 1/xi = 1e4 here and loses about 1e-12; past the cubic term the
        # Taylor remainder is below xi^4 E[Y^4] / 24, about 1e-17
        prof = ReferenceProfile([0.0, 0.5, 2.0], [1.0, 1.0 / 3.0])
        b = prof.breakpoints
        m1, m2, m3 = (float(prof.densities @ (b[1:] ** (k + 1) - b[:-1] ** (k + 1))
                            / (k + 1)) for k in (1, 2, 3))
        pieces = _pieces(prof)
        assert _moments(pieces) == pytest.approx((m1, m2, m3), rel=1e-14)
        xi = XiGrid().xi_min
        taylor = 1.0 - 1j * xi * m1 - xi**2 * m2 / 2.0 + 1j * xi**3 * m3 / 6.0
        assert abs(_char_fn(pieces, np.array([xi]))[0] - taylor) <= 1e-15

    def test_zero_widths_are_point_masses(self, rng):
        # pieces of width 2^-200 have centre a, sinc 1 and mass rho w
        # exactly, so they give the point sums
        centre = rng.uniform(-2.0, 3.0, 50)
        mass = rng.uniform(0.0, 1.0, 50)
        xi = np.geomspace(1e-4, 1e3, 300)
        points = (centre, None, mass)
        flat = (centre, np.full(50, 2.0**-200), mass * 2.0**200)
        assert _char_fn(flat, xi).tobytes() == _char_fn(points, xi).tobytes()
        assert _moments(flat) == _moments(points)

    @pytest.mark.parametrize("q", [1.0, 1.2, 1.5, 1.8, 2.0])
    def test_self_term_order_against_quadrature(self, q):
        exact = self_energy_constant(self.GAP, q)
        errs = [
            abs(self_energy_constant(
                self.GAP, q, MassQuadrature.midpoint(self.GAP, m)) - exact)
            for m in self.SIZES
        ]
        assert np.all(self.orders(errs) >= 0.9), (errs, self.orders(errs))

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    def test_self_term_on_unit_interval(self, q, offset):
        # 1/2 of the double integral of |x - y|^q over [0, 1]^2
        prof = ReferenceProfile([offset, offset + 1.0], [1.0])
        c = self_energy_constant(prof, q)
        assert abs(c - 1.0 / ((q + 1.0) * (q + 2.0))) <= 1e-12
        quad = MassQuadrature.midpoint(prof, 4000)
        assert abs(c - self_energy_constant(prof, q, quad)) <= 1e-7


class TestMomentCertificate:
    def test_attraction_dominated(self, uniform_profile):
        # at (1.5, 1.497) R^{q_r} overflows, so the bound is inf
        X0 = uniform_state(-1.0, 2.0, 64)
        cfg = IntegratorConfig(dt=0.05, t_end=10.0, record_every=20)
        for exps in (Exponents(2.0, 1.0), Exponents(1.5, 1.497)):
            traj = simulate(X0, uniform_profile, exps, cfg)
            reps = [make_report(s.t, s.X, uniform_profile, exps)
                    for s in traj.states]
            cert = moment_certificate(reps, exps, uniform_profile)
            assert cert.regime == "attraction_dominated"
            assert cert.r == exps.q_a
            assert cert.passed
            assert cert.max_observed <= cert.bound

    def test_balanced(self, uniform_profile):
        exps = Exponents(1.2, 1.2)
        X0 = uniform_state(-1.0, 2.0, 64)
        quad = MassQuadrature.midpoint(uniform_profile, 64)
        reps = [make_report(0.0, X0, uniform_profile, exps, quad)]
        cert = moment_certificate(reps, exps, uniform_profile, quad=quad)
        assert cert.regime == "balanced"
        assert cert.r == pytest.approx(0.5)
        assert cert.passed

    def test_attraction_bound_honours_quad(self):
        # the datum term is the quadrature's sum_j w_j |y_j|^{q_a} when a
        # quadrature is passed, and the exact integral otherwise
        prof = ReferenceProfile([0.0, 0.5, 1.5, 2.0], [1.0, 0.0, 1.0])
        exps = Exponents(1.8, 1.2)
        rep = make_report(0.0, uniform_state(-1.0, 2.0, 64), prof, exps)
        quad = MassQuadrature.midpoint(prof, 4)
        y = prof.quantile(quad.nodes)
        tail = 2.0 * 8.0 ** (exps.q_r / (exps.q_a - exps.q_r))
        for datum, q in ((self.gap_moment(exps.q_a), None),
                         (quad.weights @ np.abs(y) ** exps.q_a, quad)):
            cert = moment_certificate([rep], exps, prof, quad=q)
            assert cert.bound == pytest.approx(4.0 * (rep.E + datum + tail),
                                               rel=1e-12)

    def test_empty_stream(self, uniform_profile):
        with pytest.raises(ValueError):
            moment_certificate([], Exponents(2.0, 1.0), uniform_profile)

    @staticmethod
    def gap_moment(q):
        """int |y|^q d omega for density 1 on [0, 0.5] and [1.5, 2]."""
        return (0.5 ** (q + 1) + 2.0 ** (q + 1) - 1.5 ** (q + 1)) / (q + 1)

    @pytest.mark.parametrize("q", [1.2, 1.5])
    def test_balanced_bound_formula(self, q):
        # m2 = 2 (E(0) - C + E~[delta_0]) / D_q, with E~[delta_0] the
        # exact int |y|^q d omega - C
        prof = ReferenceProfile([0.0, 0.5, 1.5, 2.0], [1.0, 0.0, 1.0])
        exps = Exponents(q, q)
        rep = make_report(0.0, uniform_state(-1.0, 2.0, 64), prof, exps)
        c = self_energy_constant(prof, q)
        moment_y = self.gap_moment(q)
        r = q / 2.0 - 0.1
        m2 = 2.0 * (rep.E - 2.0 * c + moment_y) / dq_constant(q)
        bound = 2.0 * dq_constant(r) * (
            math.sqrt(2.0 / (q - 2.0 * r)) * math.sqrt(m2) + 4.0 / r)
        cert = moment_certificate([rep], exps, prof)
        assert cert.bound == pytest.approx(bound, rel=1e-12)

    def test_balanced_needs_unit_mass(self, dense2_profile):
        X = uniform_state(0.0, 1.0, 32)
        rep = make_report(0.0, X, dense2_profile, Exponents(1.5, 1.5))
        with pytest.raises(ValueError):
            moment_certificate([rep], Exponents(1.5, 1.5), dense2_profile)


def bench_like_datum(seed, pieces=5):
    """A unit-mass datum with empty gaps, drawn as the benchmark draws its."""
    rng = np.random.default_rng(seed)
    widths = rng.uniform(0.2, 0.5, pieces)
    dens = rng.uniform(0.5, 1.5, pieces)
    dens[1::2] = 0.0
    widths /= dens @ widths
    breaks = -0.5 * widths.sum() + np.concatenate([[0.0], np.cumsum(widths)])
    return ReferenceProfile(breaks, dens)


class TestExactCertificateTerm:
    """The balanced certificate's delta_0 term against the xi integral.

    D_q int |1 - omega_hat|^2 |xi|^{-1-q} is the tilde energy of delta_0,
    int |y|^q d omega - C, so the exact term lies inside the error bar of
    the xi rule that it replaced, and the certificate is never looser.
    """

    DATUMS = {
        "unit": ReferenceProfile([0.0, 1.0], [1.0]),
        "gap": ReferenceProfile([0.0, 0.5, 1.5, 2.0], [1.0, 0.0, 1.0]),
        "bench": bench_like_datum(4101),
    }

    @pytest.mark.parametrize("q", [1.2, 1.25, 1.5, 1.8])
    @pytest.mark.parametrize("nodes", [None, 800], ids=["exact", "quad"])
    @pytest.mark.parametrize("name", list(DATUMS))
    def test_inside_xi_error_bar(self, name, nodes, q):
        prof = self.DATUMS[name]
        quad = None if nodes is None else MassQuadrature.midpoint(prof, nodes)
        exact = (float(_datum_conv(prof, q, np.zeros(1), quad)[0])
                 - self_energy_constant(prof, q, quad)) / dq_constant(q)
        delta0 = (np.zeros(1), None, np.ones(1))
        value, err = _xi_integral(delta0, _pieces(prof, quad), q)
        assert abs(exact - value) <= err, (exact, value, err)
        assert exact <= value + err


class TestReportCsv:
    def test_header_and_format(self, tmp_path, uniform_profile):
        X = uniform_state(0.0, 1.0, 16)
        reps = [make_report(t, X, uniform_profile, Exponents(1.5, 1.5))
                for t in (0.0, 0.5)]
        path = tmp_path / "energy.csv"
        reports_to_csv(reps, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,E,D,moment_qa,moment_r"
        assert len(lines) == 3
        assert "\r" not in path.read_text()

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        values = (0.1, -0.0, 1e300, -1e300, 1e-300, 1.0 / 3.0, 2.0**-1074)
        reps = [EnergyReport(*np.roll(values, k)[:5].tolist())
                for k in range(7)]
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["t", "E", "D", "moment_qa", "moment_r"])
        for r in reps:
            writer.writerow(
                [f"{r.t:.17g}", f"{r.E:.17g}", f"{r.D:.17g}",
                 f"{r.moment_qa:.17g}", f"{r.moment_r:.17g}"])
        path = tmp_path / "energy.csv"
        reports_to_csv(reps, path)
        assert path.read_bytes() == expected.getvalue().encode()


class TestSortedPairSums:
    """The pair terms against dense double sums and exact references."""

    @staticmethod
    def uneven_quad(profile, rng, m_nodes):
        nodes = np.sort(rng.uniform(0.0, profile.mass, m_nodes))
        return MassQuadrature(nodes, rng.uniform(0.5, 1.5, m_nodes) / m_nodes)

    @staticmethod
    def tied_state(rng, n):
        x = np.sort(rng.uniform(-2.0, 4.0, n))
        x[10:13] = x[10]
        return InverseCDF(x)

    @pytest.mark.parametrize("q_a,q_r", [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0),
                                         (1.5, 1.0), (2.0, 1.5), (1.7, 1.3)])
    def test_energy_matches_dense(self, gap_profile, rng, q_a, q_r):
        X = self.tied_state(rng, 97)
        x = X.x_values
        quad = self.uneven_quad(gap_profile, rng, 61)
        y = gap_profile.quantile(quad.nodes)
        dense = (np.mean(np.sum(quad.weights * psi(q_a, x[:, None] - y), axis=1))
                 - np.sum(psi(q_r, x[:, None] - x)) / (2.0 * X.n**2))
        e = energy(X, gap_profile, Exponents(q_a, q_r), quad)
        assert abs(e - dense) <= 1e-12 * max(1.0, abs(dense))

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    def test_tilde_and_self_energy_match_dense(self, gap_profile, rng, q):
        X = self.tied_state(rng, 83)
        x = X.x_values
        quad = self.uneven_quad(gap_profile, rng, 70)
        y = gap_profile.quantile(quad.nodes)
        w_mu = np.full(X.n, 1.0 / X.n)
        w_om = quad.weights

        def dense(px, wx, py, wy):
            return wx @ psi(q, px[:, None] - py) @ wy

        s_oo = dense(y, w_om, y, w_om)
        expected = -0.5 * (dense(x, w_mu, x, w_mu)
                           - 2.0 * dense(x, w_mu, y, w_om) + s_oo)
        got = tilde_energy(X, gap_profile, q, quad)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))
        c = self_energy_constant(gap_profile, q, quad)
        assert abs(c - 0.5 * s_oo) <= 1e-12 * max(1.0, abs(s_oo))

    def test_closed_forms_far_from_origin(self):
        # the closed forms centre the samples, so a large common offset
        # costs no more digits than the dense differences do
        n = 64
        prof = ReferenceProfile([1e6, 1e6 + 1.0], [1.0])
        X = uniform_state(1e6 - 1.0, 1e6 + 0.5, n)
        quad = MassQuadrature.midpoint(prof, n)
        x = X.x_values
        y = prof.quantile(quad.nodes)
        for q_a, q_r in ((1.0, 1.0), (2.0, 2.0), (2.0, 1.0)):
            dense = (np.mean(np.sum(quad.weights * psi(q_a, x[:, None] - y),
                                    axis=1))
                     - np.sum(psi(q_r, x[:, None] - x)) / (2.0 * n * n))
            e = energy(X, prof, Exponents(q_a, q_r), quad)
            assert abs(e - dense) <= 1e-9

    def test_rank_pair_term_exact(self):
        # at q_r = 1 the pair term is sum_i x_i (2i - 1 - n) / n^2 on sorted
        # x; a cumulative sum of rank weights lost 7e-14 of it at n = 3200
        prof = ReferenceProfile([-0.6, -0.1, 0.3, 0.7], [0.9, 1.2, 0.7])
        n = 3200
        X = sample_profile(prof, n)
        x = X.x_values
        exact = sum(Fraction(float(v)) * (2 * i - 1 - n)
                    for i, v in enumerate(x, 1)) / (n * n)
        attr = float(np.mean(_datum_conv(prof, 2.0, x)))
        e = energy(X, prof, Exponents(2.0, 1.0))
        assert abs(Fraction(attr) - Fraction(e) - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("q_a,q_r", [(2.0, 2.0), (2.0, 1.0), (1.5, 1.4),
                                         (2.0, 1.5)])
    def test_narrow_state_far_from_origin(self, q_a, q_r):
        # a state and datum 1e-3 wide at c against their exact translate to
        # the origin: a pair term centred on a mean that rounds at ulp(c)
        # kept its second-order error, 6e-9 of E at c = 1e8 for q = 2
        n = 120
        for c in (1e4, 1e6, 1e8):
            b = np.array([c, c + 1e-3])
            far = (uniform_state(c, c + 1e-3, n),
                   ReferenceProfile(b, [1.0 / (b[1] - b[0])]))
            near = (InverseCDF(far[0].x_values - c),
                    ReferenceProfile(b - c, far[1].densities))
            e_far, e_near = (energy(X, prof, Exponents(q_a, q_r))
                             for X, prof in (far, near))
            assert abs(e_far - e_near) <= 1e-15 * abs(e_near), c


class TestEnergyAndVelocity:
    @pytest.mark.parametrize("q_a,q_r", [(1.8, 1.4), (2.0, 1.0), (2.0, 2.0)])
    def test_velocity_is_rhs(self, gap_profile, q_a, q_r):
        X = sample_profile(gap_profile, 97)
        exps = Exponents(q_a, q_r)
        _, v = energy_and_velocity(X, gap_profile, exps)
        pot = AttractionPotential(gap_profile, q_a)
        assert np.array_equal(v, rhs(X, pot, exps))

    def test_report_makes_one_pair_pass(self, gap_profile, pair_passes):
        # the energy's pair term comes from the repulsion's sum
        X = sample_profile(gap_profile, 97)
        make_report(0.0, X, gap_profile, Exponents(1.8, 1.4))
        assert pair_passes == [pytest.approx(0.4)]
