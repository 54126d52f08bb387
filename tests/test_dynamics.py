import warnings

import numpy as np
import pytest

from arflow import (
    AttractionPotential,
    Exponents,
    FlowState,
    InverseCDF,
    IntegratorConfig,
    MonotonicityError,
    ReferenceProfile,
    closed_form_q2,
    energy_and_velocity,
    particle_rhs,
    simulate,
    step,
    uniform_state,
    wasserstein,
)
from arflow import dynamics, kernels
from arflow.dynamics import repulsion_direct, repulsion_term
from arflow.steady import steady_qr1, steady_residual
from conftest import psi_prime


class TestRepulsionTerm:
    def test_q2_fast_path(self, rng):
        x = np.sort(rng.uniform(-2.0, 2.0, 60))
        z = (np.arange(60) + 0.5) / 60
        fast = repulsion_term(x, z, 2.0)
        assert np.max(np.abs(fast - repulsion_direct(x, 2.0))) <= 1e-12

    def test_q1_rank_formula(self, rng):
        n = 60
        x = np.sort(rng.uniform(-2.0, 2.0, n))
        z = (np.arange(n) + 0.5) / n
        fast = repulsion_term(x, z, 1.0)
        # for strictly increasing x the sgn sum is the rank formula exactly
        assert np.max(np.abs(fast - repulsion_direct(x, 1.0))) <= 1e-14

    def test_generic_matches_direct(self, rng):
        x = np.sort(rng.uniform(-2.0, 2.0, 40))
        z = (np.arange(40) + 0.5) / 40
        assert np.array_equal(
            repulsion_term(x, z, 1.5), repulsion_direct(x, 1.5)
        )


class TestRepulsionDirect:
    @pytest.mark.parametrize("q_r", [1.0, 1.3, 2.0])
    def test_matches_dense_on_unsorted_tied_input(self, rng, q_r):
        # an RK4 stage state: sorted nodes jittered out of order, with ties
        n = 1000
        assert n % (kernels._BLOCK_ELEMS // n) != 0
        x = np.sort(rng.uniform(-2.0, 2.0, n)) + rng.normal(0.0, 0.01, n)
        x[[5, 6, 500]] = x[600]
        assert np.any(np.diff(x) < 0)
        dense = np.mean(psi_prime(q_r, x[:, None] - x[None, :]), axis=1)
        assert np.max(np.abs(repulsion_direct(x, q_r) - dense)) <= 1e-12


class TestRhs:
    def test_q2_at_center_of_mass(self, uniform_profile):
        n = 32
        X = InverseCDF(np.full(n, uniform_profile.com()))
        v = energy_and_velocity(X, uniform_profile, Exponents(2.0, 2.0))[1]
        assert np.max(np.abs(v)) <= 1e-13

    def test_q1_deep_left(self, dense2_profile):
        n = 24
        X = uniform_state(-10.0, -9.0, n)
        v = energy_and_velocity(X, dense2_profile, Exponents(1.0, 1.0))[1]
        z = X.z_grid
        m = dense2_profile.mass
        assert np.max(np.abs(v - (2.0 * z - 1.0 + m))) <= 1e-14

    def test_steady_state_residual(self, uniform_profile):
        n = 200
        ss = steady_qr1(uniform_profile, 1.5, n)
        res = steady_residual(ss.Xstar, uniform_profile, Exponents(1.5, 1.0))
        assert res <= 5.0 / n

    def test_frozen_left_edge_at_z_zero(self, uniform_profile):
        # at z = 0 with m = 1 and X left of the support the drift vanishes
        # exactly: 2 z - 1 - (2 G - m) = 0 - 2 G = 0
        pot = AttractionPotential(uniform_profile, 1.0)
        x = np.array([-5.0])
        v = dynamics._velocity(x, np.array([0.0]), pot, 1.0)[1]
        assert v[0] == 0.0
        # the same scalar ODE keeps the edge fixed under explicit stepping
        edge = -5.0
        for _ in range(1000):
            drift = -1.0 + uniform_profile.mass - 2.0 * uniform_profile.cdf(edge)
            edge += 0.01 * drift
        assert edge == -5.0


class TestStep:
    def test_fixed_point(self, uniform_profile):
        n = 100
        ss = steady_qr1(uniform_profile, 2.0, n)
        pot = AttractionPotential(uniform_profile, 2.0)
        cfg = IntegratorConfig(dt=0.01, t_end=1.0)
        state = FlowState(0.0, ss.Xstar)
        new = step(state, cfg, pot, 1.0)
        assert new.t == pytest.approx(0.01)
        assert np.max(np.abs(new.X.x_values - ss.Xstar.x_values)) <= 1e-12

    def test_single_rk4_step_vs_closed_form(self, uniform_profile):
        n = 50
        X0 = uniform_state(1.0, 2.0, n)
        dt = 0.01
        pot = AttractionPotential(uniform_profile, 2.0)
        cfg = IntegratorConfig(dt=dt, t_end=dt)
        new = step(FlowState(0.0, X0), cfg, pot, 2.0)
        exact = closed_form_q2(X0, uniform_profile, dt)
        assert np.max(np.abs(new.X.x_values - exact.x_values)) <= 10.0 * dt**5

    def test_dt_guard(self, uniform_profile):
        pot = AttractionPotential(uniform_profile, 2.0)
        cfg = IntegratorConfig(dt=10.0, t_end=10.0)
        state = FlowState(0.0, uniform_state(0.0, 1.0, 16))
        with pytest.raises(ValueError, match="guard"):
            step(state, cfg, pot, 2.0)

    def test_monotonicity_abort(self):
        # a linear U cannot fold an RK4 step: its stability polynomial has
        # no real root; a cubic one steep at the edges can
        class FoldingPot:
            lam = 0.0

            def __call__(self, x):
                return 30.0 * x**3

        state = FlowState(0.0, uniform_state(-1.0, 1.0, 16))
        cfg = IntegratorConfig(dt=0.1, t_end=0.1)
        with pytest.raises(MonotonicityError):
            step(state, cfg, FoldingPot(), 2.0)


class TestIntegratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=-1.0, t_end=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.1, t_end=1.0, safety=1.5)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.1, t_end=1.0, record_every=0)


    def test_t_end_must_be_multiple_of_dt(self):
        with pytest.raises(ValueError, match="multiple"):
            IntegratorConfig(dt=0.15, t_end=1.0)
        assert IntegratorConfig(dt=0.05, t_end=100.0).n_steps == 2000
        assert IntegratorConfig(dt=0.01, t_end=0.01 * 30).n_steps == 30
        assert IntegratorConfig(dt=0.1, t_end=0.0).n_steps == 0


class TestSimulate:
    def test_closed_form_oracle(self, uniform_profile):
        X0 = uniform_state(2.0, 3.0, 100)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.5, record_every=100)
        traj = simulate(X0, uniform_profile, Exponents(2.0, 2.0), cfg)
        exact = closed_form_q2(X0, uniform_profile, 0.5)
        assert np.max(np.abs(traj.states[-1].X.x_values - exact.x_values)) <= 1e-8

    @pytest.mark.parametrize("name", ["uniform_profile", "dense2_profile"])
    def test_rk4_fourth_order(self, request, name):
        # at q_a = q_r = 2 each halving of dt divides the error at T = 1
        # against the closed form by about 2^4.  The start's mean differs
        # from com, so the exact solution moves (on the gap datum at m = 1
        # it would stand still, with error at roundoff)
        prof = request.getfixturevalue(name)
        X0 = uniform_state(-1.0, 3.0, 64)
        exact = closed_form_q2(X0, prof, 1.0).x_values
        errs = []
        for dt in (0.1, 0.05, 0.025, 0.0125):
            cfg = IntegratorConfig(dt=dt, t_end=1.0)
            traj = simulate(X0, prof, Exponents(2.0, 2.0), cfg)
            errs.append(np.max(np.abs(traj.states[-1].X.x_values - exact)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 3.9), orders

    def test_recording(self, uniform_profile):
        X0 = uniform_state(0.0, 1.0, 32)
        cfg = IntegratorConfig(dt=0.01, t_end=0.1, record_every=5)
        traj = simulate(X0, uniform_profile, Exponents(2.0, 2.0), cfg)
        assert len(traj.states) == 3  # t = 0, 0.05, 0.1
        assert traj.times[-1] == pytest.approx(0.1)

    def test_requires_positive_slope(self, uniform_profile):
        X0 = InverseCDF(np.array([0.0, 0.0, 1.0]))
        cfg = IntegratorConfig(dt=0.01, t_end=0.1)
        with pytest.raises(ValueError):
            simulate(X0, uniform_profile, Exponents(2.0, 2.0), cfg)

    def test_com_decay_rate(self, dense2_profile):
        # c(t) - com(omega) = e^{-2mt} (c(0) - com(omega))
        X0 = uniform_state(2.0, 3.0, 64)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, record_every=1000)
        traj = simulate(X0, dense2_profile, Exponents(2.0, 2.0), cfg)
        com = dense2_profile.com()
        c0 = X0.mean()
        for s in traj.states:
            pred = com + np.exp(-2.0 * dense2_profile.mass * s.t) * (c0 - com)
            assert s.X.mean() == pytest.approx(pred, abs=1e-9)

    def test_slope_certificate(self, dense2_profile):
        X0 = uniform_state(2.0, 3.0, 64)
        cfg = IntegratorConfig(dt=1e-2, t_end=2.0, record_every=20)
        traj = simulate(X0, dense2_profile, Exponents(2.0, 2.0), cfg)
        assert traj.slope_certificate >= 1.0 - 1e-6

    @staticmethod
    def run_past_exp_overflow(profile):
        # lambda t = 2 * 360 = 720, past ln(max double) = 709.78, where
        # e^{lambda t} overflows
        X0 = uniform_state(2.0, 3.0, 16)
        cfg = IntegratorConfig(dt=0.25, t_end=360.0, record_every=1440)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = simulate(X0, profile, Exponents(2.0, 2.0), cfg)
        lam = kernels.lipschitz_bound(profile, 2.0)  # the guard's lambda
        assert lam * traj.times[-1] > 709.0
        return traj

    def test_slope_certificate_past_exp_overflow(self, uniform_profile):
        # at m = 1 and q = 2 the slopes stay put, so the certificate is 1
        traj = self.run_past_exp_overflow(uniform_profile)
        assert traj.slope_certificate == 1.0

    def test_collapsed_slope_zeroes_certificate(self, uniform_profile,
                                                monkeypatch):
        # min_slope e^{lambda t} was 0 * inf = nan here, and min(cert, nan)
        # kept the old value
        real_step = dynamics.step

        def collapse_at_end(state, cfg, pot, q_r):
            new = real_step(state, cfg, pot, q_r)
            if new.t < cfg.t_end:
                return new
            x = new.X.x_values.copy()
            x[1] = x[0]  # a tie: the end state's min slope is 0.0
            return FlowState(new.t, InverseCDF(x))

        monkeypatch.setattr(dynamics, "step", collapse_at_end)
        traj = self.run_past_exp_overflow(uniform_profile)
        assert traj.slope_certificate == 0.0

    def test_order_preserved_along_run(self, uniform_profile):
        X0 = uniform_state(-1.0, 2.0, 80)
        cfg = IntegratorConfig(dt=0.02, t_end=4.0, record_every=20)
        traj = simulate(X0, uniform_profile, Exponents(1.8, 1.4), cfg)
        for s in traj.states:
            assert np.all(np.diff(s.X.x_values) >= 0)

    def test_finite_growth_bound(self, half_profile):
        # escaping-mass run: sup |X| grows at most like (|X0| + C1 t) e^{C2 t}
        X0 = uniform_state(-1.0, 2.0, 64)
        cfg = IntegratorConfig(dt=0.01, t_end=5.0, record_every=100)
        traj = simulate(X0, half_profile, Exponents(1.0, 1.0), cfg)
        c1 = 1.0 + half_profile.mass + 2.0
        for s in traj.states:
            bound = (np.max(np.abs(X0.x_values)) + c1 * s.t) * np.exp(s.t)
            assert np.max(np.abs(s.X.x_values)) <= bound

    @pytest.mark.parametrize("q_a, q_r", [(1.8, 1.4), (1.5, 1.5), (2.0, 1.3),
                                          (1.3, 1.0), (1.6, 1.2)])
    def test_reflection_and_translation(self, q_a, q_r):
        # every sign choice of the datum sums and the oracle at once: the
        # flow commutes with x -> -x (datum reflected, X -> -X[::-1]) and
        # with a shift, which moves the datum and the state alike
        b, rho = np.array([0.0, 0.5, 1.5, 2.0]), np.array([1.0, 0.0, 1.0])
        exps = Exponents(q_a, q_r)
        cfg = IntegratorConfig(dt=0.02, t_end=2.0, record_every=100)
        x0 = uniform_state(-1.0, 3.0, 64).x_values

        def run(breaks, densities, x):
            prof = ReferenceProfile(breaks, densities)
            traj = simulate(InverseCDF(x), prof, exps, cfg)
            return prof, traj.states[-1].X.x_values

        prof, x = run(b, rho, x0)
        prof_m, x_m = run(-b[::-1], rho[::-1], -x0[::-1])
        assert np.max(np.abs(x_m + x[::-1])) <= 1e-14 * np.max(np.abs(x))
        shift = 1e3
        _, x_t = run(b + shift, rho, x0 + shift)
        assert np.max(np.abs(x_t - (x + shift))) <= 16 * np.spacing(shift)
        if q_r > 1.0:
            v = particle_rhs(InverseCDF(x), prof, exps)
            v_m = particle_rhs(InverseCDF(-x[::-1]), prof_m, exps)
            assert np.max(np.abs(v_m + v[::-1])) <= 1e-14 * np.max(np.abs(v))

    def test_w2_to_steady_nonincreasing(self, uniform_profile):
        X0 = uniform_state(1.0, 2.0, 100)
        cfg = IntegratorConfig(dt=0.05, t_end=5.0, record_every=10)
        traj = simulate(X0, uniform_profile, Exponents(2.0, 1.0), cfg)
        ss = steady_qr1(uniform_profile, 2.0, 100)
        w2 = [wasserstein(s.X, ss.Xstar, 2.0) for s in traj.states]
        assert np.all(np.diff(w2) <= 1e-10)


class TestClosedForm:
    def test_identity_at_zero(self, dense2_profile):
        X0 = uniform_state(0.0, 1.0, 32)
        out = closed_form_q2(X0, dense2_profile, 0.0)
        assert np.array_equal(out.x_values, X0.x_values)

    def test_translate_for_unit_mass(self, uniform_profile):
        X0 = uniform_state(2.0, 4.0, 32)
        for t in (0.3, 1.0, 2.5):
            out = closed_form_q2(X0, uniform_profile, t)
            d = out.x_values - X0.x_values
            assert np.ptp(d) <= 1e-12

    def test_collapse_rate_m2(self, dense2_profile):
        X0 = uniform_state(2.0, 3.0, 32)
        com = dense2_profile.com()
        e1 = np.max(np.abs(closed_form_q2(X0, dense2_profile, 4.0).x_values - com))
        e2 = np.max(np.abs(closed_form_q2(X0, dense2_profile, 5.0).x_values - com))
        # log-error slope -2(m-1) = -2
        assert np.log(e2 / e1) == pytest.approx(-2.0, abs=1e-2)

    @pytest.mark.parametrize("c", [1e4, 1e6, 1e8])
    @pytest.mark.parametrize("breaks, densities", [
        ([0.1, 0.5, 1.3], [1.0, 0.75]),       # m = 1, com not representable
        ([0.0, 1.0, 2.5], [2.0, 0.3]),        # m = 2.45, contracting
        ([0.0, 0.7, 1.9, 2.0], [0.3, 0.0, 4.0]),  # m = 0.61, expanding
    ], ids=["unit-mass", "heavy", "light"])
    def test_translation_at_storage_floor(self, rng, c, breaks, densities):
        # the solution is taken about b_0, so a common offset c costs only
        # the rounding of storing x; far is near translated exactly
        far = ReferenceProfile(np.array(breaks) + c, densities)
        near = ReferenceProfile(far.breakpoints - c, densities)
        X_far = InverseCDF(np.sort(rng.uniform(-2.0, 3.0, 200)) + c)
        X_near = InverseCDF(X_far.x_values - c)
        for t in (0.1, 1.0, 5.0):
            b = closed_form_q2(X_far, far, t).x_values
            a = closed_form_q2(X_near, near, t).x_values + c
            assert np.all(np.abs(b - a) <= 1.1 * np.spacing(np.abs(b)))
