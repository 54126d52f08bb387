import tracemalloc

import numpy as np
import pytest

from arflow import (
    AttractionPotential,
    Exponents,
    InverseCDF,
    MassQuadrature,
    ParticleSystem,
    ReferenceProfile,
    attraction_U,
    discrete_energy,
    energy,
    particle_rhs,
    psi,
    psi_double_prime,
    psi_prime,
    uniform_state,
)
from arflow.dynamics import repulsion_direct
from arflow.energetics import self_energy_constant


class TestExponents:
    def test_valid(self):
        e = Exponents(1.7, 1.3)
        assert e.regime == "attraction_dominated"
        assert Exponents(1.5, 1.5).regime == "balanced"

    def test_invalid(self):
        with pytest.raises(ValueError):
            Exponents(1.3, 1.7)
        with pytest.raises(ValueError):
            Exponents(2.5, 1.0)
        with pytest.raises(ValueError):
            Exponents(1.5, 0.5)


class TestPsi:
    def test_values(self):
        assert psi(2.0, -3.0) == 9.0
        assert psi(1.0, -3.0) == 3.0
        assert psi(1.5, 4.0) == 8.0

    def test_range_check(self):
        with pytest.raises(ValueError):
            psi(2.5, 1.0)
        with pytest.raises(ValueError):
            psi_prime(0.5, 1.0)

    def test_prime_quadratic(self, rng):
        x = rng.uniform(-5.0, 5.0, 20)
        assert np.allclose(psi_prime(2.0, x), 2.0 * x, atol=0.0)

    def test_prime_at_zero(self):
        for q in (1.0, 1.3, 1.7, 2.0):
            assert psi_prime(q, 0.0) == 0.0

    def test_prime_value(self):
        assert psi_prime(1.5, -4.0) == pytest.approx(-3.0, abs=1e-14)

    def test_prime_odd(self, rng):
        x = rng.uniform(0.01, 5.0, 50)
        for q in (1.0, 1.2, 1.5, 2.0):
            assert np.array_equal(psi_prime(q, -x), -psi_prime(q, x))

    def test_double_prime(self):
        assert psi_double_prime(2.0, 0.0) == 2.0
        assert psi_double_prime(2.0, 7.0) == 2.0
        assert psi_double_prime(1.5, 4.0) == pytest.approx(0.375, abs=1e-14)
        with pytest.raises(ValueError):
            psi_double_prime(1.5, 0.0)
        with pytest.raises(ValueError):
            psi_double_prime(1.0, np.array([1.0, 0.0]))

    def test_finite_difference(self):
        # central difference converges at order min(2, q) away from 0
        x = 0.7
        for q in (1.3, 1.7, 2.0):
            errs = []
            for h in (1e-3, 1e-4):
                fd = (psi(q, x + h) - psi(q, x - h)) / (2.0 * h)
                errs.append(abs(fd - psi_prime(q, x)))
            assert errs[0] <= 1e-5
            assert errs[1] <= max(errs[0] / 50.0, 1e-12)


class TestAttractionU:
    def test_quadratic_affine(self, uniform_profile):
        pot = AttractionPotential(uniform_profile, 2.0)
        assert attraction_U(pot, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert attraction_U(pot, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_q1_left_of_support(self, dense2_profile):
        pot = AttractionPotential(dense2_profile, 1.0)
        assert attraction_U(pot, -3.0) == -2.0

    def test_q1_median(self, dense2_profile):
        pot = AttractionPotential(dense2_profile, 1.0)
        assert attraction_U(pot, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_q1_bounded(self, gap_profile):
        pot = AttractionPotential(gap_profile, 1.0)
        x = np.linspace(-5.0, 8.0, 300)
        u = attraction_U(pot, x)
        m = gap_profile.mass
        assert np.all(np.abs(u) <= m + 1e-12)

    def test_nondecreasing(self, gap_profile):
        for q_a in (1.0, 1.4, 1.8, 2.0):
            pot = AttractionPotential(gap_profile, q_a)
            x = np.linspace(-4.0, 7.0, 400)
            u = attraction_U(pot, x)
            assert np.all(np.diff(u) >= -1e-12)

    def test_lipschitz_finite_difference(self, uniform_profile, rng):
        for q_a in (1.0, 1.5, 2.0):
            pot = AttractionPotential(uniform_profile, q_a)
            lam = pot.lam
            a = rng.uniform(-2.0, 3.0, 200)
            b = rng.uniform(-2.0, 3.0, 200)
            du = np.abs(attraction_U(pot, a) - attraction_U(pot, b))
            assert np.all(du <= lam * np.abs(a - b) + 1e-2)

    def test_callable(self, uniform_profile):
        pot = AttractionPotential(uniform_profile, 2.0)
        assert pot(1.0) == attraction_U(pot, 1.0)


class TestLipschitzLambda:
    def test_q1(self, uniform_profile):
        pot = AttractionPotential(uniform_profile, 1.0)
        assert pot.lam == 2.0

    def test_q2(self, uniform_profile):
        pot = AttractionPotential(uniform_profile, 2.0)
        assert pot.lam == 2.0

    def test_intermediate(self, uniform_profile):
        pot = AttractionPotential(uniform_profile, 1.5)
        assert pot.lam == pytest.approx(3.75, abs=1e-14)


class TestExactDatumIntegrals:
    """The default exact drift and energy against the mass quadrature."""

    # the gap sits at a third of the mass, so for every M = 100 * 2^k it
    # falls a third of the way into a midpoint cell: the quadrature is
    # first order there, with a constant that does not change as M doubles
    GAP = ReferenceProfile([0.0, 1.0, 2.0, 4.0], [1.0, 0.0, 1.0])
    SIZES = (100, 200, 400, 800, 1600)

    @staticmethod
    def orders(errs):
        return np.log2(np.array(errs[:-1]) / np.array(errs[1:]))

    @pytest.mark.parametrize("q_a", [1.2, 1.5, 1.8, 2.0])
    def test_drift_order_against_quadrature(self, q_a):
        # nodes left and right of the support and inside the gap, where the
        # integrand is smooth on every piece
        x = np.array([-3.0, -1.5, 1.25, 1.5, 1.75, 5.0, 6.5])
        exact = attraction_U(AttractionPotential(self.GAP, q_a), x)
        errs = [
            np.max(np.abs(attraction_U(AttractionPotential(
                self.GAP, q_a, MassQuadrature.midpoint(self.GAP, m)), x)
                - exact))
            for m in self.SIZES
        ]
        assert np.all(self.orders(errs) >= 0.9), (errs, self.orders(errs))

    @pytest.mark.parametrize("q_a", [1.2, 1.5, 1.8, 2.0])
    def test_energy_order_against_quadrature(self, q_a):
        X = InverseCDF(np.concatenate([np.linspace(-2.0, -0.5, 32),
                                       np.linspace(1.1, 1.4, 32)]))
        exps = Exponents(q_a, 1.1)
        exact = energy(X, self.GAP, exps)
        errs = [
            abs(energy(X, self.GAP, exps,
                       MassQuadrature.midpoint(self.GAP, m)) - exact)
            for m in self.SIZES
        ]
        assert np.all(self.orders(errs) >= 0.9), (errs, self.orders(errs))

    @pytest.mark.parametrize("offset", [0.0, 0.3])
    @pytest.mark.parametrize("q_a", [1.0, 1.5, 2.0])
    def test_far_datum(self, q_a, offset):
        # the same datum and state near the origin, shifted by exactly 1e6
        far = ReferenceProfile(1e6 + np.array([offset, offset + 1.0]), [1.0])
        near = ReferenceProfile(far.breakpoints - 1e6, [1.0])
        X_far = uniform_state(1e6 - 1.0, 1e6 + 2.0, 61)
        X_near = InverseCDF(X_far.x_values - 1e6)
        exps = Exponents(q_a, 1.0)
        u_far = attraction_U(AttractionPotential(far, q_a), X_far.x_values)
        u_near = attraction_U(AttractionPotential(near, q_a), X_near.x_values)
        assert np.max(np.abs(u_far - u_near)) <= 1e-12
        assert abs(energy(X_far, far, exps)
                   - energy(X_near, near, exps)) <= 1e-9
        quad = MassQuadrature.midpoint(far, 4000)
        u_quad = attraction_U(AttractionPotential(far, q_a, quad),
                              X_far.x_values)
        assert np.max(np.abs(u_far - u_quad)) <= 1e-5
        assert abs(energy(X_far, far, exps)
                   - energy(X_far, far, exps, quad)) <= 1e-5

    def test_exact_potential_nodes_are_breakpoints(self):
        pot = AttractionPotential(self.GAP, 1.5)
        assert pot.quad is None
        assert np.array_equal(pot.y_nodes, self.GAP.breakpoints)
        assert not pot.y_nodes.flags.writeable


class TestMemoryCap:
    def test_blocked_sums_stay_small(self, uniform_profile):
        # one dense n x n float64 temporary would take 800 MB at n = 10**4
        n = 10**4
        X = uniform_state(-1.0, 2.0, n)
        quad = MassQuadrature.midpoint(uniform_profile, n)
        pot = AttractionPotential(uniform_profile, 1.5, quad)
        calls = {
            "energy": lambda: energy(X, uniform_profile, Exponents(1.5, 1.3),
                                     quad),
            "repulsion_direct": lambda: repulsion_direct(X.x_values, 1.3),
            "attraction_U": lambda: attraction_U(pot, X.x_values),
        }
        for name, call in calls.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20, (name, peak)

    def test_particle_oracle_stays_small(self, uniform_profile):
        # one dense N x N float64 temporary would take 72 MB at N = 3000
        n = 3000
        sys_ = ParticleSystem(uniform_state(-1.0, 2.0, n).x_values)
        exps = Exponents(1.5, 1.3)
        calls = {
            "particle_rhs": lambda: particle_rhs(sys_, uniform_profile, exps),
            "discrete_energy": lambda: discrete_energy(sys_, uniform_profile,
                                                       exps),
        }
        for name, call in calls.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20, (name, peak)

    def test_exact_datum_sums_stay_small(self, rng):
        # one unblocked n x (K + 1) float64 array would take 160 MB here
        n, k = 10**4, 2000
        prof = ReferenceProfile(np.linspace(0.0, 1.0, k + 1),
                                rng.uniform(0.5, 1.5, k))
        X = uniform_state(-1.0, 2.0, n)
        pot = AttractionPotential(prof, 1.5)
        calls = {
            "energy": lambda: energy(X, prof, Exponents(1.5, 1.0)),
            "attraction_U": lambda: attraction_U(pot, X.x_values),
            "self_energy_constant": lambda: self_energy_constant(prof, 1.5),
        }
        for name, call in calls.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20, (name, peak)
