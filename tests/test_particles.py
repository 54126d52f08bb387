import numpy as np
import pytest

from arflow import (
    AttractionPotential,
    Exponents,
    InverseCDF,
    MassQuadrature,
    ParticleSystem,
    ReferenceProfile,
    discrete_energy,
    energy,
    particle_rhs,
    rhs,
)
from conftest import convolve_kernel, psi


class TestParticleSystem:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParticleSystem([1.0, 0.0])
        with pytest.raises(ValueError):
            ParticleSystem([0.0, np.inf])
        with pytest.raises(ValueError):
            ParticleSystem([])
        assert ParticleSystem([0.0, 0.0, 1.0]).N == 3


class TestDiscreteEnergy:
    def test_single_particle(self, uniform_profile):
        sys_ = ParticleSystem([2.0])
        quad = MassQuadrature.midpoint(uniform_profile, 200)
        e = discrete_energy(sys_, uniform_profile, Exponents(1.5, 1.5), quad)
        attr = convolve_kernel(
            uniform_profile, quad, lambda u: psi(1.5, u), 2.0
        )
        assert e == pytest.approx(attr, abs=1e-12)

    def test_matches_continuum_energy(self, gap_profile, rng):
        n = 120
        x = np.sort(rng.uniform(-1.0, 4.0, n))
        quad = MassQuadrature.midpoint(gap_profile, n)
        for exps in (Exponents(1.7, 1.3), Exponents(2.0, 2.0)):
            e_n = discrete_energy(ParticleSystem(x), gap_profile, exps, quad)
            e_c = energy(InverseCDF(x), gap_profile, exps, quad)
            assert abs(e_n - e_c) <= 1e-12

    def test_two_particle_repulsion(self):
        # omega uniform, mass 1, symmetric about the pair midpoint
        prof = ReferenceProfile([-0.5, 0.5], [1.0])
        d = 0.6
        sys_ = ParticleSystem([-d / 2.0, d / 2.0])
        exps = Exponents(1.5, 1.5)
        quad = MassQuadrature.midpoint(prof, 400)
        e = discrete_energy(sys_, prof, exps, quad)
        attr = np.mean([
            convolve_kernel(prof, quad, lambda u: psi(1.5, u), p)
            for p in sys_.positions
        ])
        assert e - attr == pytest.approx(-(d**1.5) / 4.0, abs=1e-12)


class TestParticleRhs:
    def test_oracle_identity(self, uniform_profile, rng):
        n = 200
        quad = MassQuadrature.midpoint(uniform_profile, n)
        exps = Exponents(1.7, 1.3)
        pot = AttractionPotential(uniform_profile, exps.q_a, quad)
        for _ in range(5):
            x = np.sort(rng.uniform(-2.0, 3.0, n))
            v_dyn = rhs(InverseCDF(x), pot, exps)
            v_par = particle_rhs(ParticleSystem(x), uniform_profile, exps, quad)
            assert np.max(np.abs(v_dyn - v_par)) <= 1e-12

    def test_rejects_qr1(self, uniform_profile):
        with pytest.raises(ValueError):
            particle_rhs(ParticleSystem([0.0, 1.0]), uniform_profile,
                         Exponents(1.5, 1.0))

    def test_finite_difference_gradient(self, uniform_profile):
        p = np.array([-0.8, 0.1, 0.4, 1.3])
        exps = Exponents(1.8, 1.6)
        quad = MassQuadrature.midpoint(uniform_profile, 300)
        v = particle_rhs(ParticleSystem(p), uniform_profile, exps, quad)
        h = 1e-6
        for i in range(p.size):
            up = p.copy()
            dn = p.copy()
            up[i] += h
            dn[i] -= h
            e_up = discrete_energy(ParticleSystem(np.sort(up)),
                                   uniform_profile, exps, quad)
            e_dn = discrete_energy(ParticleSystem(np.sort(dn)),
                                   uniform_profile, exps, quad)
            grad = (e_up - e_dn) / (2.0 * h)
            assert -p.size * grad == pytest.approx(v[i], abs=1e-6)

    def test_antisymmetric_configuration(self):
        prof = ReferenceProfile([-1.0, 1.0], [0.5])
        p = np.array([-0.7, 0.7])
        quad = MassQuadrature.midpoint(prof, 500)
        v = particle_rhs(ParticleSystem(p), prof, Exponents(1.6, 1.4), quad)
        assert v[0] == pytest.approx(-v[1], abs=1e-10)


class TestExactOracle:
    PAIRS = [(1.2, 1.2), (1.7, 1.3), (2.0, 1.5)]

    @pytest.mark.parametrize("name", ["gap_profile", "dense2_profile"])
    @pytest.mark.parametrize("q_a, q_r", PAIRS)
    def test_matches_continuum(self, request, rng, name, q_a, q_r):
        prof = request.getfixturevalue(name)
        n = 300
        exps = Exponents(q_a, q_r)
        pot = AttractionPotential(prof, q_a)
        for _ in range(3):
            x = np.sort(prof.com() + rng.uniform(-2.0, 3.0, n))
            X = InverseCDF(x)
            sys_ = ParticleSystem(x)
            assert np.max(np.abs(rhs(X, pot, exps)
                                 - particle_rhs(sys_, prof, exps))) <= 1e-12
            assert abs(energy(X, prof, exps)
                       - discrete_energy(sys_, prof, exps)) <= 1e-12

    @pytest.mark.parametrize("name", ["gap_profile", "dense2_profile"])
    @pytest.mark.parametrize("q_a, q_r", PAIRS)
    def test_quadrature_converges_to_exact(self, request, rng, name, q_a, q_r):
        prof = request.getfixturevalue(name)
        exps = Exponents(q_a, q_r)
        sys_ = ParticleSystem(np.sort(prof.com() + rng.uniform(-2.0, 3.0, 60)))
        v = particle_rhs(sys_, prof, exps)
        e = discrete_energy(sys_, prof, exps)
        err_v, err_e = [], []
        for m in (100, 200, 400, 800):
            quad = MassQuadrature.midpoint(prof, m)
            err_v.append(np.max(np.abs(
                particle_rhs(sys_, prof, exps, quad) - v)))
            err_e.append(abs(discrete_energy(sys_, prof, exps, quad) - e))
        assert np.min(np.log2(np.divide(err_e[:-1], err_e[1:]))) >= 0.9
        if q_a == 2.0:
            # the midpoint rule integrates the linear q_a = 2 drift exactly
            assert max(err_v) <= 1e-12
        else:
            assert np.min(np.log2(np.divide(err_v[:-1], err_v[1:]))) >= 0.9


class TestBlockedOracle:
    @pytest.mark.parametrize("q_a, q_r", [(1.3, 1.3), (2.0, 1.3), (2.0, 2.0)])
    def test_matches_literal_dense(self, gap_profile, rng, q_a, q_r):
        # N = 1000 is not a multiple of the 65 rows per block
        n = 1000
        p = np.sort(rng.uniform(-1.0, 4.0, n))
        p[10:13] = p[10]  # coincident particles: sgn(0) = 0
        quad = MassQuadrature.midpoint(gap_profile, n)
        y = gap_profile.quantile(quad.nodes)
        w = quad.weights
        d = p[:, None] - p[None, :]
        dy = p[:, None] - y
        rhs_dense = (
            np.sum(q_r * np.sign(d) * np.abs(d) ** (q_r - 1.0), axis=1) / n
            - np.sum(w * (q_a * np.sign(dy) * np.abs(dy) ** (q_a - 1.0)),
                     axis=1)
        )
        energy_dense = (
            -np.sum(np.abs(d) ** q_r) / (2.0 * n * n)
            + np.sum(np.sum(w * np.abs(dy) ** q_a, axis=1)) / n
        )
        sys_ = ParticleSystem(p)
        exps = Exponents(q_a, q_r)
        v = particle_rhs(sys_, gap_profile, exps, quad)
        assert v.tobytes() == rhs_dense.tobytes()
        e = discrete_energy(sys_, gap_profile, exps, quad)
        assert abs(e - energy_dense) <= 1e-12


class TestParticleFlow:
    def _rk4(self, p, dt, f):
        k1 = f(p)
        k2 = f(p + 0.5 * dt * k1)
        k3 = f(p + 0.5 * dt * k2)
        k4 = f(p + dt * k3)
        return p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def test_energy_decreases_and_order_preserved(self, uniform_profile):
        exps = Exponents(1.8, 1.4)
        n = 40
        quad = MassQuadrature.midpoint(uniform_profile, n)
        p = np.sort(np.linspace(-1.0, 2.0, n))

        def f(q):
            order = np.argsort(q, kind="stable")
            v = np.empty_like(q)
            v[order] = particle_rhs(
                ParticleSystem(q[order]), uniform_profile, exps, quad
            )
            return v

        energies = [discrete_energy(ParticleSystem(p), uniform_profile,
                                    exps, quad)]
        for _ in range(200):
            p = self._rk4(p, 0.02, f)
            assert np.all(np.diff(p) >= 0)
            energies.append(discrete_energy(ParticleSystem(p),
                                            uniform_profile, exps, quad))
        assert np.all(np.diff(energies) <= 1e-10)
