import warnings

import numpy as np
import pytest

from arflow import (
    AttractionPotential,
    Exponents,
    InverseCDF,
    ReferenceProfile,
    discrete_energy,
    energy,
    particle_rhs,
    rhs,
)
from arflow.kernels import _datum_conv
from arflow.particles import _psi, _psi_prime, _row_sums
from conftest import NARROW_DATUMS, decimal_datum_terms, decimal_inside_terms


class TestDiscreteEnergy:
    def test_single_particle(self, uniform_profile):
        # int_0^1 (2 - y)^1.5 dy = (2^2.5 - 1) / 2.5
        sys_ = InverseCDF([2.0])
        e = discrete_energy(sys_, uniform_profile, Exponents(1.5, 1.5))
        assert e == pytest.approx((2.0**2.5 - 1.0) / 2.5, abs=1e-12)

    def test_matches_continuum_energy(self, gap_profile, rng):
        n = 120
        x = np.sort(rng.uniform(-1.0, 4.0, n))
        for exps in (Exponents(1.7, 1.3), Exponents(2.0, 2.0)):
            e_n = discrete_energy(InverseCDF(x), gap_profile, exps)
            e_c = energy(InverseCDF(x), gap_profile, exps)
            assert abs(e_n - e_c) <= 1e-12

    def test_two_particle_repulsion(self):
        # omega uniform, mass 1, symmetric about the pair midpoint
        prof = ReferenceProfile([-0.5, 0.5], [1.0])
        d = 0.6
        sys_ = InverseCDF([-d / 2.0, d / 2.0])
        e = discrete_energy(sys_, prof, Exponents(1.5, 1.5))
        attr = np.mean(_datum_conv(prof, 1.5, sys_.x_values))
        assert e - attr == pytest.approx(-(d**1.5) / 4.0, abs=1e-12)


class TestParticleRhs:
    def test_rejects_qr1(self, uniform_profile):
        with pytest.raises(ValueError):
            particle_rhs(InverseCDF([0.0, 1.0]), uniform_profile,
                         Exponents(1.5, 1.0))

    def test_finite_difference_gradient(self, uniform_profile):
        p = np.array([-0.8, 0.1, 0.4, 1.3])
        exps = Exponents(1.8, 1.6)
        v = particle_rhs(InverseCDF(p), uniform_profile, exps)
        h = 1e-6
        for i in range(p.size):
            up = p.copy()
            dn = p.copy()
            up[i] += h
            dn[i] -= h
            e_up = discrete_energy(InverseCDF(np.sort(up)), uniform_profile,
                                   exps)
            e_dn = discrete_energy(InverseCDF(np.sort(dn)), uniform_profile,
                                   exps)
            grad = (e_up - e_dn) / (2.0 * h)
            assert -p.size * grad == pytest.approx(v[i], abs=1e-6)

    def test_antisymmetric_configuration(self):
        prof = ReferenceProfile([-1.0, 1.0], [0.5])
        p = np.array([-0.7, 0.7])
        v = particle_rhs(InverseCDF(p), prof, Exponents(1.6, 1.4))
        assert v[0] == pytest.approx(-v[1], abs=1e-10)


class TestExactOracle:
    PAIRS = [(1.2, 1.2), (1.7, 1.3), (2.0, 1.5)]

    @pytest.mark.parametrize("name", ["uniform_profile", "gap_profile",
                                      "dense2_profile"])
    @pytest.mark.parametrize("q_a, q_r", PAIRS)
    def test_matches_continuum(self, request, rng, name, q_a, q_r):
        prof = request.getfixturevalue(name)
        n = 300
        exps = Exponents(q_a, q_r)
        pot = AttractionPotential(prof, q_a)
        for _ in range(3):
            x = np.sort(prof.com() + rng.uniform(-2.0, 3.0, n))
            X = InverseCDF(x)
            sys_ = InverseCDF(x)
            assert np.max(np.abs(rhs(X, pot, exps)
                                 - particle_rhs(sys_, prof, exps))) <= 1e-12
            assert abs(energy(X, prof, exps)
                       - discrete_energy(sys_, prof, exps)) <= 1e-12


class TestBlockedOracle:
    @pytest.mark.parametrize("q_a, q_r", [(1.3, 1.3), (2.0, 1.3), (2.0, 2.0)])
    def test_matches_literal_dense(self, rng, q_a, q_r):
        # N = 1000 is not a multiple of the 65 rows per block
        n = 1000
        p = np.sort(rng.uniform(-1.0, 4.0, n))
        p[10:13] = p[10]  # coincident particles: sgn(0) = 0
        # a weighted sum, as each datum piece is weighted by its density
        y = np.sort(rng.uniform(0.0, 3.0, 300))
        w = rng.uniform(0.5, 1.5, y.size)
        for ys, ws, q in ((p, None, q_r), (y, w, q_a)):
            d = p[:, None] - ys
            rows = {
                _psi: np.abs(d) ** q,
                _psi_prime: q * np.sign(d) * np.abs(d) ** (q - 1.0),
            }
            for kernel, dense in rows.items():
                if ws is not None:
                    dense = ws * dense
                got = _row_sums(p, ys, ws, q, kernel)
                assert got.tobytes() == np.sum(dense, axis=1).tobytes()


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
        p = np.sort(np.linspace(-1.0, 2.0, n))

        def f(q):
            order = np.argsort(q, kind="stable")
            v = np.empty_like(q)
            v[order] = particle_rhs(InverseCDF(q[order]), uniform_profile,
                                    exps)
            return v

        energies = [discrete_energy(InverseCDF(p), uniform_profile, exps)]
        for _ in range(200):
            p = self._rk4(p, 0.02, f)
            assert np.all(np.diff(p) >= 0)
            energies.append(discrete_energy(InverseCDF(p), uniform_profile,
                                            exps))
        assert np.all(np.diff(energies) <= 1e-10)


class TestNarrowDatum:
    """The oracle's own datum terms against a 50-digit reference.

    A one-particle state feels no repulsion, so its energy is psi_a * omega
    and its velocity -U at the particle.
    """

    @pytest.mark.parametrize("name", list(NARROW_DATUMS))
    def test_within_four_ulp_per_piece(self, name):
        x, u_ref, conv_ref = decimal_datum_terms(name, 1.5)
        prof = ReferenceProfile(*NARROW_DATUMS[name])
        exps = Exponents(1.5, 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = [-particle_rhs(InverseCDF([v]), prof, exps)[0] for v in x]
            conv = [discrete_energy(InverseCDF([v]), prof, exps) for v in x]
        for got, ref in ((u, u_ref), (conv, conv_ref)):
            # each piece's term rounds on its own
            ulp = np.spacing(np.max(np.abs(ref))) * np.count_nonzero(
                prof.densities)
            assert np.max(np.abs(np.array(got) - ref)) <= 4 * ulp

    @pytest.mark.parametrize("name", list(NARROW_DATUMS))
    def test_inside_pieces(self, name):
        # on, inside and one ulp off each piece's ends, where the inside
        # branch of the energy's odd primitive takes over at |c| < h
        x, refs = decimal_inside_terms(name, 1.5)
        prof = ReferenceProfile(*NARROW_DATUMS[name])
        exps = Exponents(1.5, 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = [-particle_rhs(InverseCDF([v]), prof, exps)[0] for v in x]
            conv = [discrete_energy(InverseCDF([v]), prof, exps) for v in x]
        for got, ref in ((u, refs[0]), (conv, refs[1])):
            ulp = np.spacing(np.max(np.abs(ref))) * np.count_nonzero(
                prof.densities)
            assert np.max(np.abs(np.array(got) - ref)) <= 4 * ulp

    def test_piece_whose_half_width_rounds_to_zero(self):
        # w = 5e-324 halves to 0, so the chain runs in doubled lengths: a
        # node on that piece's end divides by no 0
        prof = ReferenceProfile([0.0, 5e-324, 1.0], [1e300, 1.0])
        exps = Exponents(1.5, 1.5)
        x = np.array([-1.0, 0.0, 5e-324, 0.5, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = [-particle_rhs(InverseCDF([v]), prof, exps)[0] for v in x]
            conv = [discrete_energy(InverseCDF([v]), prof, exps) for v in x]
            u_ref = AttractionPotential(prof, 1.5)(x)
            conv_ref = _datum_conv(prof, 1.5, x)
        assert np.allclose(u, u_ref, rtol=1e-15, atol=1e-15)
        assert np.allclose(conv, conv_ref, rtol=1e-15, atol=0.0)
