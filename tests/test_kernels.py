import tracemalloc
import warnings

import numpy as np
import pytest

from arflow import (
    AttractionPotential,
    Exponents,
    InverseCDF,
    MassQuadrature,
    ReferenceProfile,
    attraction_U,
    discrete_energy,
    energy,
    particle_rhs,
    uniform_state,
)
from arflow.dynamics import repulsion_direct
from arflow.energetics import self_energy_constant
from arflow.kernels import _BLOCK_ELEMS, _datum_atoms, _datum_conv, \
    _datum_sum, _differences, _half_triangle, _pow, _scratch_blocks
from conftest import psi, psi_double_prime, psi_prime


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

    @pytest.mark.parametrize("q_a", [1.2, 1.5, 1.8, 2.0, 1.0])
    def test_energy_order_against_quadrature(self, q_a):
        X = InverseCDF(np.concatenate([np.linspace(-2.0, -0.5, 32),
                                       np.linspace(1.1, 1.4, 32)]))
        exps = Exponents(q_a, min(q_a, 1.1))
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


class TestDatumSum:
    """Each level of the datum sum against a dense np.power reference."""

    # the (level)-th primitive of |d|^q, and q sgn(d) |d|^{q-1} at -1
    KERNELS = {
        -1: lambda d, q: q * np.sign(d) * np.abs(d) ** (q - 1.0),
        0: lambda d, q: np.abs(d) ** q,
        1: lambda d, q: np.sign(d) * np.abs(d) ** (q + 1.0) / (q + 1.0),
        2: lambda d, q: np.abs(d) ** (q + 2.0) / ((q + 1.0) * (q + 2.0)),
        3: lambda d, q: (np.sign(d) * np.abs(d) ** (q + 3.0)
                         / ((q + 1.0) * (q + 2.0) * (q + 3.0))),
    }

    @pytest.mark.parametrize("level", [-1, 0, 1, 2])
    @pytest.mark.parametrize("exact", [True, False],
                             ids=["breakpoints", "quadrature"])
    @pytest.mark.parametrize("q", [1.3, 1.5, 2.0])
    def test_matches_dense_reference(self, gap_profile, rng, q, exact,
                                     level):
        quad = None if exact else MassQuadrature.midpoint(gap_profile, 300)
        y, c, k = _datum_atoms(gap_profile, quad)
        # the state meets every atom node in a tie, and far from the datum
        x = np.concatenate([rng.uniform(-2.0, 5.0, 700), y[::7], [1e3]])
        terms = self.KERNELS[level + k](x[:, None] - y, q) * c
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _datum_sum(x, q, (y, c, k), level)
        scale = np.sum(np.abs(terms), axis=1)
        assert np.all(np.abs(got - np.sum(terms, axis=1)) <= 1e-13 * scale)

    def test_datum_conv_at_zero(self, uniform_profile):
        # int |y|^q d omega, the datum term of both moment certificates
        at_zero = np.zeros(1)
        assert _datum_conv(uniform_profile, 2.0, at_zero)[0] == \
            pytest.approx(1.0 / 3.0, abs=1e-12)
        sym = ReferenceProfile([-1.0, 1.0], [0.5])
        assert _datum_conv(sym, 1.0, at_zero)[0] == \
            pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_level_is_primitive_of_the_one_below(self, gap_profile, level):
        atoms = _datum_atoms(gap_profile)
        x = np.array([-1.5, 0.5, 1.5, 2.5, 4.0])
        h = 1e-5
        fd = (_datum_sum(x + h, 1.5, atoms, level)
              - _datum_sum(x - h, 1.5, atoms, level)) / (2.0 * h)
        assert np.allclose(fd, _datum_sum(x, 1.5, atoms, level - 1),
                           rtol=1e-8, atol=1e-8)


class TestPairSumFarFromOrigin:
    """The energy's pair term far from the origin.

    It comes from the repulsion term by Euler's identity, about the middle
    node, so it takes only differences of nodes, which are exact on a
    state and its translate by c.  The datum term, translated with the
    state, is taken apart.
    """

    @pytest.mark.parametrize("c", [1e4, 1e6, 1e8])
    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_translation(self, rng, q, c):
        far = np.sort(rng.uniform(-2.0, 3.0, 200)) + c
        near = far - c  # exact, so far is near translated by c
        pairs = []
        for x, b in ((near, 0.0), (far, c)):
            prof = ReferenceProfile([b, b + 1.0], [1.0])
            attr = np.mean(_datum_conv(prof, 2.0, x))
            pairs.append(attr - energy(InverseCDF(x), prof, Exponents(2.0, q)))
        a, b = pairs
        assert abs(b - a) <= 1.6e-15 * abs(a)


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
        sys_ = InverseCDF(uniform_state(-1.0, 2.0, n).x_values)
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


class TestDifferences:
    """The BLAS difference writer against numpy's broadcast subtraction."""

    @staticmethod
    def sample(rng, n, offset):
        x = np.sort(offset + rng.uniform(-1.0, 1.0, n))
        x[5:9] = x[5]  # ties
        return x

    @pytest.mark.parametrize("offset", [0.0, 1e6, -1e6])
    def test_rows_minus_columns(self, rng, offset):
        a = self.sample(rng, 1000, offset)
        b = np.concatenate([a[::7], self.sample(rng, 37, -offset)])
        assert a.size % (_BLOCK_ELEMS // b.size) != 0  # a short last block
        write = _differences(a, b)
        seen = 0
        for rows, d in _scratch_blocks(a.size, b.size):
            write(rows, d)
            assert d.tobytes() == np.subtract(a[rows, None], b).tobytes()
            seen += rows.stop - rows.start
        assert seen == a.size

    @pytest.mark.parametrize("offset", [0.0, 1e6, -1e6])
    def test_columns_minus_rows(self, rng, offset):
        # the half triangle's x_j - x_i, written as (-x_i) - (-x_j)
        x = self.sample(rng, 1000, offset)
        assert x.size % (_BLOCK_ELEMS // x.size) != 0  # a short last block
        write = _differences(-x, -x)
        for rows, d in _scratch_blocks(x.size, x.size, upper=True):
            write(rows, d, rows.start)
            ref = np.subtract(x[rows.start:], x[rows, None])
            assert d.tobytes() == ref.tobytes()

    def test_zero_is_positive(self):
        # the one departure from the subtraction: -0.0 - 0.0 is -0.0
        a = np.array([-0.0, 0.0, 3.0])
        b = np.array([0.0, -0.0, 3.0])
        d = _differences(a, b)(slice(0, 3), np.empty((3, 3)))
        assert np.all(d[:2, :2] == 0.0)
        assert not np.any(np.signbit(d[:2, :2]))
        assert d[2, 2] == 0.0 and not np.signbit(d[2, 2])


class TestPow:
    @pytest.mark.parametrize("p", [0.1, 0.4, 0.9, 1.5, 2.5])
    def test_against_np_power(self, p):
        d = np.geomspace(1e-12, 1e6, 20001)
        ref = np.power(d, p)
        ulps = np.abs(_pow(d.copy(), p) - ref) / np.spacing(ref)
        # exp amplifies the rounding of p ln d: 1 ulp per unit of |p ln d|
        scale = np.abs(p * np.log(d))
        assert np.all(ulps <= 2.0 * (1.0 + scale))
        assert np.all(ulps[scale <= 1.0] <= 4.0)

    @pytest.mark.parametrize("p", [0.1, 0.4, 0.9, 1.5, 2.5])
    def test_zeros(self, p):
        d = np.array([0.0, 1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(divide="ignore"):
                out = _pow(d, p)
        assert out.tolist() == [0.0, 1.0, 0.0]

    def test_ties_raise_no_warning(self, gap_profile):
        # tied nodes, nodes on a breakpoint and nodes on a quadrature node
        # take ln 0 inside the sums
        quad = MassQuadrature.midpoint(gap_profile, 8)
        x = np.sort(np.concatenate([[-1.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0],
                                    gap_profile.quantile(quad.nodes[:3])]))
        X = InverseCDF(x)
        state = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = repulsion_direct(x, 1.5)
            u = attraction_U(AttractionPotential(gap_profile, 1.5), x)
            e = energy(X, gap_profile, Exponents(1.5, 1.5))
            e_quad = energy(X, gap_profile, Exponents(1.5, 1.5), quad)
            uq = attraction_U(AttractionPotential(gap_profile, 1.5, quad),
                              gap_profile.quantile(quad.nodes))
        assert np.geterr() == state
        assert np.all(np.isfinite(np.concatenate([v, u, uq, [e, e_quad]])))

    def test_half_triangle_matches_np_power(self, rng):
        x = np.sort(rng.uniform(-1.0, 4.0, 700))
        x[100:104] = x[100]
        d = x[None, :] - x[:, None]
        ref = np.where(d > 0, np.abs(d) ** 0.4, 0.0)
        for rows, block in _half_triangle(x, 0.4):
            expect = ref[rows, rows.start:]
            assert np.allclose(block, expect, rtol=1e-14, atol=0.0)
            assert np.array_equal(block == 0.0, expect == 0.0)
