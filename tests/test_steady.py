import numpy as np
import pytest

from arflow import (
    AttractionPotential,
    Exponents,
    InverseCDF,
    ReferenceProfile,
    energetics,
    kernels,
    sample_profile,
    steady_qr1,
    steady_residual,
    uniform_state,
)
from arflow.measures import midpoint_grid
from arflow.steady import invert_increasing, shifted_profile_mlt1


class TestInvertIncreasing:
    def test_cubic(self):
        f = lambda x: x**3
        targets = np.array([-8.0, 0.0, 27.0])
        roots = invert_increasing(f, targets, -1.0, 1.0)
        assert np.allclose(roots, [-2.0, 0.0, 3.0], atol=1e-10)

    def test_bracket_expansion(self):
        f = lambda x: x + 100.0
        root = invert_increasing(f, [0.0], 0.0, 1.0)
        assert root[0] == pytest.approx(-100.0, abs=1e-10)

    def test_unreachable_roots_overflow(self):
        # asinh(x) / 1000 stays below 1 up to |x| = 1e434, far beyond the
        # 2^200 that the doublings of the bracket reach
        f = lambda x: np.arcsinh(x) / 1000.0
        with pytest.raises(OverflowError, match="bracket"):
            invert_increasing(f, [-1.0, 1.0], 0.0, 1.0)

    def test_infinite_bracket_overflows(self):
        # the halving count ceil(log2(width / tol)) has no finite value
        with pytest.raises(OverflowError):
            invert_increasing(lambda x: x, [0.0], -np.inf, np.inf)

    def test_roots_beyond_float_spacing_of_tol(self):
        # near 1e6 adjacent floats are 1.2e-10 apart, far above tol = 1e-12
        f = lambda x: x - 1e6
        roots = invert_increasing(f, [-0.5, 0.0, 0.25], 0.0, 1.0)
        assert np.allclose(roots, 1e6 + np.array([-0.5, 0.0, 0.25]),
                           rtol=0.0, atol=1e-9)

    def test_terminating_input_keeps_iterates(self):
        # the plain width-only loop, for inputs on which it terminates
        def plain(f, targets, lo, hi, tol=1e-12):
            lo_arr = np.full_like(targets, lo)
            hi_arr = np.full_like(targets, hi)
            while np.max(hi_arr - lo_arr) > tol:
                mid = 0.5 * (lo_arr + hi_arr)
                below = f(mid) < targets
                lo_arr = np.where(below, mid, lo_arr)
                hi_arr = np.where(below, hi_arr, mid)
            return 0.5 * (lo_arr + hi_arr)

        f = lambda x: x**3 + x
        targets = np.linspace(-2.0, 2.0, 9)
        assert np.array_equal(invert_increasing(f, targets, -2.0, 2.0),
                              plain(f, targets, -2.0, 2.0))


class TestSteadyQr1:
    def test_far_datum_terminates(self):
        prof = ReferenceProfile([1e6, 1e6 + 1.0], [1.0])
        ss = steady_qr1(prof, 1.5, 64)
        x = ss.Xstar.x_values
        assert np.all(np.diff(x) > 0)
        assert ss.x_lo < ss.x_zero < ss.x_hi
        assert abs(ss.x_zero - (1e6 + 0.5)) <= 1e-6

    def test_q2_uniform_recovers_datum(self, uniform_profile):
        n = 400
        ss = steady_qr1(uniform_profile, 2.0, n)
        assert ss.kind == "qa_gt_1"
        z = midpoint_grid(n)
        assert np.max(np.abs(ss.Xstar.x_values - z)) <= 1e-10
        assert ss.x_lo == pytest.approx(0.0, abs=1e-10)
        assert ss.x_zero == pytest.approx(0.5, abs=1e-10)
        assert ss.x_hi == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("breakpoints, densities", [
        ([0.0, 1.0], [1.0]),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0]),
        ([0.0, 1.0], [2.0]),
        ([1e6, 1e6 + 1.0], [1.0]),
    ], ids=["unit", "gap", "dense2", "unit-at-1e6"])
    def test_q2_closed_form_matches_bisection(self, breakpoints, densities):
        # at q_a = 2 the drift is affine and X* is explicit; bisection on
        # the same drift is the reference
        prof = ReferenceProfile(breakpoints, densities)
        n = 256
        ss = steady_qr1(prof, 2.0, n)
        assert ss.kind == "qa_gt_1"
        pot = AttractionPotential(prof, 2.0)
        lo, hi = prof.support
        target = 2.0 * midpoint_grid(n) - 1.0
        tol = 1e-12 * max(1.0, abs(prof.com()))
        x = ss.Xstar.x_values
        assert np.max(np.abs(x - invert_increasing(pot, target, lo, hi))) \
            <= tol
        edges = invert_increasing(pot, [-1.0, 0.0, 1.0], lo, hi)
        assert np.max(np.abs([ss.x_lo, ss.x_zero, ss.x_hi] - edges)) <= tol
        # X* rounds at the float spacing of com, which U scales by 2m
        u_tol = 1e-13 + 2.0 * prof.mass * np.spacing(abs(prof.com()))
        assert np.max(np.abs(pot(x) - target)) <= u_tol

    def test_q1_mass_two_window(self, dense2_profile):
        n = 200
        ss = steady_qr1(dense2_profile, 1.0, n)
        assert ss.kind == "qa_eq_1_shift"
        z = midpoint_grid(n)
        assert np.max(np.abs(ss.Xstar.x_values - (z + 0.5) / 2.0)) <= 1e-14
        assert ss.x_lo == pytest.approx(0.25, abs=1e-12)
        assert ss.x_hi == pytest.approx(0.75, abs=1e-12)
        assert ss.x_zero == pytest.approx(0.5, abs=1e-12)

    def test_q1_unit_mass_is_datum(self, uniform_profile):
        n = 100
        ss = steady_qr1(uniform_profile, 1.0, n)
        z = midpoint_grid(n)
        assert np.array_equal(ss.Xstar.x_values, uniform_profile.quantile(z))

    @pytest.mark.parametrize("densities, edge", [
        ([1.0, 0.0], "x_hi"),
        ([0.0, 1.0], "x_lo"),
    ], ids=["trailing-gap", "leading-gap"])
    def test_q1_edges_are_the_ends_of_the_mass(self, densities, edge):
        # at m = 1 the steady state is the datum, whose mass ends at 1, not
        # at the far end of the empty piece
        prof = ReferenceProfile([0.0, 1.0, 2.0], densities)
        ss = steady_qr1(prof, 1.0, 16)
        assert getattr(ss, edge) == 1.0
        assert ss.x_lo <= ss.Xstar.x_values[0] <= ss.Xstar.x_values[-1] \
            <= ss.x_hi

    def test_q2_overflowing_half_width(self):
        # a subnormal mass puts the edges com -+ 1/(2m) past the largest
        # double: refused, with no RuntimeWarning (warnings are errors here)
        prof = ReferenceProfile([0.0, 1.0], [1e-310])
        with pytest.raises(OverflowError, match="overflows"):
            steady_qr1(prof, 2.0, 16)

    def test_q1_small_mass_none(self, half_profile):
        ss = steady_qr1(half_profile, 1.0, 50)
        assert ss.kind == "none_exists"
        assert ss.Xstar is None

    def test_u_levels(self, gap_profile):
        n = 400
        for q_a in (1.5, 2.0):
            ss = steady_qr1(gap_profile, q_a, n)
            pot = AttractionPotential(gap_profile, q_a)
            assert pot(ss.x_lo) == pytest.approx(-1.0, abs=1e-10)
            assert pot(ss.x_zero) == pytest.approx(0.0, abs=1e-10)
            assert pot(ss.x_hi) == pytest.approx(1.0, abs=1e-10)
            assert ss.x_lo < ss.x_zero < ss.x_hi

    def test_one_bisection_for_edges_and_nodes(self, gap_profile,
                                               monkeypatch):
        # rebinding the module name counts every drift evaluation, as the
        # benchmark's tracer does: 2 for the bracket and ceil(log2(3e12)) =
        # 42 halvings, where inverting edges and nodes apart took 88
        calls = []
        drift = kernels.attraction_U

        def counted(pot, x):
            calls.append(np.size(x))
            return drift(pot, x)

        monkeypatch.setattr(kernels, "attraction_U", counted)
        n = 1600
        ss = steady_qr1(gap_profile, 1.5, n)
        assert len(calls) <= 50
        assert max(calls) == n + 3
        assert ss.x_lo < ss.Xstar.x_values[0] < ss.x_zero \
            < ss.Xstar.x_values[-1] < ss.x_hi

    def test_strictly_increasing_and_median(self, uniform_profile):
        n = 400
        ss = steady_qr1(uniform_profile, 1.7, n)
        assert np.all(np.diff(ss.Xstar.x_values) > 0)
        i_med = n // 2
        assert abs(ss.Xstar.x_values[i_med] - ss.x_zero) <= 2.0 / n

    def test_density_reconstruction(self, uniform_profile):
        # reconstructed steady density matches (1/2) dU/dx at interior nodes
        n = 400
        q_a = 1.5
        ss = steady_qr1(uniform_profile, q_a, n)
        pot = AttractionPotential(uniform_profile, q_a)
        x = ss.Xstar.x_values
        dx = np.diff(x)
        dens = (1.0 / n) / dx
        du = np.diff(pot(x))
        half_slope = 0.5 * du / dx
        rel = np.abs(dens - half_slope) / half_slope
        assert np.max(rel[5:-5]) <= 5e-2


class TestShiftedProfile:
    def test_half_mass_window(self, half_profile):
        n = 200
        sp = shifted_profile_mlt1(half_profile, n)
        assert sp.window == (0.25, 0.75)
        z = midpoint_grid(n)
        inside = sp.escape == 0
        assert np.allclose(sp.values[inside], 2.0 * (z[inside] - 0.25), atol=1e-12)
        assert np.all(np.isnan(sp.values[~inside]))

    def test_escape_signs(self, half_profile):
        n = 200
        sp = shifted_profile_mlt1(half_profile, n)
        z = midpoint_grid(n)
        assert np.all(sp.escape[z < 0.25] == -1)
        assert np.all(sp.escape[z > 0.75] == 1)

    def test_node_at_window_top_is_the_end_of_the_mass(self):
        # at n = 2 the node z = 3/4 is the window's top, where the shifted
        # level reaches the mass 1/2, which ends at x = 1
        sp = shifted_profile_mlt1(ReferenceProfile([0.0, 1.0], [0.5]), 2)
        assert sp.window == (0.25, 0.75)
        assert sp.values.tolist() == [0.0, 1.0]
        assert sp.escape.tolist() == [0, 0]

    def test_requires_small_mass(self, dense2_profile):
        with pytest.raises(ValueError):
            shifted_profile_mlt1(dense2_profile, 50)


class TestSteadyResidual:
    def test_constructed_state(self, dense2_profile):
        n = 300
        for q_a in (1.0, 1.5, 2.0):
            ss = steady_qr1(dense2_profile, q_a, n)
            res = steady_residual(ss.Xstar, dense2_profile, Exponents(q_a, 1.0))
            assert res <= 5.0 / n

    def test_far_from_equilibrium(self, uniform_profile):
        n = 64
        X = InverseCDF(np.full(n, 3.0))
        pot = AttractionPotential(uniform_profile, 2.0)
        res = steady_residual(X, uniform_profile, Exponents(2.0, 1.0))
        z1 = 0.5 / n
        assert res >= abs(2.0 * z1 - 1.0 - pot(3.0)) - 1e-12
        assert res > 0.0

    def test_q2_balanced_translate(self, uniform_profile):
        # m = 1, com(mu) = com(omega): the rhs vanishes identically
        n = 80
        X = sample_profile(uniform_profile, n)
        res = steady_residual(X, uniform_profile, Exponents(2.0, 2.0))
        assert res <= 1e-12
        shifted = ReferenceProfile([2.0, 3.0], [1.0])
        X2 = uniform_state(1.0, 4.0, n)
        res2 = steady_residual(X2, shifted, Exponents(2.0, 2.0))
        assert res2 <= 1e-12

    def test_velocity_without_energy(self, gap_profile, monkeypatch):
        # max|V| of energy_and_velocity bit for bit, with no datum sum for
        # the energy beside it
        n = 64
        cases = [(X, Exponents(q_a, q_r))
                 for X in (steady_qr1(gap_profile, 1.5, n).Xstar,
                           uniform_state(-0.5, 3.5, n))
                 for q_a, q_r in [(1.0, 1.0), (1.5, 1.0), (2.0, 1.5),
                                  (2.0, 2.0)]]
        expected = [float(np.max(np.abs(
            energetics.energy_and_velocity(X, gap_profile, exps)[1])))
            for X, exps in cases]
        calls = []
        conv = energetics._datum_conv
        monkeypatch.setattr(energetics, "_datum_conv",
                            lambda *args: calls.append(args) or conv(*args))
        assert [steady_residual(X, gap_profile, exps)
                for X, exps in cases] == expected
        assert calls == []
