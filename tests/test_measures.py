import csv
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from arflow import (
    InverseCDF,
    MassQuadrature,
    ReferenceProfile,
    moment,
    sample_profile,
    uniform_state,
    wasserstein,
)
from arflow.measures import _CSV_CHUNK, midpoint_grid
from conftest import convolve_kernel


def csv_writer_bytes(a):
    """The ``csv.writer`` rendering of a state with 17-digit fields."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["z", "x"])
    for z, v in zip(a.z_grid, a.x_values):
        writer.writerow([f"{z:.17g}", f"{v:.17g}"])
    return expected.getvalue().encode()


class TestCdfEval:
    def test_uniform_midpoint(self, uniform_profile):
        assert uniform_profile.cdf(0.5) == 0.5

    def test_left_of_support(self, gap_profile):
        assert gap_profile.cdf(-1.0) == 0.0

    def test_density_two(self, dense2_profile):
        # hand integration of the constant density
        assert dense2_profile.cdf(0.75) == pytest.approx(1.5, abs=1e-15)

    def test_right_of_support(self, dense2_profile):
        assert dense2_profile.cdf(5.0) == 2.0

    def test_gap_plateau(self, gap_profile):
        assert gap_profile.cdf(1.5) == 1.0

    def test_vectorized_and_monotone(self, gap_profile):
        x = np.linspace(-1.0, 4.0, 301)
        g = gap_profile.cdf(x)
        assert g.shape == x.shape
        assert np.all(np.diff(g) >= 0)


class TestPseudoInverseEval:
    def test_uniform_identity(self, uniform_profile):
        assert uniform_profile.quantile(0.25) == 0.25

    def test_gap_right_continuity(self, gap_profile):
        # infimum over the gap picks the left edge of the next mass
        assert gap_profile.quantile(1.0) == 2.0

    def test_density_two(self, dense2_profile):
        assert dense2_profile.quantile(1.5) == 0.75

    def test_domain_errors(self, uniform_profile):
        with pytest.raises(ValueError):
            uniform_profile.quantile(-0.1)
        with pytest.raises(ValueError):
            uniform_profile.quantile(1.0)

    def test_one_sided_bounds(self, gap_profile):
        # (Y o G)(x) >= x and (G o Y)(zeta) >= zeta
        x = np.linspace(-0.5, 3.5, 157)
        x = x[gap_profile.cdf(x) < gap_profile.mass]
        assert np.all(
            gap_profile.quantile(gap_profile.cdf(x)) >= x - 1e-12
        )
        zeta = np.linspace(0.0, gap_profile.mass, 200, endpoint=False)
        assert np.all(
            gap_profile.cdf(gap_profile.quantile(zeta)) >= zeta - 1e-12
        )


class TestWasserstein:
    def test_translation(self):
        a = uniform_state(0.0, 1.0, 64)
        b = InverseCDF(a.x_values + 0.3)
        for p in (1.0, 2.0, 3.5, np.inf):
            assert wasserstein(a, b, p) == pytest.approx(0.3, abs=1e-12)

    def test_identity(self):
        a = uniform_state(-1.0, 2.0, 32)
        for p in (1.0, 2.0, np.inf):
            assert wasserstein(a, a, p) == 0.0

    def test_linear_pair(self):
        n = 1000
        z = midpoint_grid(n)
        a = InverseCDF(z)
        b = InverseCDF(2.0 * z)
        assert wasserstein(a, b, 2.0) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-3)

    def test_errors(self):
        a = uniform_state(0.0, 1.0, 16)
        b = uniform_state(0.0, 1.0, 17)
        with pytest.raises(ValueError):
            wasserstein(a, b, 2.0)
        with pytest.raises(ValueError):
            wasserstein(a, a, 0.5)

    def test_metric_axioms(self, rng):
        n = 40
        states = [
            InverseCDF(np.sort(rng.uniform(-2.0, 2.0, n))) for _ in range(3)
        ]
        a, b, c = states
        for p in (1.0, 2.0, np.inf):
            assert wasserstein(a, b, p) == wasserstein(b, a, p)
            assert (
                wasserstein(a, c, p)
                <= wasserstein(a, b, p) + wasserstein(b, c, p) + 1e-12
            )


class TestMoment:
    def test_zero_state(self):
        a = InverseCDF(np.zeros(8))
        assert moment(a, 1.0) == 0.0
        assert moment(a, 1.7) == 0.0

    def test_uniform_second_moment(self):
        a = uniform_state(0.0, 1.0, 1000)
        assert moment(a, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_point_mass(self):
        a = InverseCDF(np.full(16, -2.5))
        assert moment(a, 1.0) == 2.5

    def test_r_positive(self):
        a = uniform_state(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            moment(a, 0.0)

    def test_matches_density_integration(self, dense2_profile):
        n = 2000
        X = sample_profile(dense2_profile, n)
        for r in (1.0, 1.5, 2.0):
            # density 2 on [0, 1], normalised: int_0^1 x^r dx
            exact = 1.0 / (r + 1.0)
            assert moment(X, r) == pytest.approx(exact, abs=5.0 / n)


class TestConvolveKernel:
    def test_constant(self, dense2_profile):
        quad = MassQuadrature.midpoint(dense2_profile, 100)
        val = convolve_kernel(dense2_profile, quad, lambda u: np.ones_like(u), 3.0)
        assert val == pytest.approx(dense2_profile.mass, abs=1e-12)

    def test_linear(self, uniform_profile):
        quad = MassQuadrature.midpoint(uniform_profile, 200)
        val = convolve_kernel(uniform_profile, quad, lambda u: u, 1.0)
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_odd_at_center(self, uniform_profile):
        quad = MassQuadrature.midpoint(uniform_profile, 128)
        val = convolve_kernel(uniform_profile, quad, lambda u: u**3, 0.5)
        assert abs(val) <= 1e-10


class TestInverseCDF:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            InverseCDF([0.0, 1.0, 0.5])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            InverseCDF([0.0, np.nan])
        with pytest.raises(ValueError):
            InverseCDF([0.0, np.inf])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            InverseCDF([])

    def test_immutable(self):
        a = uniform_state(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            a.x_values[0] = -1.0

    def test_min_slope(self):
        a = uniform_state(0.0, 1.0, 10)
        assert a.min_slope() == pytest.approx(1.0, abs=1e-12)
        b = InverseCDF([0.0, 0.0, 1.0])
        assert b.min_slope() == 0.0

    def test_z_grid(self):
        a = uniform_state(0.0, 1.0, 4)
        assert np.allclose(a.z_grid, [0.125, 0.375, 0.625, 0.875])

    def test_csv_round_trip(self, tmp_path, rng):
        a = InverseCDF(np.sort(rng.uniform(-3.0, 3.0, 33)))
        path = tmp_path / "state.csv"
        a.to_csv(path)
        b = InverseCDF.from_csv(path)
        assert np.array_equal(a.x_values, b.x_values)
        text = path.read_text()
        assert text.startswith("z,x\n")
        assert "\r" not in text

    @pytest.mark.parametrize("x", [
        [-1e300, -3.0, -0.0, 0.0, 1e-300, 0.1, 2.0, 1e300],
        [5.0],
        [-0.0],
    ], ids=["awkward", "n1", "negative-zero"])
    def test_csv_bytes_match_csv_writer(self, tmp_path, x):
        a = InverseCDF(np.array(x))
        path = tmp_path / "state.csv"
        a.to_csv(path)
        assert path.read_bytes() == csv_writer_bytes(a)
        back = InverseCDF.from_csv(path)
        assert back.x_values.tobytes() == a.x_values.tobytes()

    @pytest.mark.parametrize("n", [1, _CSV_CHUNK - 1, _CSV_CHUNK,
                                   _CSV_CHUNK + 1, 2 * _CSV_CHUNK + 1, 3200])
    def test_csv_bytes_across_chunks(self, tmp_path, n):
        # the awkward values land in the first chunk, the last and between
        awkward = [-1e300, -0.0, 1e-300, 1e300]
        x = np.sort(np.concatenate([awkward,
                                    np.linspace(-3.0, 3.0, max(n - 4, 0))]))
        a = InverseCDF(x[-n:])
        path = tmp_path / "state.csv"
        a.to_csv(path)
        assert path.read_bytes() == csv_writer_bytes(a)
        back = InverseCDF.from_csv(path)
        assert back.x_values.tobytes() == a.x_values.tobytes()

    def test_csv_templates_follow_n(self, tmp_path):
        # the row templates are cached per grid size: writing n = 3, then
        # chunked sizes, then 3 in one process must not carry one grid's
        # text into the next
        sizes = [3, 2 * _CSV_CHUNK + 1, _CSV_CHUNK + 1, 3]
        for i, n in enumerate(sizes):
            a = uniform_state(-1.0 - i, 2.0 + i, n)
            path = tmp_path / f"state{i}.csv"
            a.to_csv(path)
            assert path.read_bytes() == csv_writer_bytes(a)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.5,0.0\n")
        with pytest.raises(ValueError):
            InverseCDF.from_csv(path)

    def test_csv_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("z,x\n0.25,0.0\n0.75\n")
        with pytest.raises(ValueError):
            InverseCDF.from_csv(path)

    # the test config turns warnings into errors, so these also check that
    # loadtxt's "input contained no data" warning is not raised
    @pytest.mark.parametrize("text", ["z,x\n", "z,x\n# comment\n\n"],
                             ids=["empty", "comment-only"])
    def test_csv_no_data_rows(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="no data rows"):
            InverseCDF.from_csv(path)


class TestReferenceProfile:
    def test_mass_and_bound(self, gap_profile):
        assert gap_profile.mass == pytest.approx(2.0, rel=1e-12)
        assert gap_profile.density_bound == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReferenceProfile([0.0], [])
        with pytest.raises(ValueError):
            ReferenceProfile([0.0, 0.0], [1.0])
        with pytest.raises(ValueError):
            ReferenceProfile([0.0, 1.0], [-1.0])
        with pytest.raises(ValueError):
            ReferenceProfile([0.0, 1.0], [0.0])
        with pytest.raises(ValueError, match="one entry per interval"):
            ReferenceProfile([0.0, 1.0, 2.0], [1.0])

    @pytest.mark.parametrize("breaks,densities", [
        ([-1e308, 1e308], [1.0]),
        ([-1e308, 1e308, 1.5e308], [0.0, 1.0]),
        ([0.0, 1e308], [1e308]),
        ([-9e307, 0.0, 9e307], [1e-10, 1e-10]),
    ], ids=["width", "zero-density-width", "mass", "first-moment"])
    def test_overflow_refused(self, breaks, densities):
        # finite breakpoints and densities whose width, mass or first moment
        # is not a double; warnings are errors, so none may warn first
        with pytest.raises(ValueError, match="must be finite"):
            ReferenceProfile(breaks, densities)

    def test_com(self, dense2_profile, gap_profile):
        assert dense2_profile.com() == pytest.approx(0.5, abs=1e-12)
        assert gap_profile.com() == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 1.0, 1e4, 1e6, 1e8])
    def test_com_against_exact_rationals(self, offset):
        # com = b_0 + (com - b_0), against the exact first moment of the
        # stored breakpoints and densities
        rng = np.random.default_rng(int(offset) % 1000 + 7)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            widths = 10.0 ** rng.uniform(-3.0, 1.0, k)
            dens = 10.0 ** rng.uniform(-3.0, 3.0, k)
            dens[rng.uniform(size=k) < 0.3] = 0.0
            dens[0] = max(dens[0], 1e-3)
            prof = ReferenceProfile(
                offset + np.concatenate([[0.0], np.cumsum(widths)]), dens)
            b = [Fraction(v) for v in prof.breakpoints.tolist()]
            d = [Fraction(v) for v in prof.densities.tolist()]
            first = sum(dk * (hi * hi - lo * lo) / 2
                        for dk, lo, hi in zip(d, b, b[1:]))
            mass = sum(dk * (hi - lo) for dk, lo, hi in zip(d, b, b[1:]))
            exact = first / mass
            ulp = Fraction(float(np.spacing(abs(float(exact)))))
            assert abs(Fraction(prof.com()) - exact) <= 4 * ulp

    def test_json_round_trip(self, tmp_path, gap_profile):
        path = tmp_path / "profile.json"
        gap_profile.to_json(path)
        back = ReferenceProfile.from_json(path)
        assert np.array_equal(back.breakpoints, gap_profile.breakpoints)
        assert np.array_equal(back.densities, gap_profile.densities)
        doc = json.loads(path.read_text())
        assert set(doc) == {"breakpoints", "densities"}


class TestMassQuadrature:
    def test_midpoint_total(self, dense2_profile):
        quad = MassQuadrature.midpoint(dense2_profile, 37)
        assert np.sum(quad.weights) == pytest.approx(dense2_profile.mass,
                                                     rel=1e-12)
        assert np.all(quad.nodes > 0) and np.all(quad.nodes < dense2_profile.mass)

    def test_validation(self):
        with pytest.raises(ValueError):
            MassQuadrature([0.5, 0.25], [0.5, 0.5])
        with pytest.raises(ValueError):
            MassQuadrature([0.25, 0.5], [0.5, -0.5])
        with pytest.raises(ValueError):
            MassQuadrature([0.25, 0.5], [0.5])


class TestStateConstructors:
    def test_uniform_state(self):
        a = uniform_state(2.0, 3.0, 10)
        assert a.x_values[0] == pytest.approx(2.05, abs=1e-12)
        assert a.x_values[-1] == pytest.approx(2.95, abs=1e-12)
        with pytest.raises(ValueError):
            uniform_state(1.0, 1.0, 10)

    def test_sample_profile_unit_mass(self, dense2_profile):
        X = sample_profile(dense2_profile, 50)
        # X(z) = Y(m z): the unit-mass reshaping of the datum
        assert X.n == 50
        z = X.z_grid
        assert np.allclose(X.x_values, z)
