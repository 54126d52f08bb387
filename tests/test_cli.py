import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from arflow import InverseCDF, cli, energetics, kernels, measures, \
    steady, uniform_state
from conftest import SPREAD_DATUMS

SRC = str(Path(cli.__file__).resolve().parent.parent)


def write_profile(tmp_path, breakpoints, densities, name="profile.json"):
    path = tmp_path / name
    path.write_text(json.dumps(
        {"breakpoints": breakpoints, "densities": densities}
    ))
    return path


NAN, INF = float("nan"), float("inf")


def edit_index(text, key, where, value=None):
    """``index.json`` text with ``key`` cut to the slice ``where``, or with
    entry ``where`` set to ``value``."""
    doc = json.loads(text)
    if isinstance(where, slice):
        doc[key] = doc[key][where]
    else:
        doc[key][where] = value
    return json.dumps(doc)


def reject_constant(name):
    """``parse_constant`` of a strict JSON reader: NaN and Infinity fail."""
    raise ValueError(f"non-standard JSON constant {name}")


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def polyfit_rate(t, y):
    """Slope and R^2 of log y on t by ``np.polyfit``, the fit's reference."""
    ly = np.log(y)
    slope, intercept = np.polyfit(t, ly, 1)
    ss_res = np.sum((ly - (slope * t + intercept)) ** 2)
    ss_tot = np.sum((ly - np.mean(ly)) ** 2)
    return slope, 1.0 - ss_res / ss_tot


@pytest.fixture
def q2_m2_config(tmp_path):
    write_profile(tmp_path, [0.0, 1.0], [2.0])
    return write_config(tmp_path, {
        "profile": "profile.json",
        "q_a": 2.0, "q_r": 2.0,
        "n": 64,
        "dt": 1e-3, "t_end": 2.0, "record_every": 100,
        "initial": {"kind": "uniform", "a": 2.0, "b": 3.0},
        "t_fit_lo": 1.0, "t_fit_hi": 2.0,
    })


class TestSimulate:
    def test_com_rate_m2(self, tmp_path, q2_m2_config):
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(q2_m2_config),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rate_com"] == pytest.approx(-4.0, rel=0.01)
        assert summary["r2_com"] >= 0.999
        index = json.loads((out / "index.json").read_text())
        assert len(index["times"]) == len(index["files"])
        assert (out / index["files"][0]).exists()
        assert (out / "energy.csv").exists()

    def test_w2_to_steady(self, tmp_path):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json",
            "q_a": 2.0, "q_r": 1.0,
            "n": 64,
            "dt": 0.05, "t_end": 20.0, "record_every": 20,
            "initial": {"kind": "uniform", "a": 1.0, "b": 2.0},
        })
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["w2_nonincreasing"] is True
        assert summary["final_w2_to_steady"] < 1e-3
        # X* is affine at q_a = 2: only roundoff floors the fit
        assert summary["fit_w2"]["floor"] == 64 * np.finfo(float).eps

    @pytest.mark.parametrize("rise, verdict", [(1e-10, True), (2e-10, False)])
    def test_w2_may_rise_by_roundoff(self, tmp_path, monkeypatch, rise,
                                     verdict):
        # W2 counts as nonincreasing while each step rises by at most 1e-10
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 1.0, "n": 16,
            "dt": 0.05, "t_end": 0.05,
            "initial": {"kind": "uniform", "a": 1.0, "b": 2.0},
        })
        series = iter([0.0, rise])
        monkeypatch.setattr(cli, "wasserstein", lambda *args: next(series))
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["w2_nonincreasing"] is verdict

    def test_w2_rate_above_bisection_error(self, tmp_path):
        # X* from the bisection is good to its bracket width, 1e-12: W2
        # levels off at 2.5e-13 from t = 19 on, which the default window
        # [20, 40] would fit as a rate of -3.7e-6 with R^2 0.20
        write_profile(tmp_path, [0.0, 0.5, 1.0], [1.0, 1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.0, "n": 64,
            "dt": 0.01, "t_end": 40.0, "record_every": 100,
            "initial": {"kind": "uniform", "a": -0.3, "b": 0.9},
        })
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fit_w2"]["floor"] == steady._TOL
        assert summary["final_w2_to_steady"] < steady._TOL
        assert summary["rate_w2"] == pytest.approx(-1.65, rel=0.05)
        assert summary["r2_w2"] >= 0.999

    def test_two_samples_in_window_give_a_rate(self, tmp_path, q2_m2_config):
        # the window [0.95, 1.15] holds the samples at t = 1 and 1.1, both
        # far above the floor: two samples fix a line
        doc = json.loads(q2_m2_config.read_text())
        cfg = write_config(tmp_path, {**doc, "t_fit_lo": 0.95,
                                      "t_fit_hi": 1.15})
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fit_com"]["samples"] == 2
        assert summary["rate_com"] == pytest.approx(-4.0, rel=0.01)

    @pytest.mark.parametrize("c", [0.0, 1e6])
    def test_rate_fit_skips_roundoff_floor(self, tmp_path, c):
        # the com error falls to the roundoff floor by t = 10 at c = 0 and
        # by t = 5 at c = 1e6, where positions round at ulp(1e6); the
        # default window is the later half of the samples above the floor
        write_profile(tmp_path, [c, c + 1.0], [2.0])
        run = {"profile": "profile.json", "q_a": 1.6, "q_r": 1.3, "n": 200,
               "dt": 0.02, "t_end": 20.0, "record_every": 50}
        cfg = write_config(tmp_path, {**run, "initial": {
            "kind": "uniform", "a": c + 0.5, "b": c + 1.5}})
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        fit = summary["fit_com"]
        assert fit["floor"] == 64 * np.finfo(float).eps * max(1.0, c + 0.5)
        index = json.loads((out / "index.json").read_text())
        times = np.array(index["times"])
        err = np.array([abs(InverseCDF.from_csv(out / f).mean() - (c + 0.5))
                        for f in index["files"]])
        above = times[err > fit["floor"]]
        window = (times >= fit["t_lo"]) & (times <= fit["t_hi"])
        assert np.all(err[window] > fit["floor"])
        assert fit["samples"] == np.count_nonzero(window) >= 2
        assert (fit["t_lo"], fit["t_hi"]) == (above[above.size // 2],
                                              above[-1])
        assert summary["rate_com"] < 0 and summary["r2_com"] >= 0.99
        rate, r2 = polyfit_rate(times[window], err[window])
        assert summary["rate_com"] == pytest.approx(rate, rel=1e-12)
        assert summary["r2_com"] == pytest.approx(r2, rel=1e-12)
        if c == 0.0:
            # the window t = 5 to 9 gives the asymptotic rate
            assert summary["rate_com"] == pytest.approx(-2.5, abs=0.1)

        # a sampled datum starts at the floor: no rate, and a reason
        cfg = write_config(tmp_path, {**run, "initial": {"kind": "profile"}})
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rate_com"] is None and summary["r2_com"] is None
        assert summary["fit_com"]["samples"] == 0
        assert "floor" in summary["fit_com"]["reason"]

    def test_bad_exponent_exit_2(self, tmp_path, capsys):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json",
            "q_a": 2.5, "q_r": 2.5,
            "initial": {"kind": "uniform", "a": 0.0, "b": 1.0},
        })
        code = cli.main(["simulate", "--config", str(cfg),
                        "--out", str(tmp_path / "run")])
        assert code == 2
        assert "1 <= q_r <= q_a <= 2" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        code = cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                        "--out", str(tmp_path / "run")])
        assert code == 2

    def test_small_n_exit_2(self, tmp_path):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 4,
        })
        assert cli.main(["simulate", "--config", str(cfg),
                        "--out", str(tmp_path / "run")]) == 2

    def test_monotonicity_exit_3(self, tmp_path, q2_m2_config, monkeypatch):
        from arflow.dynamics import MonotonicityError

        def boom(*args, **kwargs):
            raise MonotonicityError("monotonicity lost at t=0.5")

        monkeypatch.setattr(cli, "simulate", boom)
        code = cli.main(["simulate", "--config", str(q2_m2_config),
                        "--out", str(tmp_path / "run")])
        assert code == 3

    def test_step_guard_exit_2_before_output(self, tmp_path, capsys):
        # lambda = 2 m = 2 at q_a = 2, so dt = 0.5 breaks dt * lambda <= 0.5
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
            "dt": 0.5, "t_end": 1.0,
        })
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 2
        assert "step-size guard" in capsys.readouterr().err
        assert not out.exists()

    def test_t_end_not_multiple_exit_2(self, tmp_path):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
            "dt": 0.15, "t_end": 1.0,
        })
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "run")]) == 2

    def test_overflow_exit_3(self, tmp_path, q2_m2_config, monkeypatch,
                             capsys):
        def boom(*args, **kwargs):
            raise OverflowError("state overflowed at t=0.5")

        monkeypatch.setattr(cli, "simulate", boom)
        code = cli.main(["simulate", "--config", str(q2_m2_config),
                        "--out", str(tmp_path / "run")])
        assert code == 3
        assert "integration aborted" in capsys.readouterr().err
        # a summary value that is not finite is refused as JSON output
        monkeypatch.undo()
        monkeypatch.setattr(energetics, "energy_balance", lambda reports: INF)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(q2_m2_config),
                         "--out", str(out)]) == 3
        assert "non-finite value in output" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("q_a, q_r", [(1.5, 1.2), (2.0, 1.5)])
    def test_overflowing_stage_exit_3_before_output(self, tmp_path, capsys,
                                                    q_a, q_r):
        # an RK4 stage from nodes up to 1.7e308 overflows; warnings are
        # errors, so the finiteness check of the step must see it first
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": q_a, "q_r": q_r, "n": 32,
            "dt": 0.01, "t_end": 0.02,
            "initial": {"kind": "uniform", "a": 1e307, "b": 1.7e308},
        })
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", "--config", str(cfg),
                             "--out", str(out)]) == 3
        assert "state overflowed" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowed_report_exit_3_before_output(self, tmp_path, capsys):
        # the state at 1e160 stays finite, but its energy and moments do
        # not; energy_balance would warn on them, and JSON cannot hold them
        write_profile(tmp_path, [1e160, 1.5e160], [2e-160])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 1.5, "n": 32,
            "dt": 0.01, "t_end": 0.02,
        })
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 3
        assert "integration aborted" in capsys.readouterr().err
        assert not out.exists()

    def test_determinism(self, tmp_path, q2_m2_config):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        cli.main(["simulate", "--config", str(q2_m2_config), "--out", str(out1)])
        cli.main(["simulate", "--config", str(q2_m2_config), "--out", str(out2)])
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_csv_dialect(self, tmp_path, q2_m2_config):
        out = tmp_path / "run"
        cli.main(["simulate", "--config", str(q2_m2_config), "--out", str(out)])
        text = (out / "snapshot_0000.csv").read_text()
        assert text.startswith("z,x\n")
        assert "\r" not in text


class TestFitExponentialRate:
    T = np.linspace(0.0, 4.0, 41)

    @pytest.mark.parametrize("seed", range(5))
    def test_noisy_series_match_polyfit(self, seed):
        rng = np.random.default_rng(seed)
        y = 3.0 * np.exp(-2.5 * self.T + 0.2 * rng.standard_normal(41))
        rate, r2 = cli.fit_exponential_rate(self.T, y, 1.0, 3.5)
        window = (self.T >= 1.0) & (self.T <= 3.5)
        ref_rate, ref_r2 = polyfit_rate(self.T[window], y[window])
        assert rate == pytest.approx(ref_rate, rel=1e-12)
        assert r2 == pytest.approx(ref_r2, rel=1e-12)

    @pytest.mark.parametrize("lam", [-4.0, -0.3, 1e-3, 2.0])
    def test_exact_exponentials_match_polyfit(self, lam):
        y = 0.7 * np.exp(lam * self.T)
        rate, r2 = cli.fit_exponential_rate(self.T, y, 0.0, 4.0)
        ref_rate, ref_r2 = polyfit_rate(self.T, y)
        assert rate == pytest.approx(ref_rate, rel=1e-12)
        assert rate == pytest.approx(lam, rel=1e-12)
        assert r2 == pytest.approx(ref_r2, rel=1e-12) and r2 <= 1.0

    def test_floor_and_window_drop_samples(self):
        y = np.exp(-self.T)
        y[30:] = 1e-20  # at the floor: no information about the rate
        rate, r2 = cli.fit_exponential_rate(self.T, y, 0.0, 4.0, 1e-18)
        assert rate == pytest.approx(-1.0, rel=1e-12)
        assert r2 == pytest.approx(1.0, rel=1e-12)
        assert cli.fit_exponential_rate(self.T, y, 3.05, 4.0, 1e-18) == \
            (None, None)

    def test_constant_series_has_r2_one(self):
        rate, r2 = cli.fit_exponential_rate([0.0, 1.0, 2.0], [2.0] * 3,
                                            0.0, 2.0)
        assert (rate, r2) == (0.0, 1.0)

    def test_single_time_has_no_rate(self):
        assert cli.fit_exponential_rate([1.0, 1.0], [1.0, 2.0], 0.0, 2.0) \
            == (None, None)


class TestMain:
    def test_one_process_matches_fresh_processes(self, tmp_path):
        # the parser is built once per process; reusing it for several
        # commands, a failed one included, changes no output
        write_profile(tmp_path, [0.0, 0.5, 1.5], [1.2, 0.4])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 1.0, "n": 32,
            "dt": 0.05, "t_end": 0.1,
        })

        def argvs(out):
            return [["simulate", "--config", str(cfg), "--out", str(out)],
                    ["energy-audit", "--out", str(out)],
                    ["simulate", "--config", str(cfg)]]

        codes = []
        for argv in argvs(tmp_path / "one"):
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
        fresh = [subprocess.run([sys.executable, "-m", "arflow.cli", *argv],
                                capture_output=True,
                                env=dict(os.environ, PYTHONPATH=SRC)
                                ).returncode
                 for argv in argvs(tmp_path / "fresh")]
        assert codes == fresh == [0, 0, 2]
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "fresh").iterdir())
        for name in names:
            assert ((tmp_path / "one" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes()), name

    def test_commands_import_no_random_or_polynomial(self, tmp_path):
        # oracle-check draws from Python's random, not numpy.random, and only
        # fourier_energy takes leggauss from numpy.polynomial
        write_profile(tmp_path, [0.0, 0.5, 1.5], [1.2, 0.4])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.0, "n": 32,
            "dt": 0.05, "t_end": 0.2,
        })
        argvs = [["simulate", "--config", str(cfg), "--out", "run"],
                 ["energy-audit", "--out", "run"],
                 ["steady", "--config", str(cfg), "--out", "steady"],
                 ["oracle-check", "--config", str(cfg), "--seed", "3"]]
        script = (
            "import json, sys\n"
            "from arflow import cli\n"
            f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m in "
            "('numpy.random', 'numpy.polynomial'))]))\n")
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=SRC))
        codes, loaded = json.loads(done.stdout.splitlines()[-1])
        assert codes == [0, 0, 0, 0]
        assert loaded == []


class TestSteady:
    def test_q1_m2_sidecar(self, tmp_path):
        write_profile(tmp_path, [0.0, 1.0], [2.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.0, "q_r": 1.0, "n": 100,
        })
        out = tmp_path / "steady"
        assert cli.main(["steady", "--config", str(cfg),
                        "--out", str(out)]) == 0
        doc = json.loads((out / "steady.json").read_text())
        assert doc["x_lo"] == pytest.approx(0.25, abs=1e-12)
        assert doc["x_hi"] == pytest.approx(0.75, abs=1e-12)
        assert doc["kind"] == "qa_eq_1_shift"
        assert (out / "steady.csv").exists()

    def test_none_exists(self, tmp_path):
        write_profile(tmp_path, [0.0, 1.0], [0.5])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.0, "q_r": 1.0, "n": 50,
        })
        out = tmp_path / "steady"
        assert cli.main(["steady", "--config", str(cfg),
                        "--out", str(out)]) == 0
        # standard JSON: the absent edges are null, not NaN
        doc = json.loads((out / "steady.json").read_text(),
                         parse_constant=reject_constant)
        assert doc["kind"] == "none_exists"
        assert [doc[k] for k in ("x_lo", "x_hi", "x_zero")] == [None] * 3
        assert not (out / "steady.csv").exists()

    def test_qr_not_1_exit_2_before_output(self, tmp_path, capsys):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.4, "n": 64,
        })
        out = tmp_path / "steady"
        assert cli.main(["steady", "--config", str(cfg),
                        "--out", str(out)]) == 2
        assert "q_r = 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, breaks, densities, q_a, message", [
        # at mass 0.003 and q_a = 1.02 the drift reaches 1 only where
        # 1.02 * 0.003 |x|^0.02 = 1, at |x| near 1e126: past the 2^200
        # doublings of the bisection bracket
        *[pytest.param(command, [0.0, 0.5], [0.006], 1.02,
                       "could not bracket", id=command)
          for command in ("steady", "simulate")],
        # at the subnormal mass 1e-310 the q_a = 2 equilibrium's half-width
        # 1/(2m) is past the largest double; warnings are errors here
        *[pytest.param(command, [0.0, 1.0], [1e-310], 2.0, "overflows",
                       id=f"subnormal-mass-{command}")
          for command in ("steady", "simulate")],
    ])
    def test_unbracketed_equilibrium_exit_3_before_output(
            self, tmp_path, capsys, command, breaks, densities, q_a,
            message):
        write_profile(tmp_path, breaks, densities)
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": q_a, "q_r": 1.0, "n": 32,
            "dt": 1.0, "t_end": 2.0,
        })
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg),
                         "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("densities, edge", [
        ([1.0, 0.0], "x_hi"),
        ([0.0, 1.0], "x_lo"),
    ], ids=["trailing-gap", "leading-gap"])
    def test_q1_edges_are_the_ends_of_the_mass(self, tmp_path, densities,
                                               edge):
        write_profile(tmp_path, [0.0, 1.0, 2.0], densities)
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.0, "q_r": 1.0, "n": 16,
        })
        out = tmp_path / "steady"
        assert cli.main(["steady", "--config", str(cfg),
                        "--out", str(out)]) == 0
        assert json.loads((out / "steady.json").read_text())[edge] == 1.0


class TestOracleCheck:
    def test_default_suite_passes(self, tmp_path, capsys):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        for q, n in [(2.0, 64), (1.5, 32)]:
            cfg = write_config(tmp_path, {
                "profile": "profile.json", "q_a": q, "q_r": q, "n": n,
            })
            assert cli.main(["oracle-check", "--config", str(cfg)]) == 0
            assert "pass" in capsys.readouterr().out

    @pytest.mark.parametrize("c,breaks,densities", [
        *[pytest.param(c, [0.0, 1.0], [1.0], id=f"{c}")
          for c in (99.5, 1e4, 1e6, 1e8)],
        # com = c + 0.7 rounds at c, where the unit datum's c + 0.5 is exact
        *[pytest.param(c, [0.1, 0.5, 1.3], [1.0, 0.75], id=f"two-piece-{c}")
          for c in (1e4, 1e6, 1e8)],
    ])
    def test_datum_far_from_origin(self, tmp_path, capsys, c, breaks,
                                   densities):
        # states are drawn around the datum, so the absolute 1e-12 check
        # does not meet the roundoff of |x - b| ~ c; the q_r = 2 repulsion
        # is taken about a node, and the exact q_a = 2 forms about b_0, not
        # about a mean that rounds at c
        write_profile(tmp_path, [c + b for b in breaks], densities)
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.5, "n": 200,
        })
        assert cli.main(["oracle-check", "--config", str(cfg)]) == 0
        assert "pass" in capsys.readouterr().out

    @pytest.mark.parametrize("breaks,densities", [
        ([0.0, 1e-3], [1e3]), ([0.0, 1e-6], [1e6]),
        *SPREAD_DATUMS.values()], ids=["1e-3", "1e-6", *SPREAD_DATUMS])
    def test_narrow_datum(self, tmp_path, capsys, breaks, densities):
        # both sides take each piece's difference of primitives in a form
        # that does not cancel; a breakpoint (jump) form fails here, with
        # rhs differences 3.4e-12 and 2.7e-9.  On SPREAD_DATUMS omega's
        # spread from cubed breakpoints failed the q_a = 2 energies, with
        # differences 6.6e-11 and 5.6e-8
        write_profile(tmp_path, breaks, densities)
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.5, "n": 64,
        })
        assert cli.main(["oracle-check", "--config", str(cfg)]) == 0
        assert "pass" in capsys.readouterr().out

    def test_reports_relative_difference(self, tmp_path, capsys):
        # a datum of mass 3000: the terms reach about 1e4, so their roundoff
        # fails the absolute 1e-12 gate, which assumes unit-scale data;
        # relative to the largest value compared it is at roundoff
        write_profile(tmp_path, [0.0, 30.0], [100.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.5, "n": 50,
            "dt": 1e-6,
        })
        assert cli.main(["oracle-check", "--config", str(cfg)]) == 1
        line = capsys.readouterr().out
        absolute = [float(v) for v in re.findall(r"diff (\S+) \(", line)]
        relative = [float(v) for v in re.findall(r"\(rel (\S+)\)", line)]
        assert len(absolute) == len(relative) == 2
        assert max(absolute) > 1e-12
        assert max(relative) <= 1e-14

    def test_fresh_process_skips_numpy_random(self, tmp_path):
        # the states come from Python's seeded random, so oracle-check pays
        # for no numpy.random import, and one seed gives one result
        write_profile(tmp_path, [0.0, 0.5, 1.5], [1.2, 0.4])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
        })
        script = ("import sys\n"
                  "from arflow import cli\n"
                  f"code = cli.main(['oracle-check', '--config', {str(cfg)!r},"
                  " '--seed', '7'])\n"
                  "print('numpy.random' in sys.modules, code)\n")
        lines = []
        for _ in range(2):
            run = subprocess.run([sys.executable, "-c", script],
                                 capture_output=True, text=True, check=True,
                                 env=dict(os.environ, PYTHONPATH=SRC))
            check, loaded = run.stdout.splitlines()
            assert loaded == "False 0"
            lines.append(check)
        assert lines[0] == lines[1]
        assert "pass" in lines[0]

    def test_draws_per_seed(self, tmp_path, monkeypatch):
        # the states particle_rhs receives: around the datum, one set per
        # seed, and a negative seed apart from its absolute value
        write_profile(tmp_path, [0.0, 0.5, 1.5], [1.2, 0.4])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
        })
        states = []

        def captured(X, profile, exps, inner=cli.particle_rhs):
            states.append(X.x_values)
            return inner(X, profile, exps)

        monkeypatch.setattr(cli, "particle_rhs", captured)

        def draws(seed):
            states.clear()
            assert cli.main(["oracle-check", "--config", str(cfg),
                             "--seed", str(seed)]) == 0
            return np.array(states)

        seven = draws(7)
        com = measures.ReferenceProfile.from_json(
            tmp_path / "profile.json").com()
        assert seven.shape == (len(cli.ORACLE_PAIRS) * cli.ORACLE_CASES, 32)
        assert np.all((seven >= com - 2.0) & (seven < com + 3.0))
        # and they fill it: 1600 uniform draws span most of its width 5
        assert np.ptp(seven) > 4.0
        assert not np.array_equal(seven, draws(-7))
        assert np.array_equal(seven, draws(7))

    def test_one_pair_pass_per_state(self, tmp_path, capsys, monkeypatch,
                                     pair_passes):
        # the kernel side's energy comes from its velocity's repulsion sum
        monkeypatch.setattr(cli, "ORACLE_PAIRS", [(1.8, 1.4)])
        monkeypatch.setattr(cli, "ORACLE_CASES", 1)
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 64,
        })
        assert cli.main(["oracle-check", "--config", str(cfg)]) == 0
        assert pair_passes == [pytest.approx(0.4)]

    def test_overflowed_value_exit_3(self, tmp_path, capsys):
        # density 1e308: every E and e is inf and every energy difference
        # NaN, which max() would drop; the warnings are errors here
        write_profile(tmp_path, [0.0, 1.0], [1e308])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.5, "n": 16,
        })
        assert cli.main(["oracle-check", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err

    def test_nan_on_a_later_state_exit_3(self, tmp_path, capsys,
                                         monkeypatch):
        # a NaN after finite states: max(worst, nan) keeps worst
        calls = []

        def late_nan(X, profile, exps, inner=cli.particle_rhs):
            calls.append(X)
            v = inner(X, profile, exps)
            if len(calls) == 3:
                v[5] = np.nan
            return v

        monkeypatch.setattr(cli, "particle_rhs", late_nan)
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
        })
        assert cli.main(["oracle-check", "--config", str(cfg)]) == 3
        assert capsys.readouterr().out == ""
        assert len(calls) == 3

    @pytest.mark.parametrize("module,name", [
        (kernels, "_datum_sum"),
        # energetics reads psi_a * omega through its own binding
        (energetics, "_datum_conv"),
    ])
    def test_detects_perturbed_exact_datum(self, tmp_path, capsys,
                                           monkeypatch, module, name):
        # the check must run the exact datum terms that every command uses
        exact = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args: exact(*args) * (1.0 + 1e-9))
        write_profile(tmp_path, [0.0, 0.5, 1.5], [1.2, 0.4])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 64,
        })
        assert cli.main(["oracle-check", "--config", str(cfg)]) == 1
        assert "FAIL" in capsys.readouterr().out


def assert_audit_is_the_runs(out):
    """``balance.json``'s defect is ``summary.json``'s, bit for bit."""
    audit = json.loads((out / "balance.json").read_text())["defect"]
    summary = json.loads((out / "summary.json").read_text())
    assert audit == summary["energy_balance_defect"]


class TestEnergyAudit:
    def test_closed_form_run(self, tmp_path, capsys):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json",
            "q_a": 2.0, "q_r": 2.0,
            "n": 128,
            "dt": 1e-3, "t_end": 0.5, "record_every": 1,
            "initial": {"kind": "uniform", "a": 0.5, "b": 1.5},
        })
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                        "--out", str(out)]) == 0
        assert cli.main(["energy-audit", "--out", str(out)]) == 0
        doc = json.loads((out / "balance.json").read_text())
        assert doc["defect"] <= 1e-6
        assert_audit_is_the_runs(out)
        # the printed drop is from the first to the last snapshot
        drop = doc["E_initial"] - doc["E_final"]
        assert f"(E drop {drop:.6e})" in capsys.readouterr().out

    def test_audit_defect_is_the_runs(self, tmp_path):
        # the audit recomputes the run's reports from its snapshots, bit
        # for bit, here on a run from the sampled datum (the default)
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.5, "n": 32,
            "dt": 0.01, "t_end": 0.1,
        })
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                        "--out", str(out)]) == 0
        assert cli.main(["energy-audit", "--out", str(out)]) == 0
        assert_audit_is_the_runs(out)

    @pytest.mark.parametrize("name,corrupt", [
        ("index.json", lambda doc: "{not json"),
        ("config.json", lambda doc: json.dumps(
            {k: v for k, v in json.loads(doc).items() if k != "q_a"})),
        pytest.param("index.json",
                     lambda doc: edit_index(doc, "times", slice(0, 3)),
                     id="times-cut"),
        pytest.param("index.json",
                     lambda doc: edit_index(doc, "files", slice(0, 2)),
                     id="files-cut"),
        pytest.param("index.json",
                     lambda doc: edit_index(doc, "times", 1, "abc"),
                     id="time-not-number"),
        pytest.param("index.json",
                     lambda doc: edit_index(doc, "files", 1, 5),
                     id="file-not-string"),
        pytest.param("index.json",
                     lambda doc: edit_index(doc, "times", slice(None, None, -1)),
                     id="times-reversed"),
        pytest.param("index.json",
                     lambda doc: edit_index(doc, "times", 2, NAN),
                     id="time-nan"),
    ])
    def test_corrupt_metadata_exit_4(self, tmp_path, capsys, name, corrupt):
        # six snapshots; each corrupt index is refused before any is read
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
            "dt": 0.01, "t_end": 0.05,
        })
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        path = out / name
        path.write_text(corrupt(path.read_text()))
        assert cli.main(["energy-audit", "--out", str(out)]) == 4
        assert "corrupt trajectory metadata" in capsys.readouterr().err
        assert not (out / "balance.json").exists()

    def test_single_snapshot_exit_4(self, tmp_path, capsys):
        # t_end = 0 records only the initial state; the balance needs two
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
            "dt": 0.01, "t_end": 0.0,
        })
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert cli.main(["energy-audit", "--out", str(out)]) == 4
        assert "at least two" in capsys.readouterr().err
        assert not (out / "balance.json").exists()

    @pytest.mark.parametrize("text", ["z,x\n0.5\n", "z,x\n"])
    def test_corrupt_snapshot_exit_4(self, tmp_path, capsys, text):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
            "dt": 0.01, "t_end": 0.02,
        })
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        (out / "snapshot_0001.csv").write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["energy-audit", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "snapshot_0001.csv" in err
        assert "UserWarning" not in err
        assert not [w for w in caught if issubclass(w.category, UserWarning)]
        assert not (out / "balance.json").exists()

    def test_overflowed_report_exit_4(self, tmp_path, capsys):
        # a datum moved to 1e160 overflows every report: a corrupt
        # trajectory, refused without a numpy warning or a balance.json
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.2, "n": 32,
            "dt": 0.01, "t_end": 0.02,
        })
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        doc = json.loads((out / "config.json").read_text())
        doc["profile_inline"] = {"breakpoints": [1e160, 2e160],
                                 "densities": [1e-160]}
        (out / "config.json").write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["energy-audit", "--out", str(out)]) == 4
        assert "corrupt trajectory" in capsys.readouterr().err
        assert not (out / "balance.json").exists()

    @pytest.mark.parametrize("name", [
        "../other/snapshot_0001.csv", "absolute", "..", "",
    ])
    def test_file_outside_directory_exit_4(self, tmp_path, capsys,
                                           monkeypatch, name):
        # a file name with a directory part would audit another run's
        # snapshot; each is refused before any snapshot is read
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
            "dt": 0.01, "t_end": 0.02,
        })
        out = tmp_path / "run"
        for run in (out, tmp_path / "other"):
            assert cli.main(["simulate", "--config", str(cfg),
                             "--out", str(run)]) == 0
        if name == "absolute":
            name = str(tmp_path / "other" / "snapshot_0001.csv")
        index = out / "index.json"
        index.write_text(edit_index(index.read_text(), "files", 1, name))
        monkeypatch.setattr(cli, "_read_state",
                            lambda path: pytest.fail(f"read {path}"))
        assert cli.main(["energy-audit", "--out", str(out)]) == 4
        assert "corrupt trajectory metadata" in capsys.readouterr().err
        assert not (out / "balance.json").exists()

    @pytest.mark.parametrize("sizes,drop_n", [
        ({1: 4}, False),
        ({0: 16, 1: 16, 2: 16}, False),  # the snapshots agree, the config not
        ({1: 4}, True),  # no n in config.json: the first snapshot's count
    ])
    def test_node_count_exit_4(self, tmp_path, capsys, sizes, drop_n):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
            "dt": 0.01, "t_end": 0.02,
        })
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        if drop_n:
            doc = json.loads((out / "config.json").read_text())
            del doc["n"]
            (out / "config.json").write_text(json.dumps(doc))
        for i, n in sizes.items():
            uniform_state(0.0, 1.0, n).to_csv(out / f"snapshot_{i:04d}.csv")
        assert cli.main(["energy-audit", "--out", str(out)]) == 4
        assert "nodes, the run has" in capsys.readouterr().err
        assert not (out / "balance.json").exists()

    def test_missing_dir_exit_4(self, tmp_path):
        assert cli.main(["energy-audit", "--out",
                        str(tmp_path / "missing")]) == 4




class TestSubnormalOffsets:
    """Nodes a subnormal distance from a piece's end, warnings as errors.

    A piece's far end is at least half its width away, so no ratio of the
    datum sum overflows, however close a node comes to the near end.
    """

    def test_simulate_from_subnormal_uniform(self, tmp_path):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.5, "n": 32,
            "dt": 0.01, "t_end": 0.1,
            "initial": {"kind": "uniform", "a": 0.0, "b": 1e-320},
        })
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", "--config", str(cfg),
                             "--out", str(out)]) == 0
        assert (out / "summary.json").exists()

    def test_steady_on_subnormal_piece(self, tmp_path):
        write_profile(tmp_path, [0.0, 1e-310, 1.0], [1.0, 1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.0, "n": 32,
        })
        out = tmp_path / "steady"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["steady", "--config", str(cfg),
                             "--out", str(out)]) == 0
        assert out.exists()


class TestNonFiniteProfile:
    # NaN passes every ordering check of the profile, as each comparison
    # with it is false, and an infinite breakpoint or density gives an
    # infinite mass, as do finite breakpoints more than the largest double
    # apart or a mass that overflows; all are rejected where the profile is
    # built, with no warning first
    PROFILES = [([0.0, 1.0], [NAN]), ([0.0, NAN], [1.0]),
                ([0.0, 1.0], [INF]), ([-INF, 1.0], [1.0]),
                ([-1e308, 1e308], [1.0]), ([0.0, 1e308], [1e308])]
    IDS = ["nan-density", "nan-breakpoint", "inf-density", "inf-breakpoint",
           "width-overflows", "mass-overflows"]

    @pytest.mark.parametrize("breaks,densities", PROFILES, ids=IDS)
    @pytest.mark.parametrize("command", ["simulate", "steady", "oracle-check"])
    def test_config_exit_2_before_output(self, tmp_path, capsys, command,
                                         breaks, densities):
        write_profile(tmp_path, breaks, densities)
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.0, "n": 32,
            "dt": 0.01, "t_end": 0.02,
        })
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg)]
        if command != "oracle-check":
            argv += ["--out", str(out)]
        assert cli.main(argv) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("breaks,densities", PROFILES, ids=IDS)
    def test_inline_profile_exit_4(self, tmp_path, capsys, breaks, densities):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
            "dt": 0.01, "t_end": 0.02,
        })
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        doc = json.loads((out / "config.json").read_text())
        doc["profile_inline"] = {"breakpoints": breaks, "densities": densities}
        (out / "config.json").write_text(json.dumps(doc))
        assert cli.main(["energy-audit", "--out", str(out)]) == 4
        assert "must be finite" in capsys.readouterr().err
        assert not (out / "balance.json").exists()


class TestStepGuard:
    """The step-size guard belongs to the integrator: it binds simulate only.

    Density 200 on [0, 0.005] has lambda = 1.5 * 0.5 * (4 * 200 + 1) at
    q_a = 1.5, so the default dt = 1e-3 breaks dt * lambda <= 0.5.
    """

    @pytest.fixture
    def steep(self, tmp_path):
        write_profile(tmp_path, [0.0, 0.005], [200.0])

        def config(q_a, q_r):
            return write_config(tmp_path, {
                "profile": "profile.json", "q_a": q_a, "q_r": q_r, "n": 64,
            })
        return config

    def test_steady_ignores_guard(self, tmp_path, steep):
        out = tmp_path / "steady"
        assert cli.main(["steady", "--config", str(steep(1.5, 1.0)),
                         "--out", str(out)]) == 0
        assert (out / "steady.csv").exists()

    def test_oracle_check_ignores_guard(self, steep, capsys):
        assert cli.main(["oracle-check", "--config", str(steep(1.5, 1.5))]) == 0
        assert "pass" in capsys.readouterr().out


class TestInitialKinds:
    def test_csv_initial(self, tmp_path):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        state_path = tmp_path / "x0.csv"
        uniform_state(0.0, 1.0, 32).to_csv(state_path)
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
            "dt": 0.01, "t_end": 0.1, "record_every": 5,
            "initial": {"kind": "csv", "path": str(state_path)},
        })
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                        "--out", str(out)]) == 0

    def test_csv_path_relative_to_config(self, tmp_path, monkeypatch):
        # like the profile, a relative csv path is taken from the config's
        # directory, not from the working directory
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        write_profile(cfg_dir, [0.0, 1.0], [1.0])
        uniform_state(0.0, 1.0, 32).to_csv(cfg_dir / "x0.csv")
        write_config(cfg_dir, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
            "dt": 0.01, "t_end": 0.1, "record_every": 5,
            "initial": {"kind": "csv", "path": "x0.csv"},
        })
        monkeypatch.chdir(tmp_path)
        assert cli.main(["simulate", "--config", "cfg/config.json",
                         "--out", "run"]) == 0
        assert ((tmp_path / "run" / "snapshot_0000.csv").read_bytes()
                == (cfg_dir / "x0.csv").read_bytes())

    @pytest.mark.parametrize("doc", [
        {"initial": {"kind": "uniform", "b": 1}},
        {"initial": {"kind": "uniform", "a": 1.0, "b": 1.0}},
        {"initial": {"kind": "csv"}},
        {"initial": ["uniform", 0.0, 1.0]},
        {"t_fit_lo": "x"},
        {"t_fit_lo": NAN},
        {"t_fit_hi": INF},
        {"n": 32.9},
        {"record_every": 1.7},
        {"recrod_every": 5, "schem": "euler"},
        # RK4 is the only integrator, so the key is unknown
        {"scheme": "rk4"},
        {"initial": {"kind": "uniform", "a": 0, "b": 1, "pth": "x"}},
        # the key is refused before the (missing) file is read
        {"initial": {"kind": "csv", "path": "x0.csv", "pth": "x"}},
    ], ids=["uniform-no-a", "uniform-a-eq-b", "csv-no-path", "not-object",
            "t-fit-not-number", "t-fit-lo-nan", "t-fit-hi-infinity",
            "n-not-integral", "record-every-not-integral",
            "top-level-typo", "scheme", "uniform-stray-key", "csv-stray-key"])
    def test_malformed_exit_2_before_output(self, tmp_path, capsys, doc):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
            "dt": 0.01, "t_end": 0.1, **doc,
        })
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [None, "z,x\n"],
                             ids=["missing", "corrupt"])
    def test_bad_csv_exit_4_before_output(self, tmp_path, text):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        state_path = tmp_path / "x0.csv"
        if text is not None:
            state_path.write_text(text)
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
            "dt": 0.01, "t_end": 0.1,
            "initial": {"kind": "csv", "path": str(state_path)},
        })
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 4
        assert not out.exists()

    def test_tied_csv_exit_2_before_output(self, tmp_path, capsys):
        # a zero initial slope has no slope certificate; simulate refuses it
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        x = uniform_state(0.0, 1.0, 32).x_values.copy()
        x[:2] = 0.0
        InverseCDF(x).to_csv(tmp_path / "x0.csv")
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.2, "n": 32,
            "dt": 0.01, "t_end": 0.02,
            "initial": {"kind": "csv", "path": "x0.csv"},
        })
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["steady", "oracle-check"])
    def test_unknown_key_exit_2_before_output(self, tmp_path, capsys,
                                              command):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.0, "n": 32,
            "recrod_every": 5,
        })
        out = tmp_path / "run"
        argv = [command, "--config", str(cfg)]
        if command != "oracle-check":
            argv += ["--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "recrod_every" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "steady", "oracle-check"])
    def test_csv_node_count_exit_2_before_output(self, tmp_path, capsys,
                                                 command):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        uniform_state(0.0, 1.0, 40).to_csv(tmp_path / "x0.csv")
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.0, "n": 32,
            "dt": 0.01, "t_end": 0.02,
            "initial": {"kind": "csv", "path": "x0.csv"},
        })
        out = tmp_path / "run"
        argv = [command, "--config", str(cfg)]
        if command != "oracle-check":
            argv += ["--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "40 nodes" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "steady", "oracle-check"])
    def test_out_of_memory_exit_2_before_output(self, tmp_path, capsys,
                                                monkeypatch, command):
        # the grid of n = 1e9 nodes is refused, never allocated
        def no_memory(n):
            raise MemoryError(f"cannot allocate {n} grid nodes")

        monkeypatch.setattr(measures, "midpoint_grid", no_memory)
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.0,
            "n": 1000000000,
        })
        out = tmp_path / "run"
        argv = [command, "--config", str(cfg)]
        if command != "oracle-check":
            argv += ["--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "1000000000" in err
        assert not out.exists()

    def test_real_allocation_failure_exit_2_before_output(self, tmp_path):
        # the n = 1e9 grid (7.45 GiB) in a process capped at 3 GB of address
        # space: numpy's MemoryError, not a monkeypatched one
        resource = pytest.importorskip("resource")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))

        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
        # np.empty touches no pages, so without a cap in force it succeeds
        # harmlessly, and the n = 1e9 run below is never started uncapped
        guard = subprocess.run(
            [sys.executable, "-c", "import numpy as np; np.empty(2**29)"],
            preexec_fn=cap, capture_output=True, text=True, env=env)
        if "MemoryError" not in guard.stderr:
            pytest.skip("RLIMIT_AS is not enforced here")
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.0,
            "n": 1000000000,
        })
        out = tmp_path / "huge"
        run = subprocess.run(
            [sys.executable, "-m", "arflow.cli", "steady", "--config",
             str(cfg), "--out", str(out)],
            preexec_fn=cap, capture_output=True, text=True, env=env)
        assert run.returncode == 2, run.stderr
        assert "config error" in run.stderr
        assert not out.exists()

    def test_unknown_kind(self, tmp_path):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
            "initial": {"kind": "mystery"},
        })
        assert cli.main(["simulate", "--config", str(cfg),
                        "--out", str(tmp_path / "run")]) == 2
