import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from arflow import cli, energetics, kernels

SRC = str(Path(cli.__file__).resolve().parent.parent)


def write_profile(tmp_path, breakpoints, densities, name="profile.json"):
    path = tmp_path / name
    path.write_text(json.dumps(
        {"breakpoints": breakpoints, "densities": densities}
    ))
    return path


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


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
        doc = json.loads((out / "steady.json").read_text())
        assert doc["kind"] == "none_exists"
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


class TestOracleCheck:
    def test_default_suite_passes(self, tmp_path, capsys):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 64,
        })
        assert cli.main(["oracle-check", "--config", str(cfg)]) == 0
        assert "pass" in capsys.readouterr().out

    @pytest.mark.parametrize("c", [99.5, 1e4, 1e6, 1e8])
    def test_datum_far_from_origin(self, tmp_path, capsys, c):
        # states are drawn around the datum, so the absolute 1e-12 check
        # does not meet the roundoff of |x - b| ~ c; the q_r = 2 repulsion
        # is taken about a node, not about a mean that rounds at c
        write_profile(tmp_path, [c, c + 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 1.5, "q_r": 1.5, "n": 200,
        })
        assert cli.main(["oracle-check", "--config", str(cfg)]) == 0
        assert "pass" in capsys.readouterr().out

    def test_fresh_process_skips_numpy_random(self, tmp_path):
        # the states come from a private splitmix64, so oracle-check pays
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

    def test_splitmix64_reference_outputs(self):
        # the first outputs of splitmix64 from seed 1234567
        outputs = [6457827717110365317, 3203168211198807973,
                   9817491932198370423]
        draws = cli._SplitMix64(1234567).uniform(0.0, 1.0, 3)
        assert draws.tolist() == [(z >> 11) * 2.0**-53 for z in outputs]

    def test_splitmix64_continues_the_sequence(self):
        one = cli._SplitMix64(5)
        parts = [one.uniform(-2.0, 3.0, 4), one.uniform(-2.0, 3.0, 3)]
        whole = cli._SplitMix64(5).uniform(-2.0, 3.0, 7)
        assert np.concatenate(parts).tolist() == whole.tolist()
        assert np.all((whole >= -2.0) & (whole < 3.0))

    @pytest.mark.parametrize("module,name", [
        (kernels, "_datum_sum"),
        # energetics.energy reads psi_a * omega through its own binding
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

    @pytest.mark.parametrize("name,corrupt", [
        ("index.json", lambda doc: "{not json"),
        ("config.json", lambda doc: json.dumps(
            {k: v for k, v in json.loads(doc).items() if k != "q_a"})),
    ])
    def test_corrupt_metadata_exit_4(self, tmp_path, name, corrupt):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
            "dt": 0.01, "t_end": 0.02,
        })
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        path = out / name
        path.write_text(corrupt(path.read_text()))
        assert cli.main(["energy-audit", "--out", str(out)]) == 4

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

    def test_missing_dir_exit_4(self, tmp_path):
        assert cli.main(["energy-audit", "--out",
                        str(tmp_path / "missing")]) == 4


class TestInitialKinds:
    def test_csv_initial(self, tmp_path):
        from arflow import uniform_state

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
        from arflow import uniform_state

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
    ], ids=["uniform-no-a", "uniform-a-eq-b", "csv-no-path", "not-object",
            "t-fit-not-number"])
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

    def test_unknown_kind(self, tmp_path):
        write_profile(tmp_path, [0.0, 1.0], [1.0])
        cfg = write_config(tmp_path, {
            "profile": "profile.json", "q_a": 2.0, "q_r": 2.0, "n": 32,
            "initial": {"kind": "mystery"},
        })
        assert cli.main(["simulate", "--config", str(cfg),
                        "--out", str(tmp_path / "run")]) == 2
