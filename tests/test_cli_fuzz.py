"""Seeded fuzz of the command line: every outcome is a documented exit code.

Configs are drawn from one seeded numpy generator: 1-4 datum pieces with
zero-density gaps, densities 1e-3 to 1e3, offsets 0 and +-1e6, random
exponent pairs and n <= 32, steps that meet or break the step-size guard,
and initial states among them tied and wrong-length CSVs.  Each runs
through ``cli.main`` as ``simulate``, ``steady``, ``oracle-check`` and,
after a successful ``simulate``, ``energy-audit``.
"""

import json

import numpy as np

from arflow import InverseCDF, ReferenceProfile, cli, uniform_state
from arflow.kernels import lipschitz_bound

CONFIGS = 200
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_CONFIG,
              cli.EXIT_MONOTONICITY, cli.EXIT_IO}
INITIAL_KINDS = ("profile", "uniform", "csv", "csv-tied", "csv-length")


def draw_profile(rng):
    pieces = int(rng.integers(1, 5))
    widths = 10.0 ** rng.uniform(-2.0, 1.0, pieces)
    dens = 10.0 ** rng.uniform(-3.0, 3.0, pieces)
    if pieces > 2:  # the end pieces keep their mass
        dens[1:-1][rng.uniform(size=pieces - 2) < 0.5] = 0.0
    offset = float(rng.choice([0.0, 1e6, -1e6]))
    breaks = offset + np.concatenate([[0.0], np.cumsum(widths)])
    return ReferenceProfile(breaks, dens)


def draw_exponents(rng):
    q = [float(rng.choice([1.0, 2.0, rng.uniform(1.0, 2.0)]))
         for _ in range(2)]
    if rng.uniform() < 0.25:
        q[1] = q[0]  # balanced
    return max(q), min(q)


def draw_initial(rng, profile, n, work):
    kind = str(rng.choice(INITIAL_KINDS))
    if kind == "profile":
        return {"kind": "profile"}
    lo, hi = profile.support
    a = profile.com() + rng.uniform(-2.0, 1.0) * (hi - lo)
    b = a + (hi - lo) * rng.uniform(0.1, 2.0)
    if kind == "uniform":
        return {"kind": "uniform", "a": a, "b": b}
    x = uniform_state(a, b, n + 8 if kind == "csv-length" else n).x_values
    if kind == "csv-tied":
        x = x.copy()
        x[1] = x[0]
    InverseCDF(x).to_csv(work / "x0.csv")
    return {"kind": "csv", "path": "x0.csv"}


def draw_config(rng, work):
    """One config in ``work``; returns its document."""
    profile = draw_profile(rng)
    profile.to_json(work / "profile.json")
    q_a, q_r = draw_exponents(rng)
    n = int(rng.integers(12, 33))  # n < 16 is a config error
    # dt * lambda from well inside the guard to far outside it
    dt = float(0.5 / lipschitz_bound(profile, q_a)
               * 10.0 ** rng.uniform(-1.0, 0.5))
    doc = {
        "profile": "profile.json", "q_a": q_a, "q_r": q_r, "n": n,
        "dt": dt, "t_end": dt * int(rng.integers(1, 4)),
        "initial": draw_initial(rng, profile, max(n, 16), work),
    }
    (work / "config.json").write_text(json.dumps(doc))
    return doc


def test_every_outcome_is_an_exit_code(tmp_path):
    rng = np.random.default_rng(20261019)
    faults = []

    def run(*argv):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # an escape is what this test looks for
            faults.append(f"config {i}: {argv[0]} raised {exc!r}: {doc}")
            return None
        if code not in EXIT_CODES:
            faults.append(f"config {i}: {argv[0]} exit {code!r}: {doc}")
        return code

    seen = {"simulate": set(), "steady": set(), "oracle-check": set()}
    for i in range(CONFIGS):
        work = tmp_path / f"c{i:03d}"
        work.mkdir()
        doc = draw_config(rng, work)
        config = str(work / "config.json")
        for command in ("simulate", "steady"):
            out = work / command
            code = run(command, "--config", config, "--out", str(out))
            seen[command].add(code)
            if code not in (0, None) and out.exists():
                faults.append(f"config {i}: {command} exit {code} left "
                              f"{out.name}: {doc}")
            if command == "simulate" and code == 0:
                run("energy-audit", "--out", str(out))
        seen["oracle-check"].add(
            run("oracle-check", "--config", config, "--seed", str(i)))
    assert faults == []
    # the draw reaches both sides of every command
    for command, codes in seen.items():
        assert {0, 2} <= codes, (command, codes)
