"""Seeded inputs for the benchmark workloads.

``generate(workload, seed, work)`` draws a piecewise-constant unit-mass datum
and an initial interval from ``seed``, writes the profile and config JSON
files the program reads into ``work``, and returns the job list of one pass.
The same seed gives the same files byte for byte.

Every datum has unit mass and densities at most ``MAX_DENSITY``; widths are
rescaled (not densities) to reach unit mass, so the support stays O(1) and
one fixed ``dt`` per workload meets the guard ``dt * lambda <= safety`` for
every seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("dense", "flow-rank-audit")

MAX_DENSITY = 1.5
SAFETY = 0.5
# arflow bounds Lip(U) by q(q-1)(2 rho/(q-1) + m) for 1 < q < 2 and by 2m at
# q = 2.  With m = 1 and rho <= MAX_DENSITY that is 6.84 at q_a = 1.8 and 2
# at q_a = 2, so dt = 0.01 and dt = 0.05 meet dt * lambda <= SAFETY for
# every seed.


def draw_profile(rng, pieces, gaps=False):
    """K-piece unit-mass datum; with ``gaps`` every second piece is empty.

    ``pieces`` must be odd when ``gaps`` is set, so both end pieces carry mass.
    """
    widths = rng.uniform(0.2, 0.5, pieces)
    dens = rng.uniform(0.5, MAX_DENSITY, pieces)
    if gaps:
        dens[1::2] = 0.0
    widths /= float(np.sum(dens * widths))
    length = float(np.sum(widths))
    left = -0.5 * length + rng.uniform(-0.25, 0.25)
    breaks = left + np.concatenate([[0.0], np.cumsum(widths)])
    return {"breakpoints": [float(b) for b in breaks],
            "densities": [float(d) for d in dens]}


def draw_interval(rng, profile):
    """Uniform initial state of width about 1, about 2 left of the datum mean.

    The offset and width vary little with the seed: the reference error of a
    flow is set by its early transient, which they govern, and a wide draw
    spreads that error across seeds.
    """
    breaks = np.asarray(profile["breakpoints"])
    dens = np.asarray(profile["densities"])
    mean = float(np.sum(dens * (breaks[1:] ** 2 - breaks[:-1] ** 2)) / 2.0)
    centre = mean - 2.0 + rng.uniform(-0.05, 0.05)
    half = 0.5 * rng.uniform(0.9, 1.1)
    return float(centre - half), float(centre + half)


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _flow_config(profile, q_a, q_r, n, dt, steps, record_every, interval):
    return {
        "profile": profile, "q_a": q_a, "q_r": q_r, "n": n,
        "dt": dt, "t_end": dt * steps, "record_every": record_every,
        "safety": SAFETY,
        "initial": {"kind": "uniform", "a": interval[0], "b": interval[1]},
    }


def generate(workload, seed, work):
    """Write the inputs of ``workload`` for ``seed`` into ``work``.

    Returns the jobs of one pass.

    A job is a dict with ``kind`` (``simulate``, ``energy-audit``, ``steady``,
    ``oracle-check`` or ``fourier``) and the paths it reads and writes,
    relative to ``work``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    if workload == "flow-rank-audit":
        profile = draw_profile(rng, pieces=4)
        _write(work / "profile.json", profile)
        _write(work / "flow.json", _flow_config(
            "profile.json", 2.0, 1.0, n=3200, dt=0.05, steps=2,
            record_every=1, interval=draw_interval(rng, profile)))
        return [{"kind": "simulate", "config": "flow.json", "out": "flow"},
                {"kind": "energy-audit", "out": "flow"}]

    # dense: one flow plus the steady, oracle and Fourier checks
    profile = draw_profile(rng, pieces=4)
    interval = draw_interval(rng, profile)
    _write(work / "profile.json", profile)
    _write(work / "flow.json", _flow_config(
        "profile.json", 1.8, 1.4, n=800, dt=0.01, steps=30,
        record_every=10, interval=interval))
    _write(work / "gaps.json", draw_profile(rng, pieces=5, gaps=True))
    _write(work / "steady.json",
           {"profile": "gaps.json", "q_a": 1.5, "q_r": 1.0, "n": 1600})
    _write(work / "oracle.json",
           {"profile": "profile.json", "q_a": 1.5, "q_r": 1.5, "n": 400})
    _write(work / "fourier.json",
           {"profile": "profile.json", "q_a": 1.5, "q_r": 1.5, "n": 800,
            "initial": {"kind": "uniform", "a": interval[0],
                        "b": interval[1]}})
    return [
        {"kind": "simulate", "config": "flow.json", "out": "flow"},
        {"kind": "steady", "config": "steady.json", "out": "steady"},
        {"kind": "oracle-check", "config": "oracle.json",
         "seed": int(rng.integers(2**31))},
        {"kind": "fourier", "config": "fourier.json"},
    ]
