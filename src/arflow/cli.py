"""Batch driver: run simulations, steady-state builds, and energy audits.

All inputs come from a single JSON config; outputs are deterministic CSV/JSON
artifacts (fixed reduction orders, no wall-clock values).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import energetics, steady
from .dynamics import IntegratorConfig, MonotonicityError, rhs, simulate
from .kernels import AttractionPotential, Exponents, lipschitz_bound
from .measures import InverseCDF, ReferenceProfile, sample_profile, \
    uniform_state, wasserstein
from .particles import ParticleSystem, discrete_energy, particle_rhs

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_MONOTONICITY = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    profile: ReferenceProfile
    exps: Exponents
    initial: dict
    n: int
    integrator: IntegratorConfig
    t_fit_lo: float | None
    t_fit_hi: float | None

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            # relative file names are taken from the config's directory
            base = Path(path).parent
            profile = ReferenceProfile.from_json(base / doc["profile"])
            exps = Exponents(float(doc["q_a"]), float(doc["q_r"]))
            n = int(doc.get("n", 400))
            if n < 16:
                raise ConfigError("n must be at least 16")
            integrator = IntegratorConfig(
                dt=float(doc.get("dt", 1e-3)),
                t_end=float(doc.get("t_end", 1.0)),
                scheme=doc.get("scheme", "rk4"),
                safety=float(doc.get("safety", 0.5)),
                record_every=int(doc.get("record_every", 1)),
            )
            integrator.check_guard(lipschitz_bound(profile, exps.q_a))
            fit = {key: None if doc.get(key) is None else float(doc[key])
                   for key in ("t_fit_lo", "t_fit_hi")}
            initial = _checked_initial(doc.get("initial", {}))
            if initial.get("kind") == "csv":
                initial = {**initial, "path": base / initial["path"]}
            return cls(
                profile=profile,
                exps=exps,
                initial=initial,
                n=n,
                integrator=integrator,
                **fit,
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc

    def initial_state(self):
        kind = self.initial.get("kind", "profile")
        if kind == "uniform":
            return uniform_state(
                float(self.initial["a"]), float(self.initial["b"]), self.n
            )
        if kind == "csv":
            return _read_state(self.initial["path"])
        return sample_profile(self.profile, self.n)


def _checked_initial(initial):
    """``initial`` as given, once ``RunConfig.initial_state`` can build it.

    Only an unreadable or corrupt CSV file is left to fail there (exit 4).
    """
    if not isinstance(initial, dict):
        raise ConfigError(f"initial must be an object, got {initial!r}")
    kind = initial.get("kind", "profile")
    if kind == "uniform":
        a, b = float(initial["a"]), float(initial["b"])
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ConfigError(f"uniform initial needs finite a < b, "
                              f"got a={a}, b={b}")
    elif kind == "csv":
        if not isinstance(initial.get("path"), str):
            raise ConfigError("csv initial needs a string path")
    elif kind != "profile":
        raise ConfigError(f"unknown initial condition kind {kind!r}")
    return initial


def fit_exponential_rate(t, y, t_lo, t_hi, floor=1e-300):
    """OLS slope of log y over [t_lo, t_hi], with R^2."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = (t >= t_lo) & (t <= t_hi) & (y > floor)
    if np.count_nonzero(mask) < 2:
        return None, None
    tt, ly = t[mask], np.log(y[mask])
    slope, intercept = np.polyfit(tt, ly, 1)
    pred = slope * tt + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(config_path, out_dir):
    cfg = RunConfig.load(config_path)
    X0 = cfg.initial_state()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    reports = []

    def record(state):
        reports.append(
            energetics.make_report(state.t, state.X, cfg.profile, cfg.exps)
        )

    traj = simulate(X0, cfg.profile, cfg.exps, cfg.integrator, callback=record)

    files = []
    for i, state in enumerate(traj.states):
        name = f"snapshot_{i:04d}.csv"
        state.X.to_csv(out / name)
        files.append(name)
    _write_json(
        out / "index.json",
        {
            "times": [s.t for s in traj.states],
            "files": files,
            "min_slope": [s.min_slope for s in traj.states],
        },
    )
    energetics.reports_to_csv(reports, out / "energy.csv")
    with open(config_path) as fh:
        config_doc = json.load(fh)
    config_doc["profile_inline"] = {
        "breakpoints": list(cfg.profile.breakpoints),
        "densities": list(cfg.profile.densities),
    }
    _write_json(out / "config.json", config_doc)

    times = traj.times
    t_hi = cfg.t_fit_hi if cfg.t_fit_hi is not None else float(times[-1])
    t_lo = cfg.t_fit_lo if cfg.t_fit_lo is not None else t_hi / 2.0
    com_err = np.array(
        [abs(s.X.mean() - cfg.profile.com()) for s in traj.states]
    )
    rate_com, r2_com = fit_exponential_rate(times, com_err, t_lo, t_hi)

    summary = {
        "rate_com": rate_com,
        "r2_com": r2_com,
        "min_dissipation": min(r.D for r in reports),
        "slope_certificate": traj.slope_certificate,
        "final_energy": reports[-1].E,
        "energy_balance_defect": energetics.energy_balance(reports)
        if len(reports) >= 2
        else None,
    }
    if cfg.exps.q_r == 1.0:
        ss = steady.steady_qr1(cfg.profile, cfg.exps.q_a, cfg.n)
        if ss.kind != "none_exists":
            w2 = [wasserstein(s.X, ss.Xstar, 2.0) for s in traj.states]
            rate_w2, r2_w2 = fit_exponential_rate(times, np.array(w2), t_lo, t_hi)
            summary.update(
                {
                    "final_w2_to_steady": w2[-1],
                    "w2_nonincreasing": bool(
                        np.all(np.diff(w2) <= 1e-10)
                    ),
                    "rate_w2": rate_w2,
                    "r2_w2": r2_w2,
                }
            )
    _write_json(out / "summary.json", summary)
    return EXIT_OK


def cmd_steady(config_path, out_dir):
    cfg = RunConfig.load(config_path)
    if cfg.exps.q_r != 1.0:
        raise ConfigError(
            f"steady builds only the q_r = 1 equilibrium, got q_r={cfg.exps.q_r}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ss = steady.steady_qr1(cfg.profile, cfg.exps.q_a, cfg.n)
    if ss.Xstar is not None:
        ss.Xstar.to_csv(out / "steady.csv")
    _write_json(
        out / "steady.json",
        {"x_lo": ss.x_lo, "x_hi": ss.x_hi, "x_zero": ss.x_zero, "kind": ss.kind},
    )
    return EXIT_OK


ORACLE_PAIRS = [(1.7, 1.3), (1.2, 1.2), (2.0, 1.5), (2.0, 2.0), (1.4, 1.1)]


class _SplitMix64:
    """Uniform draws from the splitmix64 sequence, in numpy uint64 arithmetic.

    Deterministic per seed, and it keeps ``numpy.random`` (with ``hashlib``
    and ``secrets``) out of the process: importing it costs more than the
    draws.  Steele, Lea & Flood, OOPSLA 2014.
    """

    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed):
        self.state = seed % 2**64

    def uniform(self, lo, hi, n):
        k = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self.state) + k * np.uint64(self.GAMMA)  # wraps mod 2^64
        self.state = (self.state + n * self.GAMMA) % 2**64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        # the top 53 bits give a uniform double in [0, 1)
        return lo + (hi - lo) * ((z >> np.uint64(11)) * 2.0**-53)


def cmd_oracle_check(config_path, seed=0, cases=10):
    cfg = RunConfig.load(config_path)
    rng = _SplitMix64(seed)
    # states around the datum: the check is absolute, and far from the
    # origin roundoff in the datum terms grows with |x|
    centre = cfg.profile.com()
    worst_rhs = 0.0
    worst_energy = 0.0
    for q_a, q_r in ORACLE_PAIRS:
        exps = Exponents(q_a, q_r)
        pot = AttractionPotential(cfg.profile, q_a)
        for _ in range(cases):
            x = np.sort(centre + rng.uniform(-2.0, 3.0, cfg.n))
            X = InverseCDF(x)
            sys_ = ParticleSystem(x)
            dv = np.max(np.abs(rhs(X, pot, exps) -
                               particle_rhs(sys_, cfg.profile, exps)))
            de = abs(
                energetics.energy(X, cfg.profile, exps)
                - discrete_energy(sys_, cfg.profile, exps)
            )
            worst_rhs = max(worst_rhs, float(dv))
            worst_energy = max(worst_energy, float(de))
    passed = worst_rhs <= 1e-12 and worst_energy <= 1e-12
    print(f"oracle-check: max rhs diff {worst_rhs:.3e}, "
          f"max energy diff {worst_energy:.3e} -> "
          f"{'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _read_state(path):
    """A state CSV; a corrupt one is an i/o failure (exit 4)."""
    try:
        return InverseCDF.from_csv(path)
    except ValueError as exc:
        raise OSError(f"corrupt state CSV {path}: {exc}") from exc


def cmd_energy_audit(traj_dir):
    traj_dir = Path(traj_dir)
    try:
        with open(traj_dir / "index.json") as fh:
            index = json.load(fh)
        with open(traj_dir / "config.json") as fh:
            config_doc = json.load(fh)
        inline = config_doc["profile_inline"]
        profile = ReferenceProfile(
            np.array(inline["breakpoints"]), np.array(inline["densities"])
        )
        exps = Exponents(float(config_doc["q_a"]), float(config_doc["q_r"]))
        snapshots = list(zip(index["times"], index["files"]))
    except (KeyError, TypeError, ValueError) as exc:
        # corrupt or incomplete metadata is an i/o failure (exit 4)
        raise OSError(
            f"corrupt trajectory metadata in {traj_dir}: {exc!r}"
        ) from exc
    if len(snapshots) < 2:
        # the balance compares two snapshots; a t_end = 0 run has one
        raise OSError(
            f"trajectory in {traj_dir} has {len(snapshots)} snapshot(s); "
            f"the energy balance needs at least two"
        )
    reports = [
        energetics.make_report(t, _read_state(traj_dir / name),
                               profile, exps)
        for t, name in snapshots
    ]
    defect = energetics.energy_balance(reports)
    doc = {
        "defect": defect,
        "E_initial": reports[0].E,
        "E_final": reports[-1].E,
        "min_dissipation": min(r.D for r in reports),
    }
    _write_json(traj_dir / "balance.json", doc)
    print(f"energy-audit: defect {defect:.6e} "
          f"(E drop {reports[0].E - reports[-1].E:.6e})")
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def build_parser():
    """The ``arflow`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="arflow",
        description="1D attraction-repulsion gradient flow in quantile coordinates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a simulation from a JSON config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)

    p_st = sub.add_parser("steady", help="construct the q_r = 1 steady state")
    p_st.add_argument("--config", required=True)
    p_st.add_argument("--out", required=True)

    p_or = sub.add_parser("oracle-check", help="particle-oracle identity suite")
    p_or.add_argument("--config", required=True)
    p_or.add_argument("--seed", type=int, default=0)

    p_au = sub.add_parser("energy-audit", help="recompute the energy balance")
    p_au.add_argument("--out", required=True, help="trajectory directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out)
        if args.command == "steady":
            return cmd_steady(args.config, args.out)
        if args.command == "oracle-check":
            return cmd_oracle_check(args.config, seed=args.seed)
        if args.command == "energy-audit":
            return cmd_energy_audit(args.out)
        raise AssertionError(args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MonotonicityError, OverflowError) as exc:
        print(f"integration aborted: {exc}", file=sys.stderr)
        return EXIT_MONOTONICITY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
