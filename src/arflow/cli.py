"""Command line: ``simulate``, ``steady``, ``oracle-check``, ``energy-audit``.

All inputs come from a single JSON config; outputs are deterministic CSV/JSON
artifacts (fixed reduction orders, no wall-clock values).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import energetics, steady
from .dynamics import IntegratorConfig, MonotonicityError, simulate
from .kernels import Exponents
from .measures import InverseCDF, ReferenceProfile, sample_profile, \
    uniform_state, wasserstein
from .particles import discrete_energy, particle_rhs

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_MONOTONICITY = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    doc: dict
    profile: ReferenceProfile
    exps: Exponents
    initial: InverseCDF
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
            # each key is popped where it is read; one left over is a typo
            rest = {**doc}  # a TypeError unless doc is an object
            # relative file names are taken from the config's directory
            base = Path(path).parent
            profile_path = base / rest.pop("profile")
            exps = Exponents(float(rest.pop("q_a")), float(rest.pop("q_r")))
            n = _integer(rest, "n", 400)
            if n < 16:
                raise ConfigError("n must be at least 16")
            integrator = IntegratorConfig(
                dt=float(rest.pop("dt", 1e-3)),
                t_end=float(rest.pop("t_end", 1.0)),
                safety=float(rest.pop("safety", 0.5)),
                record_every=_integer(rest, "record_every", 1),
            )
            fit = {k: rest.pop(k, None) for k in ("t_fit_lo", "t_fit_hi")}
            fit = {k: None if v is None else float(v) for k, v in fit.items()}
            if not all(v is None or np.isfinite(v) for v in fit.values()):
                raise ConfigError(f"t_fit_lo, t_fit_hi must be finite: {fit}")
            initial = rest.pop("initial", {})
            _no_leftovers(rest, "config")
            profile = ReferenceProfile.from_json(profile_path)
            return cls(
                doc=doc,
                profile=profile,
                exps=exps,
                initial=_initial(initial, base, profile, n),
                n=n,
                integrator=integrator,
                **fit,
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc

    def initial_state(self):
        """The initial state, under the name ``bench/worker.py`` calls."""
        return self.initial


def _integer(doc, key, default):
    """``doc.pop(key)`` as an int; a fractional value is not truncated."""
    value = doc.pop(key, default)
    if int(value) != value:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _no_leftovers(rest, where):
    """Refuse the keys that no reader popped from the ``where`` object."""
    if rest:
        raise ConfigError(f"unknown key(s) in {where}: "
                          f"{', '.join(sorted(rest))}")


def _initial(initial, base, profile, n):
    """The initial state on n nodes; a missing or corrupt CSV is exit 4."""
    if not isinstance(initial, dict):
        raise ConfigError(f"initial must be an object, got {initial!r}")
    rest = {**initial}
    kind = rest.pop("kind", "profile")
    if kind == "uniform":
        a, b = float(rest.pop("a")), float(rest.pop("b"))
        _no_leftovers(rest, "initial")
        return uniform_state(a, b, n)
    if kind == "csv":
        state_path = rest.pop("path", None)
        if not isinstance(state_path, str):
            raise ConfigError("csv initial needs a string path")
        _no_leftovers(rest, "initial")
        X = _read_state(base / state_path)
        if X.n != n:
            raise ConfigError(f"csv initial has {X.n} nodes, n is {n}")
        return X
    if kind == "profile":
        _no_leftovers(rest, "initial")
        return sample_profile(profile, n)
    raise ConfigError(f"unknown initial condition kind {kind!r}")


def fit_exponential_rate(t, y, t_lo, t_hi, floor=1e-300):
    """Least-squares slope of log y on t over [t_lo, t_hi], on the samples
    above ``floor``, with R^2; (None, None) with fewer than two such
    samples or a single time.

    The line is solved from the centred sums S_tt, S_tl and S_ll: the slope
    is S_tl / S_tt and R^2 is S_tl^2 / (S_tt S_ll), or 1 where S_ll = 0.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = (t >= t_lo) & (t <= t_hi) & (y > floor)
    if np.count_nonzero(mask) < 2:
        return None, None
    tt, dl = t[mask], np.log(y[mask])
    dt = tt - np.mean(tt)
    dl -= np.mean(dl)
    s_tt, s_tl, s_ll = float(dt @ dt), float(dt @ dl), float(dl @ dl)
    if s_tt == 0:
        return None, None
    # Cauchy-Schwarz bounds R^2 by 1; the rounded quotient can pass it
    r2 = 1.0 if s_ll == 0 else min(1.0, s_tl * s_tl / (s_tt * s_ll))
    return s_tl / s_tt, r2


def _rate_fit(cfg, name, t, y, scale, reference_error=0.0):
    """``rate_<name>``, ``r2_<name>`` and ``fit_<name>`` of an error y(t) of
    size ``scale``, as ``summary.json`` entries.

    Samples at or below the floor are dropped: the roundoff floor
    64 eps max(1, scale), or the error of the reference that y is measured
    to, if larger.  The default window is the later half of the samples
    above it; ``t_fit_lo`` and ``t_fit_hi`` each replace their end of it.
    """
    floor = max(float(64 * np.finfo(float).eps * max(1.0, scale)),
                reference_error)
    above = t[y > floor]
    t_lo, t_hi, kept = cfg.t_fit_lo, cfg.t_fit_hi, 0
    if above.size:
        t_lo = float(above[above.size // 2]) if t_lo is None else t_lo
        t_hi = float(above[-1]) if t_hi is None else t_hi
        kept = int(np.count_nonzero((above >= t_lo) & (above <= t_hi)))
    fit = {"floor": floor, "t_lo": t_lo, "t_hi": t_hi, "samples": kept}
    rate = r2 = None
    if kept < 2:
        fit["reason"] = (f"{kept} sample(s) above the roundoff floor in "
                         f"the window; a rate needs 2")
    else:
        rate, r2 = fit_exponential_rate(t, y, t_lo, t_hi, floor)
    return {f"rate_{name}": rate, f"r2_{name}": r2, f"fit_{name}": fit}


def _json_text(doc):
    """``doc`` as standard JSON; a NaN or infinity is an overflow (exit 3)."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise OverflowError(f"non-finite value in output: {exc}") from exc
    return text + "\n"


def cmd_simulate(config, out):
    cfg = RunConfig.load(config)
    try:
        traj = simulate(cfg.initial, cfg.profile, cfg.exps, cfg.integrator)
    except ValueError as exc:  # a tied initial state or the step-size guard
        raise ConfigError(str(exc)) from exc
    ss = (steady.steady_qr1(cfg.profile, cfg.exps.q_a, cfg.n)
          if cfg.exps.q_r == 1.0 else None)
    # a run that fails writes nothing, so every output is built first
    reports = [energetics.make_report(s.t, s.X, cfg.profile, cfg.exps)
               for s in traj.states]
    w2 = np.array([wasserstein(s.X, ss.Xstar, 2.0) for s in traj.states]
                  if ss is not None and ss.kind != "none_exists" else [])
    values = [(r.E, r.D, r.moment_qa, r.moment_r) for r in reports]
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(w2))):
        raise OverflowError("an energy report or a W2 distance overflowed")
    com = cfg.profile.com()
    com_err = np.array([abs(s.X.mean() - com) for s in traj.states])
    summary = {
        **_rate_fit(cfg, "com", traj.times, com_err, abs(com)),
        "min_dissipation": min(r.D for r in reports),
        "slope_certificate": traj.slope_certificate,
        "final_energy": reports[-1].E,
        "energy_balance_defect": energetics.energy_balance(reports)
        if len(reports) >= 2
        else None,
    }
    if w2.size:
        summary.update(
            final_w2_to_steady=float(w2[-1]),
            w2_nonincreasing=bool(np.all(np.diff(w2) <= 1e-10)),
            # X* from the bisection (1 < q_a < 2) is only good to its
            # bracket width, where the W2 series levels off
            **_rate_fit(cfg, "w2", traj.times, w2,
                        float(np.max(np.abs(ss.Xstar.x_values))),
                        steady._TOL if 1.0 < cfg.exps.q_a < 2.0 else 0.0),
        )
    files = [f"snapshot_{i:04d}.csv" for i in range(len(traj.states))]
    docs = {
        "index.json": {"times": [s.t for s in traj.states], "files": files,
                       "min_slope": [s.X.min_slope() for s in traj.states]},
        "config.json": {**cfg.doc, "profile_inline": cfg.profile.to_doc()},
        "summary.json": summary,
    }
    texts = {name: _json_text(doc) for name, doc in docs.items()}
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for state, name in zip(traj.states, files):
        state.X.to_csv(out / name)
    energetics.reports_to_csv(reports, out / "energy.csv")
    for name, text in texts.items():
        (out / name).write_text(text)
    return EXIT_OK


def cmd_steady(config, out):
    cfg = RunConfig.load(config)
    if cfg.exps.q_r != 1.0:
        raise ConfigError(
            f"steady builds only the q_r = 1 equilibrium, got q_r={cfg.exps.q_r}"
        )
    ss = steady.steady_qr1(cfg.profile, cfg.exps.q_a, cfg.n)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    if ss.Xstar is not None:
        ss.Xstar.to_csv(out / "steady.csv")
    (out / "steady.json").write_text(_json_text({
        "x_lo": ss.x_lo, "x_hi": ss.x_hi, "x_zero": ss.x_zero,
        "kind": ss.kind}))
    return EXIT_OK


ORACLE_PAIRS = [(1.7, 1.3), (1.2, 1.2), (2.0, 1.5), (2.0, 2.0), (1.4, 1.1)]
ORACLE_CASES = 10  # states drawn per exponent pair


def cmd_oracle_check(config, seed):
    cfg = RunConfig.load(config)
    # Python's seeded generator keeps numpy.random out of the process; the
    # modulus keeps a negative seed apart from its absolute value
    rng = random.Random(seed % 2**64)
    # states around the datum: the check is absolute, and far from the
    # origin roundoff in the datum terms grows with |x|
    centre = cfg.profile.com()
    worst_rhs = worst_energy = 0.0
    # the largest |value| compared, to put the absolute differences to scale
    scale_rhs = scale_energy = 0.0
    for q_a, q_r in ORACLE_PAIRS:
        exps = Exponents(q_a, q_r)
        for _ in range(ORACLE_CASES):
            # the top 53 of 64 random bits give a uniform double in [0, 1)
            u = (np.frombuffer(rng.randbytes(8 * cfg.n), dtype="<u8")
                 >> np.uint64(11)) * 2.0**-53
            X = InverseCDF(np.sort(centre + (-2.0 + 5.0 * u)))
            v = particle_rhs(X, cfg.profile, exps)
            e = discrete_energy(X, cfg.profile, exps)
            E, V = energetics.energy_and_velocity(X, cfg.profile, exps)
            # max() would drop a NaN difference
            if not (np.all(np.isfinite(v)) and np.all(np.isfinite(V))
                    and np.isfinite(e) and np.isfinite(E)):
                raise OverflowError(f"oracle-check: the rhs or energy at "
                                    f"({q_a}, {q_r}) is not finite")
            worst_rhs = max(worst_rhs, float(np.max(np.abs(V - v))))
            worst_energy = max(worst_energy, abs(E - e))
            scale_rhs = max(scale_rhs, float(np.max(np.abs(v))))
            scale_energy = max(scale_energy, abs(float(e)))
    # the gate is absolute, which assumes unit-scale data
    passed = worst_rhs <= 1e-12 and worst_energy <= 1e-12
    print(f"oracle-check: max rhs diff {worst_rhs:.3e} "
          f"(rel {_relative(worst_rhs, scale_rhs):.3e}), "
          f"max energy diff {worst_energy:.3e} "
          f"(rel {_relative(worst_energy, scale_energy):.3e}) -> "
          f"{'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _relative(diff, scale):
    """diff / scale, and 0 where both are 0."""
    return diff / scale if scale else diff


def _read_state(path):
    """A state CSV; a corrupt one is an i/o failure (exit 4)."""
    try:
        return InverseCDF.from_csv(path)
    except ValueError as exc:
        raise OSError(f"corrupt state CSV {path}: {exc}") from exc


def cmd_energy_audit(out):
    traj_dir = Path(out)
    try:
        with open(traj_dir / "index.json") as fh:
            index = json.load(fh)
        with open(traj_dir / "config.json") as fh:
            config_doc = json.load(fh)
        profile = ReferenceProfile.from_doc(config_doc["profile_inline"])
        exps = Exponents(float(config_doc["q_a"]), float(config_doc["q_r"]))
        times, files = np.array(index["times"], dtype=float), index["files"]
        # a name with a directory part could read another run's snapshot
        if not (times.shape == (len(files),) and np.all(np.isfinite(times))
                and np.all(np.diff(times) > 0)
                and all(isinstance(name, str) and Path(name).name == name
                        and name not in ("", "..") for name in files)):
            raise ValueError("index.json needs one bare file name (a string) "
                             "per time, the times finite and increasing")
    except (KeyError, TypeError, ValueError) as exc:
        # corrupt or incomplete metadata is an i/o failure (exit 4)
        raise OSError(
            f"corrupt trajectory metadata in {traj_dir}: {exc!r}"
        ) from exc
    if len(files) < 2:
        # the balance compares two snapshots; a t_end = 0 run has one
        raise OSError(
            f"trajectory in {traj_dir} has {len(files)} snapshot(s); "
            f"the energy balance needs at least two"
        )
    states = [_read_state(traj_dir / name) for name in files]
    n = config_doc.get("n", states[0].n)
    for name, X in zip(files, states):
        if X.n != n:
            raise OSError(f"corrupt trajectory in {traj_dir}: {name} has "
                          f"{X.n} nodes, the run has {n}")
    reports = [energetics.make_report(t, X, profile, exps)
               for t, X in zip(times.tolist(), states)]
    if not np.all(np.isfinite([(r.E, r.D, r.moment_qa, r.moment_r)
                               for r in reports])):
        raise OSError(f"corrupt trajectory in {traj_dir}: a report overflowed")
    defect = energetics.energy_balance(reports)
    doc = {
        "defect": defect,
        "E_initial": reports[0].E,
        "E_final": reports[-1].E,
        "min_dissipation": min(r.D for r in reports),
    }
    (traj_dir / "balance.json").write_text(_json_text(doc))
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
    sub = parser.add_subparsers(required=True)

    p_sim = sub.add_parser("simulate", help="run a simulation from a JSON config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(run=cmd_simulate)

    p_st = sub.add_parser("steady", help="construct the q_r = 1 steady state")
    p_st.add_argument("--config", required=True)
    p_st.add_argument("--out", required=True)
    p_st.set_defaults(run=cmd_steady)

    p_or = sub.add_parser("oracle-check", help="particle-oracle identity suite")
    p_or.add_argument("--config", required=True)
    p_or.add_argument("--seed", type=int, default=0)
    p_or.set_defaults(run=cmd_oracle_check)

    p_au = sub.add_parser("energy-audit", help="recompute the energy balance")
    p_au.add_argument("--out", required=True, help="trajectory directory")
    p_au.set_defaults(run=cmd_energy_audit)
    return parser


def main(argv=None):
    """Run one command on its parsed options; its checks refuse overflows."""
    args = vars(build_parser().parse_args(argv))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return args.pop("run")(**args)
    except (ConfigError, MemoryError) as exc:  # or an n too large for memory
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
