"""One benchmark process: a set-up sample or one pass over a workload's jobs.

    python3 bench/worker.py setup WORK
    python3 bench/worker.py pass WORK RESULT [--trace SPANS] [--timeout S]

``WORK`` holds the generated inputs and ``jobs.json``.  ``setup`` imports
``arflow.cli``, loads the first config, builds its initial state and its
``AttractionPotential``, and exits; the parent times it from spawn to exit.
``pass`` runs every job in this process through ``arflow.cli.main`` or
public library calls, checks each job's outputs, and writes wall time, peak
RSS, reference error and failures to ``RESULT`` as JSON.  Checks run outside
the timed and traced regions.  Each job runs under a timeout; a timeout is a
failed job.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# criterion 09's slack on energy monotonicity and criterion 10's tolerance
ENERGY_SLACK = 1e-10
FOURIER_TOL = 1e-3
FOURIER_Q = 1.5


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout


def setup(work):
    from arflow import cli
    from arflow.kernels import AttractionPotential
    from arflow.measures import MassQuadrature

    jobs = json.loads((work / "jobs.json").read_text())
    first = next(job for job in jobs if "config" in job)
    cfg = cli.RunConfig.load(work / first["config"])
    cfg.initial_state()
    AttractionPotential(cfg.profile, cfg.exps.q_a,
                        MassQuadrature.midpoint(cfg.profile, cfg.n))


# Jobs: run(work, job) returns a payload; check(work, job, payload) returns
# (problems, reference error or None).


def run_cli(work, job):
    """``arflow <kind>`` with the job's config, output directory and seed."""
    from arflow import cli

    argv = [job["kind"]]
    for key in ("config", "out"):
        if key in job:
            argv += [f"--{key}", str(work / job[key])]
    if "seed" in job:
        argv += ["--seed", str(job["seed"])]
    return cli.main(argv)


def run_fourier(work, job):
    """Fourier identity and balanced moment certificate by library calls."""
    from arflow import cli, energetics
    from arflow.kernels import Exponents
    from arflow.measures import MassQuadrature, sample_profile

    cfg = cli.RunConfig.load(work / job["config"])
    quad = MassQuadrature.midpoint(cfg.profile, cfg.n)
    X = cfg.initial_state()
    e_hat = energetics.fourier_energy(X, cfg.profile, FOURIER_Q,
                                      quad=quad).value
    e_tilde = energetics.tilde_energy(X, cfg.profile, FOURIER_Q, quad)
    exps = Exponents(FOURIER_Q, FOURIER_Q)
    reports = [
        energetics.make_report(0.0, X, cfg.profile, exps, quad),
        energetics.make_report(1.0, sample_profile(cfg.profile, cfg.n),
                               cfg.profile, exps, quad),
    ]
    cert = energetics.moment_certificate(reports, exps, cfg.profile,
                                         quad=quad)
    return {"e_hat": e_hat, "e_tilde": e_tilde, "certificate": cert.passed}


def _exit_problem(code):
    return [] if code == 0 else [f"exit code {code}"]


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def check_simulate(work, job, code):
    problems = _exit_problem(code)
    if problems:
        return problems, None
    out = work / job["out"]
    with open(out / "energy.csv", newline="") as fh:
        energies = [float(row["E"]) for row in csv.DictReader(fh)]
    summary = _load(out / "summary.json")
    config = _load(out / "config.json")
    if any(b - a > ENERGY_SLACK for a, b in zip(energies, energies[1:])):
        problems.append("energy increased")
    if not summary["slope_certificate"] > 0:
        problems.append("slope certificate not positive")
    w2_monotone = summary.get("w2_nonincreasing") is True
    if float(config["q_r"]) == 1.0 and not w2_monotone:
        problems.append("W2 to the steady state increased")
    drop = abs(energies[0] - energies[-1])
    return problems, summary["energy_balance_defect"] / drop


def check_energy_audit(work, job, code):
    problems = _exit_problem(code)
    if problems:
        return problems, None
    out = work / job["out"]
    audit = _load(out / "balance.json")["defect"]
    recorded = _load(out / "summary.json")["energy_balance_defect"]
    if audit != recorded:
        problems.append(f"audit defect {audit!r} != summary {recorded!r}")
    return problems, None


def check_steady(work, job, code):
    from arflow.kernels import Exponents
    from arflow.measures import InverseCDF, ReferenceProfile
    from arflow.steady import steady_residual

    problems = _exit_problem(code)
    if problems:
        return problems, None
    config = _load(work / job["config"])
    profile = ReferenceProfile.from_json(work / config["profile"])
    X = InverseCDF.from_csv(work / job["out"] / "steady.csv")
    residual = steady_residual(X, profile, Exponents(config["q_a"], 1.0))
    if not residual <= 5.0 / X.n:
        problems.append(f"steady residual {residual:.3e} > 5/n")
    return problems, None


def check_oracle(work, job, code):
    return _exit_problem(code), None


def check_fourier(work, job, payload):
    rel = abs(payload["e_hat"] - payload["e_tilde"]) / abs(payload["e_tilde"])
    problems = [] if rel <= FOURIER_TOL else [f"Fourier defect {rel:.3e}"]
    if not payload["certificate"]:
        problems.append("moment certificate failed")
    return problems, rel


JOBS = {
    "simulate": (run_cli, check_simulate),
    "energy-audit": (run_cli, check_energy_audit),
    "steady": (run_cli, check_steady),
    "oracle-check": (run_cli, check_oracle),
    "fourier": (run_fourier, check_fourier),
}


def run_pass(work, jobs, timeout, tracer=None):
    """Run and check every job once; return the pass result document."""
    import arflow.cli  # noqa: F401  (imports stay outside the timed region)

    for job in jobs:
        if "out" in job:
            shutil.rmtree(work / job["out"], ignore_errors=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    wall = 0.0
    results = []
    for index, job in enumerate(jobs):
        run, check = JOBS[job["kind"]]
        if tracer is not None:
            tracer.job = index
            tracer.enabled = True
        problems, rel = [], None
        signal.setitimer(signal.ITIMER_REAL, timeout)
        start = time.perf_counter()
        try:
            payload = run(work, job)
        except JobTimeout:
            problems = [f"timeout after {timeout:g} s"]
        except Exception as exc:  # a job that raises is a failed job
            problems = [f"raised {exc!r}"]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall += time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        if not problems:
            try:
                problems, rel = check(work, job, payload)
            except Exception as exc:  # unreadable output fails the check
                problems = [f"check raised {exc!r}"]
        results.append({"kind": job["kind"], "problems": problems,
                        "rel_error": rel})
    rels = [r["rel_error"] for r in results if r["rel_error"] is not None]
    return {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "rel_error": max(rels) if rels else None,
        "jobs": results,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("work", type=Path)
    parser.add_argument("result", type=Path, nargs="?")
    parser.add_argument("--trace", type=Path, help="write spans here")
    parser.add_argument("--timeout", type=float, default=60.0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.work)
        return 0
    jobs = json.loads((args.work / "jobs.json").read_text())
    tracer = None
    if args.trace is not None:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    doc = run_pass(args.work, jobs, args.timeout, tracer)
    if tracer is not None:
        tracer.write(args.trace)
        doc["layers"] = tracer.metrics()
        doc["self_s"] = dict(tracer.self_times())
        doc["drift_under_steady_s"] = tracer.drift_under_steady()[1]
    args.result.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
