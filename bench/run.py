"""arflow benchmark: one seeded workload, end-to-end or traced per layer.

    python3 bench/run.py --workload dense --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  The run generates its inputs from
``--seed`` (bench/gen.py), then runs passes over the workload's jobs, each
pass in a fresh worker process (bench/worker.py), one after another (a
closed loop with one client) until ``--seconds`` have passed.  Every job's
outputs are checked.  After each untraced pass it times one
fresh-interpreter set-up, so set-up samples span the whole run.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` and ``wall_s`` as
the first quartile of the run's samples, ``peak_rss_mb`` and ``rel_error``
as medians.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (bench/spans.py) plus
``trace.overhead_s``; the spans of the last traced pass go to
``.bench_trace/``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402

MIN_PASSES = 4  # per kind of pass: untraced, and traced with --trace 1
JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0  # every run, however slow, ends before 180 s
# BLAS and OpenMP pools pinned to one thread in every worker
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("rel_error", "1"))


def _worker(args, limit):
    """Run bench/worker.py with ``args``; kill it after ``limit`` seconds."""
    env = dict(os.environ, **THREAD_PIN)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=limit, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode


class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.start = time.monotonic()
        self.work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.spans_path = ROOT / ".bench_trace" / f"{workload}-{seed}.jsonl"
        self.jobs = gen.generate(workload, seed, self.work)
        (self.work / "jobs.json").write_text(json.dumps(self.jobs))
        self.attempted = self.failed = 0
        self.problems = []
        self.setup = []

    def left(self):
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def setup_sample(self):
        begin = time.perf_counter()
        code = _worker(["setup", self.work], limit=max(self.left(), 1.0))
        if code != 0:
            raise RuntimeError(f"set-up worker exited with {code}")
        return time.perf_counter() - begin

    def one_pass(self, traced):
        """Run one pass in a fresh worker; return its result or None."""
        result = self.work / "pass.json"
        result.unlink(missing_ok=True)
        args = ["pass", self.work, result,
                "--timeout", min(JOB_TIMEOUT_S, max(self.left() - 5.0, 1.0))]
        if traced:
            args += ["--trace", self.spans_path]
        self.attempted += len(self.jobs)
        try:
            code = _worker(args, limit=max(self.left(), 1.0))
        except subprocess.TimeoutExpired:
            code = "killed at the run's time limit"
        if code != 0 or not result.is_file():
            self.failed += len(self.jobs)
            self.problems.append(f"pass worker: {code}")
            return None
        doc = json.loads(result.read_text())
        for job in doc["jobs"]:
            if job["problems"]:
                self.failed += 1
                self.problems.append(f"{job['kind']}: {job['problems']}")
        return doc

    def passes(self):
        """Passes until ``seconds`` are up; alternate traced ones if tracing.

        After ``MIN_PASSES`` of each kind, a pass starts only if a pass of
        median length still fits, so a run measures about ``seconds``.
        """
        kinds = [False, True] if self.trace else [False]
        done = {kind: [] for kind in kinds}
        lengths = []
        begin = time.monotonic()
        k = 0
        while self.left() > 10.0:
            if min(map(len, done.values())) >= MIN_PASSES and (
                    time.monotonic() - begin + statistics.median(lengths)
                    > self.seconds):
                break
            kind = kinds[k % len(kinds)]
            started = time.monotonic()
            doc = self.one_pass(kind)
            if not self.trace:
                self.setup.append(self.setup_sample())
            lengths.append(time.monotonic() - started)
            if doc is not None:
                done[kind].append(doc)
            k += 1
        return done


def describe(values):
    """Median, the highest percentile with ten samples beyond it, minimum."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g}"
    if n > 10:
        k = n - 10
        text += f", p{100.0 * k / n:.0f} {ordered[k - 1]:.6g}"
    return f"{text}, min {ordered[0]:.6g} (n={n})"


def first_quartile(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[0]


def end_to_end(run, docs):
    """Per-run values: the first quartile for times, the median otherwise.

    Load from other tenants of the host only ever slows a pass, and shifts
    by tens of percent over minutes; the fast end of many short passes is
    the least disturbed, and its first quartile does not hang on one lucky
    pass as the minimum does.
    """
    samples = {
        "setup_s": run.setup,
        "wall_s": [d["wall_s"] for d in docs],
        "peak_rss_mb": [d["peak_rss_mb"] for d in docs],
        "rel_error": [d["rel_error"] for d in docs
                      if d["rel_error"] is not None],
    }
    metrics = {}
    for name, unit in END_TO_END:
        if samples[name]:
            print(f"  {name:<12} [{unit}] {describe(samples[name])}")
            pick = first_quartile if unit == "s" else statistics.median
            metrics[name] = {"value": pick(samples[name]), "unit": unit}
    ratio = run.failed / run.attempted
    print(f"  {'failed_ratio':<12} [1] {ratio:.6g} "
          f"({run.failed} of {run.attempted} jobs)")
    return metrics


def fourier_defect(doc):
    """|Ê − Ẽ|/|Ẽ| of the pass's Fourier job; 0 on a workload without one.

    On ``dense`` the flow's larger error sets ``rel_error``, so the Fourier
    path's accuracy is reported here on its own.
    """
    return max((job["rel_error"] for job in doc["jobs"]
                if job["kind"] == "fourier" and job["rel_error"] is not None),
               default=0.0)


def per_layer(untraced, traced):
    metrics = {}
    for name, unit in spans.LAYER_METRICS:
        value = statistics.median(d["layers"][name] for d in traced)
        metrics[name] = {"value": value, "unit": unit}
    metrics["energetics.fourier_energy.rel_defect"] = {
        "value": statistics.median(map(fourier_defect, traced)), "unit": "1"}
    overhead = (min(d["wall_s"] for d in traced)
                - min(d["wall_s"] for d in untraced))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:.6g} {m['unit']}")
    # self-time shares of the last traced pass, largest first
    last = traced[-1]
    shares = dict(last["self_s"])
    drift = last["drift_under_steady_s"]
    shares["kernels.attraction_U"] -= drift
    shares["steady drift calls (kernels.attraction_U)"] = drift
    total = sum(shares.values())
    print("  self-time shares of the last traced pass:")
    for name, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        share = 100 * seconds / total
        print(f"    {name:<44} {seconds:9.4f} s  {share:5.1f}%")
    return metrics


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "arflow" / "cli.py").is_file():
        print(f"bench: no arflow sources at {ROOT / 'src' / 'arflow'}",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.setup_sample()  # fills the file cache, writes bytecode; not kept
        done = run.passes()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.work.parent.rmdir()
    if not done[False] or (run.trace and not done[True]):
        print("bench: no pass completed", file=sys.stderr)
        for problem in run.problems:
            print(f"  {problem}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{sum(map(len, done.values()))} passes, "
          f"{run.attempted} jobs attempted, {run.failed} failed")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    if run.trace:
        metrics = per_layer(done[False], done[True])
    else:
        metrics = end_to_end(run, done[False])
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
