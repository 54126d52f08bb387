"""Self-test of the benchmark: determinism of counts and seeded inputs.

    python3 bench/selftest.py [WORKLOAD ...]

For each workload (all by default): two traced passes on the same seed must
give identical work counts (``*.calls``, ``*.pairs``, ``*.terms``,
``*.bytes``, ``steady.drift_evals``) and identical per-job reference errors
(the flow's energy-balance error and the Fourier defect); the same
seed must write identical input files, and another seed different ones.
Exits 1 on the first mismatch.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from run import THREAD_PIN  # noqa: E402

COUNT_SUFFIXES = (".calls", ".pairs", ".terms", ".bytes", ".drift_evals")


def inputs(workload, seed, work):
    """Generated files of ``workload`` for ``seed``, as {name: bytes}."""
    gen.generate(workload, seed, work)
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


def traced_pass(work, tag):
    result = work / f"pass-{tag}.json"
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "pass", str(work),
         str(result), "--trace", str(work / f"spans-{tag}.jsonl")],
        cwd=ROOT, env=dict(os.environ, **THREAD_PIN), check=True,
        stdout=subprocess.DEVNULL, timeout=170)
    doc = json.loads(result.read_text())
    counts = {k: v for k, v in doc["layers"].items()
              if k.endswith(COUNT_SUFFIXES)}
    return counts, [job["rel_error"] for job in doc["jobs"]], doc["jobs"]


def check_workload(workload, base):
    seed = 7
    a = inputs(workload, seed, base / "a")
    if a != inputs(workload, seed, base / "b"):
        return "same seed, different inputs"
    if a == inputs(workload, seed + 1, base / "c"):
        return "different seed, same inputs"
    work = base / "a"
    (work / "jobs.json").write_text(
        json.dumps(gen.generate(workload, seed, work)))
    first, second = traced_pass(work, 1), traced_pass(work, 2)
    for jobs in (first[2], second[2]):
        failed = [job for job in jobs if job["problems"]]
        if failed:
            return f"failed jobs {failed}"
    if first[0] != second[0]:
        diff = {k: (v, second[0][k]) for k, v in first[0].items()
                if second[0][k] != v}
        return f"counts differ between runs: {diff}"
    if first[1] != second[1]:
        return f"per-job errors differ: {first[1]!r} != {second[1]!r}"
    nonzero = sum(1 for v in first[0].values() if v)
    errors = ", ".join(f"{e:.6g}" for e in first[1] if e is not None)
    print(f"{workload}: {nonzero} nonzero counts and per-job errors "
          f"[{errors}] repeat exactly; inputs follow the seed")
    return None


def main(argv):
    workloads = argv or list(gen.WORKLOADS)
    base = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        for workload in workloads:
            problem = check_workload(workload, base / workload)
            if problem:
                print(f"{workload}: FAIL - {problem}")
                return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.parent.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
