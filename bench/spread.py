"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload dense --seeds 1-10 --seconds 55

For every end-to-end metric it prints the median of the per-run values and
the distance between their first and third quartiles as a share of the
median (``statistics.quantiles(values, n=4)``).  Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=55)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload:
        values = {}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, check=False)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n"
                      f"{out.stderr}")
                ok = False
                continue
            doc = json.loads(out.stdout.splitlines()[-1])
            ok = ok and doc["correct"]
            line = [f"{workload} seed {seed}: correct {doc['correct']}"]
            for name, metric in doc["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                line.append(f"{name} {metric['value']:.6g}")
            print(", ".join(line), flush=True)
        for name, vals in values.items():
            median = statistics.median(vals)
            if len(vals) >= 2 and median:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                share = f"{(q3 - q1) / abs(median):.4f}"
            else:
                share = "n/a"
            print(f"{workload} {name}: median {median:.6g}, "
                  f"IQR/median {share} over {len(vals)} runs", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
