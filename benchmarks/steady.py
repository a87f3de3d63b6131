"""Steadiness report: run one workload repeatedly and compare its spread with the bounds.

    python3 benchmarks/steady.py --workload cli-calls --runs 10 --seed 1

Runs ``benchmarks/run.py`` once per seed (seed, seed+1, ...), with the run
length from BENCHMARK.json unless ``--seconds`` is given, and prints for each
end-to-end metric the median and quartiles across runs, the quartile spread as
a share of the median, and the metric's bound.  A spread within a third of
the bound is marked "steady"; within the bound, "within"; beyond it, "WIDE".
``setup_s`` is judged on its median only, so its spread is shown but not
marked.  Each run's wall time and JSON line are echoed to standard error as it
completes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first run")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    runs = []
    for seed in range(args.seed, args.seed + args.runs):
        command = [sys.executable, *spec["command"][1:], "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, timeout=600)
        elapsed = time.perf_counter() - start
        lines = done.stdout.decode().strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stderr.decode(), file=sys.stderr)
            print(f"seed {seed}: exit code {done.returncode}, no result", file=sys.stderr)
            return 1
        print(f"seed {seed} ({elapsed:.1f} s): {lines[-1]}", file=sys.stderr, flush=True)
        runs.append(json.loads(lines[-1]))

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(f"{args.workload}: {args.runs} runs of {args.seconds} s, seeds {args.seed}.."
          f"{args.seed + args.runs - 1}, {failed}/{attempted} ops failed")
    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        median, q1, q3, share = spread([run["metrics"][name]["value"] for run in runs])
        if name == "setup_s":
            verdict = ""
        elif share <= metric["bound"] / 3:
            verdict = "steady"
        elif share <= metric["bound"]:
            verdict = "within"
        else:
            verdict = "WIDE"
        print(f"{name:<14} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>8.3f} "
              f"{metric['bound']:>6.2f} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
