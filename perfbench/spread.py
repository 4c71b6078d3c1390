"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload sparse-outlier --seeds 1-10 --seconds 30
    python3 perfbench/spread.py --workload dense-matches --seeds 3,3 --trace 1

Runs `perfbench/run.py` once per seed, one run at a time, and prints for
each metric the median, the quartiles (`statistics.quantiles(n=4)`) and
the spread: the distance between the quartiles as a share of the median.
With a repeated seed and `--trace 1` it also shows whether counts repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high) + 1) if high else [int(low)])
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    names = results[0]["metrics"]
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0, "distinct": len(set(values)),
                     "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,1,1")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    results = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr, flush=True)
    summary = summarize(results)
    print(f"{'metric':44s} {'unit':>6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
    for name, s in summary.items():
        print(f"{name:44s} {s['unit']:>6s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
              f"{s['spread']:7.3f}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"correct: {all(r['correct'] for r in results)}; failed shares: {shares}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
