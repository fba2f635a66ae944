#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs perfbench/run.py once per seed for each workload, one run at a time,
and prints per metric the median of the runs and the spread: the distance
between the first and third quartile (statistics.quantiles(values, n=4))
as a share of the median, beside the metric's bound in BENCHMARK.json.
A spread under a third of its bound is marked steady.

    python3 perfbench/spread.py --workloads attribution,serve --seeds 1-10

Each run's result line is appended to .bench_out/spread.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = ROOT / ".bench_out" / "spread.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            with log.open("a") as out:
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      **result}) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed op(s)",
                      file=sys.stderr)
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])

        print(f"\n{workload}: {len(args.seeds)} runs, {args.seconds:g} s each")
        print(f"{'metric':<14} {'median':>12} {'spread':>8} {'bound':>7}")
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            med = statistics.median(series)
            spread = (q3 - q1) / med if med else float("inf")
            mark = "steady" if spread < bounds[name] / 3 else "WIDE"
            if mark == "WIDE" and name != "setup_s":
                steady = False
            print(f"{name:<14} {med:>12.5g} {100 * spread:>7.2f}% "
                  f"{100 * bounds[name]:>6.1f}% {mark}")
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
