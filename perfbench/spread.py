#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage::

    python3 perfbench/spread.py --workload cold_plan --seeds 1-10 [--seconds N]

Runs ``perfbench/run.py`` once per seed (sequentially), then prints for
each end-to-end metric the median of its values and the distance
between their first and third quartiles as a share of that median,
next to the metric's bound from ``BENCHMARK.json``.  A spread above a
third of its bound is flagged: such a metric is not steady enough to
gate a change.  Raw results are appended to ``.perfbench/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from stats import spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    values = {metric["name"]: [] for metric in bench["end_to_end"]}
    log = os.path.join(ROOT, ".perfbench", "spread.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a") as handle:
            handle.write(json.dumps({"workload": args.workload, "seed": seed,
                                     "result": result}) + "\n")
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)
    print(f"{'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        share = spread(values[name])
        flag = "" if share < metric["bound"] / 3 else "  <-- above a third of bound"
        print(f"{name:<16} {statistics.median(values[name]):>12.5g} "
              f"{share:>8.4f} {metric['bound']:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
