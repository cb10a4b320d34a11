#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result line.

Usage::

    python3 perfbench/run.py --workload cold_plan --seed 1 --seconds 27 --trace 0

Run from a checkout of the repository; the program is imported from
``src/`` (and the daemon started from it), nothing is installed.
``--seconds`` fixes the run's op count through each workload's nominal
rate, so a seed and a ``--seconds`` value always give the same op
sequence however fast the ops run.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the same ops, traces every
other one and prints the per-layer metrics instead, writing every span
to ``.perfbench/trace-<workload>-<seed>.json``.  See
``perfbench/README.md`` for the workloads and metrics.

Exit codes: 0 after a run whose outputs all checked out; 1 after a run
with a wrong output or a ``utility_sum`` that differs from the last run
of the same code, workload, seed and op count (the result line is still
printed, with ``"correct": false``, unless too few verified plans are
left to report on); 2 without a result when the program is missing or
the run could not complete.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import traceback

from spans import Tracer
from stats import RecordTooSmall, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Everything a run writes (set-up payloads, journals, traces).
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("cold_plan", "serve_small", "serve_churn")
#: Fewest timed ops in a run: enough for a tail above the median.
MIN_OPS = 25


def _code_hash() -> str:
    """Content hash of the program and benchmark sources."""
    digest = hashlib.sha256()
    for top in (SRC, HERE):
        for folder, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def _check_repeatable(workload: str, seed: int, ops: int, utility: float):
    """Compare ``utility_sum`` with the last run of the same code and
    inputs; returns a mismatch message or None, and records this one."""
    path = os.path.join(OUT, f"utility-{workload}-{seed}-{ops}-{_code_hash()}.json")
    previous = None
    if os.path.exists(path):
        with open(path) as handle:
            previous = json.load(handle)["utility_sum"]
    with open(path, "w") as handle:
        json.dump({"utility_sum": utility}, handle)
    if previous is not None and previous != utility:
        return f"utility_sum {utility!r} differs from the last run's {previous!r}"
    return None


def _end_to_end(record):
    """End-to-end metric values of a record, plus its plan summary."""
    plan = summarize(record.plan_ms)
    ok = record.attempted - record.failed
    return {
        "setup_s": statistics.median(record.setup_s),
        "plan_ms.p50": plan.p50,
        "plan_ms.tail": plan.tail,
        "plans_per_s": ok / record.busy_s,
        "verified_frac": ok / record.attempted,
        "utility_sum": record.utility_sum,
        "peak_rss_mb": record.peak_rss_mb,
    }, plan


def _run(args) -> int:
    sys.path.insert(0, SRC)

    if args.workload == "cold_plan":
        import cold

        rate, runner = cold.OPS_PER_S, cold.run
    else:
        import serve

        if args.workload == "serve_small":
            rate, runner = serve.SMALL_OPS_PER_S, serve.run_small
        else:
            rate, runner = serve.CHURN_ROUNDS_PER_S, serve.run_churn
    ops = max(MIN_OPS, round(args.seconds * rate))
    scratch = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    tracer = Tracer()
    try:
        record = runner(args.seed, ops, tracer, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    mismatch = _check_repeatable(args.workload, args.seed, ops, record.utility_sum)
    if mismatch is not None:
        record.mismatches.append(mismatch)
    for problem in record.mismatches:
        print(f"  MISMATCH {problem}")
    try:
        end_to_end, plan = _end_to_end(record)
    except RecordTooSmall:
        if record.mismatches:
            return 1  # too few verified plans left to report on
        raise
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    values = record.layers if args.trace else end_to_end
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    }
    print(f"workload {args.workload}  seed {args.seed}  ops {ops}  "
          f"attempted {record.attempted}  failed {record.failed}")
    print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in record.setup_s)}")
    tail = f"p{plan.tail_pct:.1f}" if plan.tail_pct is not None else "omitted"
    print(f"  plan_ms: n={plan.n}  tail={tail}")
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']!r:>22} {metric['unit']}")
    for key, value in record.extra.items():
        if key != "absent":
            print(f"  {key:<28} {value!r:>22}")
    for layer, reason in record.extra.get("absent", {}).items():
        print(f"  absent {layer}: {reason}")
    if args.trace:
        tracer.write(
            os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
            {
                "workload": args.workload,
                "seed": args.seed,
                "ops": ops,
                "per_layer": record.layers,
                "extra": record.extra,
                "end_to_end": end_to_end,
            },
        )
    correct = not record.mismatches
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": record.attempted,
                "failed": record.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            "perfbench: no program at src/repro; run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    # Bytecode is built before any clock starts, so no set-up pays for it.
    compileall.compile_dir(SRC, quiet=1)
    os.makedirs(OUT, exist_ok=True)
    # A SIGTERM unwinds like an error, so the daemons get stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return _run(args)
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
