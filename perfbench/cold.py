"""The ``cold_plan`` workload: the library path, one thread, cold every op.

Each op takes a distinct 60x1000 instance, pre-encoded as JSON, and
runs :func:`layers.plan_op` on it: decode, build-cache registration,
index build, the ``DeDPO+RG`` solve, the oracle gate and the reply
encode.  Content never repeats, so nothing carries over between ops
(the build cache keeps its 4 most recent instances alive regardless).
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time

from repro.core import build_cache
from repro.verify import verify_schedules

import inputs
from layers import plan_op
from spans import Tracer, layer_metrics
from stats import Record, peak_rss_mb

#: Nominal ops per second of ``--seconds``; the op count is fixed by
#: the arguments, never by how fast the ops happen to run.
OPS_PER_S = 1.1
#: Set-ups per run, spread over the run; ``setup_s`` is their median.
SETUPS = 3


def _setup_time(payload_path: str) -> float:
    """Imports + one warm-up op in a fresh interpreter, in seconds."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    out = subprocess.run(
        [sys.executable, probe, payload_path],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout
    return float(out.strip().splitlines()[-1])


def run(seed: int, ops: int, tracer: Tracer, trace: bool, scratch: str) -> Record:
    seeds = [inputs.op_seed("cold_plan", seed, i) for i in range(ops)]
    # Payloads wait on disk, each read back just before its op, so the
    # peak RSS of this process is the program's plus one payload, not
    # the whole run's inputs.
    payload_paths = []
    for op, op_seed in enumerate(seeds):
        path = os.path.join(scratch, f"cold_{op}.json")
        with open(path, "wb") as handle:
            handle.write(
                inputs.encode_instance(inputs.make_instance(inputs.COLD_DIMS, op_seed))
            )
        payload_paths.append(path)
    warmup = inputs.encode_instance(
        inputs.make_instance(inputs.COLD_DIMS, inputs.WARMUP_SEED)
    )
    warmup_path = os.path.join(scratch, "cold_warmup.json")
    with open(warmup_path, "wb") as handle:
        handle.write(warmup)
    # Set-ups are spread over the run, between ops, so their median
    # does not hinge on one moment's machine load.
    setup_before = {round(k * ops / SETUPS) for k in range(SETUPS)}
    record = Record(setup_s=[])

    if plan_op(warmup, tracer, -1)[0] is None:
        raise RuntimeError("warm-up plan failed the program's oracle")
    cache0 = build_cache.stats()
    counters = []
    for op, path in enumerate(payload_paths):
        if op in setup_before:
            record.setup_s.append(_setup_time(warmup_path))
        with open(path, "rb") as handle:
            payload = handle.read()
        gc.collect()
        traced = tracer.enabled = trace and op % 2 == 1
        start = time.perf_counter()
        reply, op_counters = plan_op(payload, tracer, op)
        elapsed = time.perf_counter() - start
        tracer.enabled = False
        record.attempted += 1
        record.busy_s += elapsed
        if reply is None:
            record.failed += 1
            continue
        own = inputs.make_instance(inputs.COLD_DIMS, seeds[op])
        body = json.loads(reply)
        schedules = {int(u): evs for u, evs in body["schedules"].items()}
        report = verify_schedules(own, schedules, reported_utility=body["total_utility"])
        if not report.ok:
            record.failed += 1
            record.mismatches.append(f"op {op}: {report.summary()}")
            continue
        record.utility_sum += report.recomputed_utility
        record.plan_ms.append(elapsed * 1e3)
        record.traced.append(traced)
        if op_counters is not None:
            counters.append(op_counters)
    record.peak_rss_mb = peak_rss_mb()
    if trace:
        cache1 = build_cache.stats()
        hits = cache1["hits"] - cache0["hits"]
        misses = cache1["misses"] - cache0["misses"]
        record.layers = layer_metrics(
            tracer,
            counters,
            hits / (hits + misses) if hits + misses else 0.0,
            record.plan_ms,
            record.traced,
        )
        record.extra["absent"] = {
            "executor.fork_ipc_ms": "the library path runs in-process, no fork",
            "server.overhead_ms": "no server on the library path",
            "admission.*": "no admission control on the library path",
            "deltas.* / journal.* / mutate_ms": "cold_plan applies no mutations",
        }
    return record
