"""The served workloads: ``repro-usep serve`` driven over HTTP.

The daemon runs unmodified in its own process (``python -m repro.cli
serve``), booted here and stopped before the run ends.  Requests are
sent from closed loops: a connection sends its next request only once
the previous reply has been read.

* ``serve_small`` — default daemon (fork per request, oracle on, no
  journal), :data:`SMALL_CONNECTIONS` connections, each ``POST /solve``
  carrying a distinct 12x60 instance.
* ``serve_churn`` — daemon with ``--journal-dir`` and the default
  snapshot cadence, one connection, one registered 60x1000 instance;
  each round is a ``POST /mutate`` batch then a ``POST /solve`` by
  ``instance_id``.

Replies are checked against the benchmark's own copy of each instance.
With ``--trace 1`` the server-side stages are replayed here on that
copy, in the state the server solves in, and timed as spans.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.core import build_cache
from repro.core.deltas import apply_mutations
from repro.io import instance_from_dict, instance_to_dict, mutations_from_list
from repro.service.journal import InstanceJournal
from repro.verify import verify_schedules

import inputs
from layers import forked_split, record_solve
from spans import Tracer, layer_metrics
from stats import Record, peak_rss_mb, summarize

#: Nominal requests per second of ``--seconds`` (see cold.OPS_PER_S).
SMALL_OPS_PER_S = 22
CHURN_ROUNDS_PER_S = 1.1
#: Daemon set-ups per run: serve_small boots this many before its
#: phase (keeping the last) and as many after it; serve_churn spreads
#: its set-ups over the rounds.  ``setup_s`` is their median.
SMALL_SETUPS_EACH_SIDE = 2
CHURN_SETUPS = 3
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Closed-loop connections of ``serve_small``.
SMALL_CONNECTIONS = 2
#: The daemon's default journal compaction cadence (``--snapshot-every``).
SNAPSHOT_EVERY = 64
_BOOT_TIMEOUT_S = 60.0


class Server:
    """One ``repro-usep serve`` process on an ephemeral port."""

    def __init__(self, extra_args: List[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *extra_args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.port: Optional[int] = None

    def wait_ready(self) -> None:
        """Block until the announce line, then require ``/readyz`` 200."""
        ready, _, _ = select.select([self.proc.stdout], [], [], _BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        prefix = "serving on http://"
        if not line.startswith(prefix):
            raise RuntimeError(f"server did not announce itself: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])
        client = Client(self.port)
        try:
            status, _ = client.request("GET", "/readyz")
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"/readyz answered {status}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (the daemon drains and exits), SIGKILL if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Client:
    """One keep-alive HTTP connection to the daemon."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        if response.status >= 400:
            self.conn.close()  # the daemon closes error connections
        return response.status, data

    def close(self) -> None:
        self.conn.close()


def _boot(args: List[str], after_ready=None) -> Tuple[Server, float, object]:
    """Boot a daemon; ``(server, set-up seconds, after_ready result)``."""
    start = time.perf_counter()
    server = Server(args)
    try:
        server.wait_ready()
        extra = after_ready(server) if after_ready is not None else None
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start, extra


def _boot_repeatedly(args: List[str], repeats: int, keep: bool = True):
    """Boot ``repeats`` daemons; ``(last server or None, set-up times)``.

    Every daemon but the last is stopped; the last too unless ``keep``.
    """
    times = []
    for index in range(repeats):
        server, seconds, _ = _boot(args)
        times.append(seconds)
        if index < repeats - 1 or not keep:
            server.stop()
    return (server if keep else None), times


def _stats(client: Client) -> Dict[str, int]:
    """Admission and build-cache counters from ``/stats``, flattened."""
    status, data = client.request("GET", "/stats")
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    stats = json.loads(data)
    counters = dict(stats["counters"])
    counters.update(
        {f"build_cache_{k}": v for k, v in stats["build_cache"].items()}
    )
    counters["journal_snapshots"] = stats.get("journal", {}).get("snapshots", 0)
    return counters


def _plan_body(status: Optional[int], data: bytes) -> Optional[Dict]:
    """The reply of a full-quality verified plan, else None (a failure:
    non-200, shed, or a degraded rung)."""
    if status != 200:
        return None
    body = json.loads(data)
    if body.get("status") != "ok" or body.get("rung") != 0 or not body.get("verified"):
        return None
    return body


def _schedules(body: Dict) -> Dict[int, List[int]]:
    return {int(user): events for user, events in body["schedules"].items()}


def _replay_solve(tracer: Tracer, op: int, instance, body: Dict, verify_s: float):
    """Replay a served solve's server-side stages on ``instance``.

    Mirrors the daemon's order: fingerprint (inside
    ``get_or_register``), index build, the forked solve, the oracle
    (timed by the benchmark's own check) and the reply encode.
    Returns the solve's profiled counters.
    """
    with tracer.span("build_cache.fingerprint", op):
        build_cache.instance_fingerprint(instance)
    with tracer.span("candidates.index_build", op):
        build_cache.prepare_build(instance)
    total_s, base_s, counters = forked_split(instance)
    record_solve(tracer, op, total_s, base_s)
    tracer.record("oracle.verify", op, verify_s)
    with tracer.span("io.encode", op):
        json.dumps(body)
    return counters


#: Replayed stages of a solve request outside the reply's
#: ``wall_time_s`` (which covers fork, solve, IPC and the oracle); a
#: solve by ``instance_id`` decodes no instance.
_OUTSIDE_WALL = ("build_cache.fingerprint", "candidates.index_build", "io.encode")


def _served_layers(
    tracer: Tracer,
    counters: List[Dict[str, int]],
    stats0: Dict[str, int],
    stats1: Dict[str, int],
    record: Record,
    solves: Dict[int, Tuple[float, Dict]],
    outside_wall: Tuple[str, ...] = _OUTSIDE_WALL,
) -> None:
    """Fill ``record.layers`` and the serve-only metrics.

    ``solves`` maps each traced op to its solve round trip (ms) and
    reply body.  ``executor.fork_ipc_ms`` is the reply's
    ``wall_time_s`` minus its ``solve_time_s`` and the replayed oracle;
    ``server.overhead_ms`` is the round trip minus ``wall_time_s`` and
    the replayed stages outside it.
    """
    delta = {key: stats1[key] - stats0.get(key, 0) for key in stats1}
    lookups = delta["build_cache_hits"] + delta["build_cache_misses"]
    record.layers = layer_metrics(
        tracer,
        counters,
        delta["build_cache_hits"] / lookups if lookups else 0.0,
        record.plan_ms,
        record.traced,
    )
    verify = tracer.per_op_ms("oracle.verify")
    outside = [tracer.per_op_ms(name) for name in outside_wall]
    fork_ipc, overhead = [], []
    for op, (rtt_ms, body) in solves.items():
        wall_ms = body["wall_time_s"] * 1e3
        fork_ipc.append(wall_ms - body["solve_time_s"] * 1e3 - verify.get(op, 0.0))
        overhead.append(rtt_ms - wall_ms - sum(per.get(op, 0.0) for per in outside))
    received = delta["received"]
    record.extra.update(
        {
            "executor.fork_ipc_ms": statistics.median(fork_ipc) if fork_ipc else None,
            "server.overhead_ms": statistics.median(overhead) if overhead else None,
            "admission.shed_frac": delta["shed"] / received if received else 0.0,
            "admission.degraded_frac": (
                delta["degraded"] / received if received else 0.0
            ),
        }
    )


def run_small(seed: int, ops: int, tracer: Tracer, trace: bool, scratch: str) -> Record:
    seeds = [inputs.op_seed("serve_small", seed, i) for i in range(ops)]
    bodies = [
        json.dumps(
            {"instance": instance_to_dict(inputs.make_instance(inputs.SMALL_DIMS, s))}
        ).encode()
        for s in seeds
    ]
    warm_body = json.dumps(
        {
            "instance": instance_to_dict(
                inputs.make_instance(inputs.SMALL_DIMS, inputs.WARMUP_SEED)
            )
        }
    ).encode()

    server, setup_s = _boot_repeatedly([], SMALL_SETUPS_EACH_SIDE)
    record = Record(setup_s=setup_s)
    results: List[Optional[Tuple[Optional[int], bytes, float]]] = [None] * ops
    try:
        control = Client(server.port)
        status, _ = control.request("POST", "/solve", warm_body)
        if status != 200:
            raise RuntimeError(f"warm-up solve answered {status}")
        stats0 = _stats(control)
        lock = threading.Lock()
        cursor = [0]

        def loop() -> None:
            client = Client(server.port)
            try:
                while True:
                    with lock:
                        op = cursor[0]
                        cursor[0] += 1
                    if op >= ops:
                        return
                    start = time.perf_counter()
                    try:
                        status, data = client.request("POST", "/solve", bodies[op])
                    except (OSError, http.client.HTTPException) as exc:
                        client.close()
                        status, data = None, repr(exc).encode()
                    results[op] = (status, data, time.perf_counter() - start)
            finally:
                client.close()

        threads = [threading.Thread(target=loop) for _ in range(SMALL_CONNECTIONS)]
        # The client's inputs live through the whole phase: freezing
        # them keeps the client's own GC passes short (GC stays on).
        gc.collect()
        gc.freeze()
        phase_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        record.busy_s = time.perf_counter() - phase_start
        gc.unfreeze()
        stats1 = _stats(control)
        record.peak_rss_mb = server.peak_rss_mb()
        control.close()
    finally:
        server.stop()
    record.setup_s += _boot_repeatedly([], SMALL_SETUPS_EACH_SIDE, keep=False)[1]

    counters: List[Dict[str, int]] = []
    solves: Dict[int, Tuple[float, Dict]] = {}
    for op, (status, data, seconds) in enumerate(results):
        record.attempted += 1
        body = _plan_body(status, data)
        if body is None:
            record.failed += 1
            continue
        own = inputs.make_instance(inputs.SMALL_DIMS, seeds[op])
        start = time.perf_counter()
        report = verify_schedules(
            own, _schedules(body), reported_utility=body["utility"]
        )
        verify_s = time.perf_counter() - start
        if not report.ok:
            record.failed += 1
            record.mismatches.append(f"op {op}: {report.summary()}")
            continue
        traced = trace and op % 2 == 1
        record.utility_sum += report.recomputed_utility
        record.plan_ms.append(seconds * 1e3)
        record.traced.append(traced)
        if traced:
            tracer.enabled = True
            with tracer.span("io.decode", op):
                instance = instance_from_dict(json.loads(bodies[op])["instance"])
            counters.append(_replay_solve(tracer, op, instance, body, verify_s))
            tracer.enabled = False
            solves[op] = (seconds * 1e3, body)
    if trace:
        _served_layers(
            tracer,
            counters,
            stats0,
            stats1,
            record,
            solves,
            ("io.decode",) + _OUTSIDE_WALL,
        )
        record.extra["absent"] = {
            "deltas.* / journal.* / mutate_ms": "serve_small applies no mutations",
        }
    return record


def _check_mutate(status, data, batch_len: int, version: int) -> Optional[str]:
    """Why a ``/mutate`` reply disagrees with the local copy, or None."""
    if status != 200:
        return f"/mutate answered {status}: {data[:200]!r}"
    body = json.loads(data)
    if body.get("applied") != batch_len or body.get("durable") is not True:
        return f"/mutate applied {body.get('applied')}/{batch_len}, durable={body.get('durable')}"
    if body.get("version") != version:
        return f"/mutate reached version {body.get('version')}, local copy {version}"
    return None


def run_churn(seed: int, rounds: int, tracer: Tracer, trace: bool, scratch: str) -> Record:
    base_dict = instance_to_dict(
        inputs.make_instance(inputs.CHURN_DIMS, inputs.CHURN_BASE_SEED)
    )
    base_payload = json.dumps(base_dict).encode()
    register_body = json.dumps({"instance": base_dict}).encode()
    # Batches applied untimed after set-up, so the daemon's compaction
    # (every SNAPSHOT_EVERY batches) lands mid-way through the rounds.
    pre = max(0, SNAPSHOT_EVERY - rounds // 2)
    batches = inputs.churn_batches(base_payload, seed, pre + rounds)

    def journal_dir(index: int) -> str:
        path = os.path.join(scratch, f"journal-{index}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def register_and_solve(server: Server):
        client = Client(server.port)
        try:
            status, data = client.request("POST", "/instances", register_body)
            if status != 200:
                raise RuntimeError(f"/instances answered {status}")
            instance_id = json.loads(data)["instance_id"]
            solve_body = json.dumps({"instance_id": instance_id}).encode()
            status, data = client.request("POST", "/solve", solve_body)
        finally:
            client.close()
        return instance_id, solve_body, status, data

    server, seconds, (instance_id, solve_body, status, data) = _boot(
        ["--journal-dir", journal_dir(0)], register_and_solve
    )
    record = Record(setup_s=[seconds])
    # The other set-ups run between rounds, spread over the run, each
    # on a daemon of its own that is stopped right after.
    setup_before = {
        pre + round(k * rounds / CHURN_SETUPS) for k in range(1, CHURN_SETUPS)
    }
    local = instance_from_dict(json.loads(base_payload))
    build_cache.prepare_build(local)
    replay_journal = (
        InstanceJournal.create(
            journal_dir(-1), "inst-replay", instance_to_dict(local)
        )
        if trace
        else None
    )
    since_snapshot = 0
    mutate_ms: List[float] = []
    counters: List[Dict[str, int]] = []
    solves: Dict[int, Tuple[float, Dict]] = {}
    try:
        first = _plan_body(status, data)
        if first is None or not verify_schedules(
            local, _schedules(first), reported_utility=first["utility"]
        ).ok:
            raise RuntimeError("the set-up solve did not return a verified plan")
        mutate_bodies = [
            json.dumps(
                {"instance_id": instance_id, "seq": seq, "mutations": batch}
            ).encode()
            for seq, batch in enumerate(batches, start=1)
        ]
        client = Client(server.port)
        stats0 = _stats(client)
        for index, (batch, mutate_body) in enumerate(zip(batches, mutate_bodies)):
            if index in setup_before:
                probe, seconds, _ = _boot(
                    ["--journal-dir", journal_dir(index)], register_and_solve
                )
                probe.stop()
                record.setup_s.append(seconds)
            op = index - pre
            timed = op >= 0
            traced = trace and timed and op % 2 == 1
            if timed:
                gc.collect()
                record.attempted += 1
            start = time.perf_counter()
            status, data = client.request("POST", "/mutate", mutate_body)
            mutate_s = time.perf_counter() - start

            tracer.enabled = traced
            if traced:
                with tracer.span("io.decode", op):
                    mutations_from_list(json.loads(mutate_body)["mutations"])
            with tracer.span("deltas.apply", op):
                apply_mutations(local, mutations_from_list(batch))
            problem = _check_mutate(status, data, len(batch), local.version)
            if problem is not None:
                record.mismatches.append(f"batch {index + 1}: {problem}")
                record.failed += int(timed)
                break
            if replay_journal is not None:
                with tracer.span("journal.append", op):
                    replay_journal.append_mutations(batch, index + 1, local.version)
                since_snapshot += 1
                if since_snapshot >= SNAPSHOT_EVERY:
                    tracer.enabled = True
                    with tracer.span("journal.compact", op):
                        replay_journal.compact(
                            instance_to_dict(local), index + 1, local.version
                        )
                    tracer.enabled = traced
                    since_snapshot = 0
            tracer.enabled = False
            if not timed:
                continue

            start = time.perf_counter()
            status, data = client.request("POST", "/solve", solve_body)
            solve_s = time.perf_counter() - start
            record.busy_s += mutate_s + solve_s
            mutate_ms.append(mutate_s * 1e3)
            body = _plan_body(status, data)
            if body is None:
                record.failed += 1
                continue
            start = time.perf_counter()
            report = verify_schedules(
                local, _schedules(body), reported_utility=body["utility"]
            )
            verify_s = time.perf_counter() - start
            if not report.ok or body.get("instance_version") != local.version:
                record.failed += 1
                record.mismatches.append(
                    f"round {op}: version {body.get('instance_version')} vs "
                    f"{local.version}: {report.summary()}"
                )
                continue
            record.utility_sum += report.recomputed_utility
            record.plan_ms.append(solve_s * 1e3)
            record.traced.append(traced)
            if traced:
                tracer.enabled = True
                counters.append(_replay_solve(tracer, op, local, body, verify_s))
                tracer.enabled = False
                solves[op] = (solve_s * 1e3, body)
            else:
                # Keep the copy in the daemon's state: it fingerprints
                # and prepares the build before every solve.
                build_cache.instance_fingerprint(local)
                build_cache.prepare_build(local)
        stats1 = _stats(client)
        record.peak_rss_mb = server.peak_rss_mb()
        client.close()
    finally:
        server.stop()
        if replay_journal is not None:
            replay_journal.close()
    mutate = summarize(mutate_ms)
    record.extra.update(
        {
            "mutate_ms.p50": mutate.p50,
            "mutate_ms.tail": mutate.tail,
            "mutate_ms.tail_pct": mutate.tail_pct,
            "mutate_ms.n": mutate.n,
            "journal.snapshots": stats1["journal_snapshots"] - stats0["journal_snapshots"],
        }
    )
    if trace:
        _served_layers(tracer, counters, stats0, stats1, record, solves)
        record.extra.update(
            {
                "deltas.apply_ms": tracer.median_ms("deltas.apply"),
                "journal.append_ms": tracer.median_ms("journal.append"),
                "journal.compact_ms": tracer.median_ms("journal.compact"),
            }
        )
    return record
