"""Calls into the program's layers, with optional spans around each.

:func:`plan_op` is the whole library op of the ``cold_plan`` workload;
:func:`split_solve` and :func:`in_fork` replay the solve stage of a
served request in the state the server solves in (a forked child of a
process that never solved the instance, so the child's memo is the
parent's).  Layer names follow the program's modules.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import time
import traceback
from typing import Callable, Dict, Optional, Tuple

from repro.algorithms import make_solver
from repro.core import build_cache, instrument
from repro.io import instance_from_dict, planning_to_dict
from repro.verify import verify_schedules

from spans import Tracer

#: The server's default algorithm, solved by every workload.
ALGORITHM = "DeDPO+RG"


def _base_timed(solver, on_done: Callable[[float], None]) -> None:
    """Time the base solver of a ``+RG`` composition into ``on_done``."""
    base = getattr(solver, "base_solver", None)
    if base is None:
        return
    inner = base.solve

    def solve(instance):
        start = time.perf_counter()
        try:
            return inner(instance)
        finally:
            on_done(time.perf_counter() - start)

    base.solve = solve


def split_solve(instance) -> Tuple[object, float, Optional[float], Dict[str, int]]:
    """Solve with profiling on; ``(planning, total_s, base_s, counters)``.

    ``base_s`` is the decomposed Step 1 + 2 solve inside the ``+RG``
    composition (None if the solver has no base); ``total_s - base_s``
    is the augmentation's self time.
    """
    solver = make_solver(ALGORITHM)
    box = {}
    _base_timed(solver, lambda seconds: box.__setitem__("base", seconds))
    with instrument.profiled() as prof:
        start = time.perf_counter()
        planning = solver.solve(instance)
        total = time.perf_counter() - start
        counters = dict(prof)
    counters.update(getattr(solver, "counters", {}))
    counters["users"] = instance.num_users
    return planning, total, box.get("base"), counters


def record_solve(tracer: Tracer, op: int, total_s: float, base_s: Optional[float]):
    """Record a solve measured by :func:`split_solve` as two spans."""
    parent = tracer.record("algorithms.solve", op, total_s)
    if base_s is not None:
        tracer.record("decomposed.solve", op, base_s, parent=parent)


def plan_op(payload: bytes, tracer: Tracer, op: int):
    """Decode, index, solve, verify and encode one instance payload.

    Returns ``(reply bytes or None, counters or None)``: the reply is
    None when the program's own oracle gate rejected the plan, and
    counters are collected only while the tracer is on.
    """
    with tracer.span("io.decode", op):
        instance = instance_from_dict(json.loads(payload))
    with tracer.span("build_cache.fingerprint", op):
        build_cache.instance_fingerprint(instance)
    with tracer.span("build_cache.get_or_register", op):
        instance, _hit = build_cache.get_or_register(instance)
    with tracer.span("candidates.index_build", op):
        build_cache.prepare_build(instance)
    counters = None
    if tracer.enabled:
        planning, total_s, base_s, counters = split_solve(instance)
        record_solve(tracer, op, total_s, base_s)
    else:
        planning = make_solver(ALGORITHM).solve(instance)
    with tracer.span("oracle.verify", op):
        report = verify_schedules(
            instance, planning.as_dict(), reported_utility=planning.total_utility()
        )
    if not report.ok:
        return None, counters
    with tracer.span("io.encode", op):
        reply = json.dumps(planning_to_dict(planning)).encode()
    return reply, counters


def in_fork(fn: Callable, *args):
    """Run ``fn(*args)`` in a forked child and return its result.

    The child disables the cyclic GC, as the program's supervised
    executor does, and always leaves through ``os._exit``.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            gc.disable()
            os.close(read_fd)
            try:
                blob = pickle.dumps((True, fn(*args)))
            except Exception:
                blob = pickle.dumps((False, traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(blob)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        blob = pipe.read()
    os.waitpid(pid, 0)
    ok, value = pickle.loads(blob)
    if not ok:
        raise RuntimeError(f"forked replay failed:\n{value}")
    return value


def forked_split(instance) -> Tuple[float, Optional[float], Dict[str, int]]:
    """:func:`split_solve` in a forked child, without the planning."""

    def child():
        _planning, total_s, base_s, counters = split_solve(instance)
        return total_s, base_s, counters

    return in_fork(child)
