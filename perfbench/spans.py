"""Spans recorded around calls into the program's layers.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index
of the enclosing span (``-1`` at top level) and ``op`` the id of the
benchmark op it belongs to.  Spans live in memory and are written out
once, when the benchmark ends.  A disabled tracer records nothing and
its :meth:`Tracer.span` is a bare ``yield``, so an untraced run and an
untraced op inside a traced run execute the same calls.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, int, int]


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.enabled = False

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, op))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, op)

    def record(
        self, name: str, op: int, seconds: float, parent: Optional[int] = None
    ) -> int:
        """Add a span measured elsewhere (a forked child, the server).

        It ends now, or inside ``parent`` when given; returns its index.
        """
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
            end = time.perf_counter()
        else:
            end = self.spans[parent][1] + seconds
        self.spans.append((name, end - seconds, end, parent, op))
        return len(self.spans) - 1

    def per_op_ms(self, name: str, self_time: bool = False) -> Dict[int, float]:
        """``{op: total ms in spans called name}``; with ``self_time``
        each span's direct children are subtracted."""
        totals: Dict[int, float] = {}
        child_ms: Dict[int, float] = {}
        if self_time:
            for span in self.spans:
                parent = span[3]
                if parent >= 0 and self.spans[parent][0] == name:
                    child_ms[parent] = child_ms.get(parent, 0.0) + (
                        span[2] - span[1]
                    ) * 1e3
        for index, (span_name, start, end, _, op) in enumerate(self.spans):
            if span_name == name:
                ms = (end - start) * 1e3 - child_ms.get(index, 0.0)
                totals[op] = totals.get(op, 0.0) + ms
        return totals

    def median_ms(self, name: str, self_time: bool = False) -> Optional[float]:
        """Median over ops of the per-op time in ``name`` (None if absent)."""
        values = list(self.per_op_ms(name, self_time).values())
        return statistics.median(values) if values else None

    def write(self, path: str, summary: Dict[str, object]) -> None:
        """Dump every span plus the run's layer summary as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "summary": summary,
                    "spans": [
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                        for name, start, end, parent, op in self.spans
                    ],
                },
                handle,
            )


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    counters: List[Dict[str, int]],
    hit_frac: float,
    plan_ms: List[float],
    traced: List[bool],
) -> Dict[str, Optional[float]]:
    """The per-layer metrics every workload reports.

    Times are medians over traced ops of the time an op spent in the
    layer; ``*_frac`` values are ratios of counts summed over the run's
    traced solves.  ``trace.overhead_frac`` compares the median
    ``plan_ms`` of traced ops against that of untraced ops of the same
    run.
    """

    def total(key: str) -> int:
        return sum(c.get(key, 0) for c in counters)

    def median_count(key: str) -> Optional[float]:
        values = [c.get(key, 0) for c in counters]
        return float(statistics.median(values)) if values else None

    on = [ms for ms, flag in zip(plan_ms, traced) if flag]
    off = [ms for ms, flag in zip(plan_ms, traced) if not flag]
    return {
        "io.decode_ms": tracer.median_ms("io.decode"),
        "io.encode_ms": tracer.median_ms("io.encode"),
        "build_cache.fingerprint_ms": tracer.median_ms("build_cache.fingerprint"),
        "build_cache.hit_frac": hit_frac,
        "candidates.index_build_ms": tracer.median_ms("candidates.index_build"),
        "candidates.pruned_frac": _frac(
            total("candidates_pruned_lemma1"),
            total("candidates_pruned_lemma1") + total("candidates_surviving"),
        ),
        "decomposed.solve_ms": tracer.median_ms("decomposed.solve"),
        "dp.states_expanded": median_count("dp_states_expanded"),
        "dp.states_kept_frac": _frac(
            total("dp_states_kept"), total("dp_states_expanded")
        ),
        "dp_batch.user_frac": _frac(total("dp_batch_users"), total("users")),
        "engine.memo_hit_frac": _frac(
            total("sched_cache_hits"),
            total("sched_cache_hits") + total("sched_cache_misses"),
        ),
        "ratio_greedy.augment_ms": tracer.median_ms(
            "algorithms.solve", self_time=True
        ),
        "ratio_greedy.pairs_added": median_count("rg_pairs_added"),
        "oracle.verify_ms": tracer.median_ms("oracle.verify"),
        "trace.overhead_frac": (
            statistics.median(on) / statistics.median(off) - 1.0
            if on and off
            else None
        ),
    }

