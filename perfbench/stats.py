"""Sample statistics for the benchmark's timings.

A timing is reported as its median plus a tail taken on the *same*
sample: the highest nearest-rank percentile that still has at least
:data:`TAIL_BEYOND` samples above it.  With ``n`` samples sorted
ascending that is the value at 0-based rank ``n - 1 - TAIL_BEYOND``,
whose percentile is ``100 * (n - TAIL_BEYOND) / n``.  Below
:data:`MIN_TAIL_N` samples that rank would fall under the median, so
the tail is omitted instead of being faked; a record with fewer than
:data:`MIN_RECORD_N` ops is refused outright.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Samples that must lie beyond the reported tail value.
TAIL_BEYOND = 10
#: Smallest sample whose tail rank is not below the median rank.
MIN_TAIL_N = 2 * TAIL_BEYOND + 1
#: Smallest op count a record may be built from.
MIN_RECORD_N = 20


class RecordTooSmall(ValueError):
    """A record was built from fewer than :data:`MIN_RECORD_N` ops."""


@dataclass(frozen=True)
class Summary:
    """Median and tail of one sample (``tail`` is None when omitted)."""

    n: int
    p50: float
    tail: Optional[float]
    tail_pct: Optional[float]


def summarize(samples: Sequence[float]) -> Summary:
    """Median and same-sample tail of ``samples``."""
    n = len(samples)
    if n < MIN_RECORD_N:
        raise RecordTooSmall(
            f"{n} samples: a record needs at least {MIN_RECORD_N} ops"
        )
    ordered = sorted(samples)
    p50 = statistics.median(ordered)
    if n < MIN_TAIL_N:
        return Summary(n, p50, None, None)
    rank = n - 1 - TAIL_BEYOND
    return Summary(n, p50, ordered[rank], 100.0 * (n - TAIL_BEYOND) / n)


def peak_rss_mb(pid: object = "self") -> float:
    """A process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a flat set)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


@dataclass
class Record:
    """What one workload run measured, before it becomes metrics.

    ``plan_ms`` and ``traced`` run in op order over the ops that
    returned a verified plan; ``busy_s`` is the time the timed ops
    occupied (the benchmark's own checks between ops excluded).
    """

    setup_s: List[float]
    plan_ms: List[float] = field(default_factory=list)
    traced: List[bool] = field(default_factory=list)
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    utility_sum: float = 0.0
    peak_rss_mb: float = 0.0
    mismatches: List[str] = field(default_factory=list)
    layers: Dict[str, Optional[float]] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)

