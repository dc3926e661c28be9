"""Serving observability: per-operation counters and latency histograms.

Every :class:`~repro.serving.engine.BatchQueryEngine` operation records
(wall-clock seconds, items served) into a :class:`ServingStats`.  Latencies
go into fixed log-spaced histograms, so percentile estimates (p50/p99) cost
O(#bins) memory regardless of traffic volume — the standard production
trade-off (exact min/max are tracked separately).  ``snapshot()`` returns a
JSON-safe dict consumed by the ``rne serve`` front door's ``--stats-out``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from .cache import LRUCache

__all__ = ["LatencyHistogram", "OpStats", "ServingStats"]


class LatencyHistogram:
    """Log-spaced latency histogram with conservative percentile estimates.

    Bins span ``lo`` .. ``hi`` seconds with ``bins_per_decade`` bins per
    decade; samples outside the span clamp to the edge bins.  Percentiles
    return the *upper edge* of the bin holding the requested quantile, so
    reported p50/p99 never understate the true latency by more than one
    bin width (~33% at the default resolution).
    """

    def __init__(
        self,
        *,
        lo: float = 1e-7,
        hi: float = 100.0,
        bins_per_decade: int = 8,
    ) -> None:
        if not 0 < lo < hi:
            raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
        if bins_per_decade < 1:
            raise ValueError(f"bins_per_decade must be >= 1, got {bins_per_decade}")
        decades = np.log10(hi / lo)
        num_edges = int(np.ceil(decades * bins_per_decade)) + 1
        self.edges = lo * np.power(10.0, np.arange(num_edges) / bins_per_decade)
        self.counts = np.zeros(num_edges + 1, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, seconds: float) -> None:
        """Add one latency sample (in seconds)."""
        if seconds < 0:
            raise ValueError(f"latency must be >= 0, got {seconds}")
        bin_idx = int(np.searchsorted(self.edges, seconds, side="left"))
        self.counts[bin_idx] += 1
        self.count += 1
        self.total += seconds
        self.min = seconds if self.min is None else min(self.min, seconds)
        self.max = seconds if self.max is None else max(self.max, seconds)

    def percentile(self, q: float) -> float:
        """Latency (seconds) at quantile ``q`` in [0, 100]; 0.0 when empty."""
        if not 0 <= q <= 100:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, int(np.ceil(q / 100.0 * self.count)))
        cum = np.cumsum(self.counts)
        bin_idx = int(np.searchsorted(cum, rank, side="left"))
        if bin_idx == 0:
            return float(self.edges[0])
        if bin_idx >= self.edges.size:
            # overflow bin: the exact max is the tightest honest answer
            return float(self.max if self.max is not None else self.edges[-1])
        return float(self.edges[bin_idx])

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class OpStats:
    """Counters + latency histogram for one serving operation."""

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0
        self.seconds = 0.0
        self.histogram = LatencyHistogram()

    def record(self, seconds: float, items: int) -> None:
        """Record one call serving ``items`` queries in ``seconds``."""
        self.calls += 1
        self.items += int(items)
        self.seconds += seconds
        self.histogram.record(seconds)

    @property
    def queries_per_second(self) -> float:
        """Throughput over the time actually spent inside the operation."""
        return self.items / self.seconds if self.seconds > 0 else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "calls": self.calls,
            "items": self.items,
            "seconds": self.seconds,
            "p50_us": self.histogram.percentile(50) * 1e6,
            "p99_us": self.histogram.percentile(99) * 1e6,
            "mean_us": self.histogram.mean * 1e6,
            "max_us": (self.histogram.max or 0.0) * 1e6,
            "queries_per_second": self.queries_per_second,
        }


class ServingStats:
    """All observability state of one engine: ops and registered caches."""

    #: Keep only this many most-recent live-update records in memory.
    MAX_UPDATE_RECORDS = 64

    def __init__(self) -> None:
        self.ops: Dict[str, OpStats] = {}
        self.caches: Dict[str, LRUCache] = {}
        #: JSON-safe records of live model updates applied to this engine
        #: (bounded ring; see :meth:`record_update`).
        self.updates: List[Dict[str, Any]] = []

    def op(self, name: str) -> OpStats:
        """The (auto-created) stats bucket for operation ``name``."""
        if name not in self.ops:
            self.ops[name] = OpStats()
        return self.ops[name]

    def register_cache(self, cache: LRUCache) -> LRUCache:
        """Track a cache so snapshots include its hit rate."""
        self.caches[cache.name] = cache
        return cache

    def record_update(self, record: Dict[str, Any]) -> None:
        """Append one live-update record (version swap, invalidation counts).

        Bounded to :data:`MAX_UPDATE_RECORDS` entries so a long-lived
        serving process does not grow without limit; snapshots expose the
        total count separately from the retained tail.
        """
        self.updates.append(dict(record))
        overflow = len(self.updates) - self.MAX_UPDATE_RECORDS
        if overflow > 0:
            del self.updates[:overflow]

    @contextmanager
    def timed(self, name: str, items: int) -> Iterator[None]:
        """Time a block and record it against operation ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.op(name).record(time.perf_counter() - start, items)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of every operation and cache."""
        return {
            "ops": {name: op.snapshot() for name, op in sorted(self.ops.items())},
            "caches": {
                name: cache.snapshot() for name, cache in sorted(self.caches.items())
            },
            "live_updates": list(self.updates),
        }

    def report(self) -> str:
        """Aligned text table of the snapshot (for CLI / bench output)."""
        lines = ["op           | calls | items | p50 us | p99 us | q/s"]
        lines.append("-" * len(lines[0]))
        for name, op in sorted(self.ops.items()):
            snap = op.snapshot()
            lines.append(
                f"{name:<12} | {snap['calls']:>5} | {snap['items']:>5} | "
                f"{snap['p50_us']:>6.1f} | {snap['p99_us']:>6.1f} | "
                f"{snap['queries_per_second']:.0f}"
            )
        for name, cache in sorted(self.caches.items()):
            snap = cache.snapshot()
            lines.append(
                f"cache {name}: hit_rate={snap['hit_rate']:.3f} "
                f"({snap['hits']} hits / {snap['misses']} misses, "
                f"size {snap['size']}/{snap['capacity']})"
            )
        return "\n".join(lines)
