"""Bounded LRU cache with hit/miss accounting for the serving engine.

The engine caches two kinds of per-source state (see ``docs/SERVING.md``):

* *hot rows* — embedding-distance vectors from a source to a prepared
  target set, promoted after a source repeats, and
* *fallback SSSP trees* — full exact distance arrays for degraded serving,
  where one cached Dijkstra tree amortises every query from that source.

Both are keyed by small tuples and hold numpy arrays; eviction is strict
least-recently-used.  Counters are exposed so the observability layer can
report hit rates per cache.

Every operation holds the cache's re-entrant ``lock``: a live update
purges from the writer thread while readers look up and touch entries,
and an ``OrderedDict`` lookup followed by ``move_to_end`` (or a purge
iterating the entries) is not atomic under the GIL.  Uncontended, the
lock costs well under a microsecond per operation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """A fixed-capacity least-recently-used mapping with hit counters.

    Parameters
    ----------
    capacity:
        Maximum number of entries.  ``0`` disables the cache entirely —
        every lookup is a miss and nothing is ever stored.
    name:
        Label used in stats snapshots.
    """

    def __init__(self, capacity: int, *, name: str = "cache") -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        #: Guards entries and counters; callers may hold it around several
        #: operations (and state of their own) to make them one step.
        self.lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test; does not touch recency or counters."""
        return key in self._data

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value (marking it most recent) or ``None``."""
        with self.lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return None
            self.hits += 1
            self._data.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/update an entry, evicting the least recent beyond capacity."""
        if self.capacity == 0:
            return
        with self.lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries; counters are preserved."""
        with self.lock:
            self.invalidations += len(self._data)
            self._data.clear()

    def purge(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``.

        The live-update path uses this to evict entries keyed to a stale
        embedding version while keeping still-valid ones (e.g. SSSP trees
        when only the model, not the graph, changed).  Returns the number
        of entries dropped; they count as *invalidations*, not evictions —
        capacity pressure and staleness are different signals.
        """
        with self.lock:
            stale = [key for key in self._data if predicate(key)]
            for key in stale:
                del self._data[key]
            self.invalidations += len(stale)
            return len(stale)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view of the cache's counters and occupancy."""
        with self.lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": self.hit_rate,
                "size": len(self._data),
                "capacity": self.capacity,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LRUCache(name={self.name!r}, size={len(self._data)}/"
            f"{self.capacity}, hit_rate={self.hit_rate:.3f})"
        )
