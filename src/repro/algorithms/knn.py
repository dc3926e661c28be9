"""Exact network-distance kNN and range queries (ground truth).

Used to score the approximate indexes of Sec. VI: a Dijkstra expansion from
the source settles targets in increasing true-distance order, so stopping
after ``k`` targets (or past the range threshold) is exact.

Result-ordering contract (shared with :class:`repro.core.index.EmbeddingTreeIndex`
and :mod:`repro.serving`):

* **kNN** returns targets in ascending ``(distance, vertex id)`` order and
  silently returns ``min(k, #reachable unique targets)`` results when the
  target set (or the reachable part of it) is smaller than ``k``.
* **Range** returns the matching targets as ascending sorted vertex ids.
* Target sets are treated as *sets*: duplicate ids contribute one result;
  unreachable targets are never returned.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..graph import Graph


def knn_true(graph: Graph, source: int, targets: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` targets nearest to ``source`` by true network distance.

    Targets settle in ascending distance order; with positive edge weights
    every vertex at a given distance is already queued (with its final
    distance) when the first of them pops, so the heap's ``(d, id)`` tuple
    comparison yields ascending ``(distance, vertex id)`` output.  Returns
    ``min(k, #reachable unique targets)`` results — fewer than ``k`` when
    the heap drains first — matching ``RNE.knn``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    is_target = np.zeros(graph.n, dtype=bool)
    is_target[np.asarray(targets, dtype=np.int64)] = True
    dist = np.full(graph.n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    settled = np.zeros(graph.n, dtype=bool)
    found: list[int] = []
    while heap and len(found) < k:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if is_target[u]:
            found.append(u)
        for v, w in zip(graph.neighbors(u), graph.neighbor_weights(u)):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return np.array(found, dtype=np.int64)


def range_true(
    graph: Graph, source: int, targets: np.ndarray, tau: float
) -> np.ndarray:
    """All targets within true network distance ``tau`` of ``source``.

    Returns ascending sorted vertex ids (the range contract); duplicate
    target ids contribute a single result.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    is_target = np.zeros(graph.n, dtype=bool)
    is_target[np.asarray(targets, dtype=np.int64)] = True
    dist = np.full(graph.n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    settled = np.zeros(graph.n, dtype=bool)
    found: list[int] = []
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        if d > tau:
            break  # everything still queued is farther than tau
        settled[u] = True
        if is_target[u]:
            found.append(u)
        for v, w in zip(graph.neighbors(u), graph.neighbor_weights(u)):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return np.array(sorted(found), dtype=np.int64)
