"""Dijkstra-family exact shortest-path algorithms.

These serve three roles in the reproduction:

* the classical baseline whose latency motivates the paper,
* the ground-truth oracle that labels training samples
  (:func:`sssp_many`, backed by scipy's C implementation), and
* building blocks for CH / ALT / hub labels.

All functions treat the graph as undirected with positive weights, matching
the paper's setting.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy.sparse import csgraph

from ..graph import Graph

#: Distance value used for unreachable vertices.
INF = float("inf")


def dijkstra(graph: Graph, source: int, target: int | None = None) -> np.ndarray | float:
    """Single-source Dijkstra with optional early termination.

    With ``target`` given, returns the shortest distance to it (``inf`` when
    unreachable) and stops as soon as the target is settled; otherwise
    returns the full distance array.
    """
    dist = np.full(graph.n, INF, dtype=np.float64)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    settled = np.zeros(graph.n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if target is not None and u == target:
            return d
        nbrs = graph.neighbors(u)
        wgts = graph.neighbor_weights(u)
        for v, w in zip(nbrs, wgts):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    if target is not None:
        return float(dist[target])
    return dist


def dijkstra_path(graph: Graph, source: int, target: int) -> tuple[float, list[int]]:
    """Shortest distance and one shortest path (vertex sequence).

    Returns ``(inf, [])`` when the target is unreachable.
    """
    dist = np.full(graph.n, INF, dtype=np.float64)
    parent = np.full(graph.n, -1, dtype=np.int64)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    settled = np.zeros(graph.n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if u == target:
            break
        for v, w in zip(graph.neighbors(u), graph.neighbor_weights(u)):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    if not np.isfinite(dist[target]):
        return INF, []
    path = [target]
    while path[-1] != source:
        path.append(int(parent[path[-1]]))
    path.reverse()
    return float(dist[target]), path


def bidirectional_dijkstra(graph: Graph, source: int, target: int) -> float:
    """Bidirectional Dijkstra point-to-point distance.

    Searches alternately from both endpoints and stops once the best meeting
    distance cannot be improved (``top_f + top_b >= best``), which is the
    standard correct stopping rule on undirected graphs.
    """
    if source == target:
        return 0.0
    dist_f = {source: 0.0}
    dist_b = {target: 0.0}
    heap_f: list[tuple[float, int]] = [(0.0, source)]
    heap_b: list[tuple[float, int]] = [(0.0, target)]
    settled_f: set[int] = set()
    settled_b: set[int] = set()
    best = INF

    def expand(
        heap: list[tuple[float, int]],
        dist: dict[int, float],
        settled: set[int],
        other_dist: dict[int, float],
    ) -> float:
        nonlocal best
        d, u = heapq.heappop(heap)
        if u in settled:
            return d
        settled.add(u)
        for v, w in zip(graph.neighbors(u), graph.neighbor_weights(u)):
            v = int(v)
            nd = d + w
            if nd < dist.get(v, INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
            if v in other_dist:
                best = min(best, nd + other_dist[v])
        return d

    while heap_f and heap_b:
        if heap_f[0][0] + heap_b[0][0] >= best:
            break
        if heap_f[0][0] <= heap_b[0][0]:
            expand(heap_f, dist_f, settled_f, dist_b)
        else:
            expand(heap_b, dist_b, settled_b, dist_f)
    return best


def sssp_many(graph: Graph, sources: np.ndarray | list[int]) -> np.ndarray:
    """Distances from each source to every vertex, via scipy's C Dijkstra.

    Returns an array of shape ``(len(sources), n)``; unreachable entries are
    ``inf``.  This is the labelling oracle for training-sample generation —
    one SSSP per landmark/source is far cheaper than per-pair queries.

    The CSR matrix already stores both directions of every edge, so it runs
    in scipy's directed mode: the undirected mode would build a transpose
    and relax every arc twice, for the same distances.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        return np.empty((0, graph.n), dtype=np.float64)
    return np.asarray(
        csgraph.dijkstra(graph.to_csr_matrix(), directed=True, indices=sources),
        dtype=np.float64,
    )


def pair_distances(graph: Graph, pairs: np.ndarray) -> np.ndarray:
    """Exact distances for an array of ``(source, target)`` pairs.

    Groups pairs by source so each distinct source costs one SSSP run.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must have shape (k, 2), got {pairs.shape}")
    unique_sources, inverse = np.unique(pairs[:, 0], return_inverse=True)
    dists = sssp_many(graph, unique_sources)
    return dists[inverse, pairs[:, 1]]


def eccentricity(graph: Graph, source: int) -> float:
    """Largest finite shortest-path distance from ``source``."""
    dist = dijkstra(graph, source)
    finite = dist[np.isfinite(dist)]
    return float(finite.max()) if finite.size else 0.0


def graph_diameter_estimate(graph: Graph, *, probes: int = 4, seed: int = 0) -> float:
    """Cheap diameter lower bound via repeated farthest-vertex sweeps."""
    rng = np.random.default_rng(seed)
    u = int(rng.integers(graph.n))
    best = 0.0
    for _ in range(probes):
        dist = dijkstra(graph, u)
        dist = np.where(np.isfinite(dist), dist, -1.0)
        far = int(np.argmax(dist))
        best = max(best, float(dist[far]))
        u = far
    return best
