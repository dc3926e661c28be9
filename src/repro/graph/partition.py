"""Multilevel graph partitioning.

The hierarchical RNE model (Sec. IV of the paper) is built on recursive graph
partitioning; the paper uses the multilevel scheme of Karypis & Kumar [17].
This module implements that scheme from scratch:

1. **Coarsening** — repeated heavy-edge matching merges matched vertex pairs
   until the graph is small.
2. **Initial partitioning** — greedy weighted region growing on the coarsest
   graph.
3. **Uncoarsening + refinement** — the partition is projected back level by
   level and improved with boundary Kernighan–Lin / Fiduccia–Mattheyses
   style moves.

``bisect`` produces a balanced 2-way split; ``partition_kway`` applies it
recursively for arbitrary ``k``.  Both operate on vertex-weighted graphs so
that recursion and coarsening preserve balance in terms of original
vertices.

Array layout
------------
Every level is a :class:`_WeightedGraph` in CSR form: row ``u`` lists its
neighbours in ``adj[indptr[u]:indptr[u + 1]]`` with the edge weights at the
same positions of ``adjw``; ``vwgt[u]`` counts the original vertices merged
into ``u``.  Coarsening and refinement are numpy passes over these arrays.
Heavy-edge matching and region growing stay sequential, over Python lists
taken from them.

Identity contract
-----------------
Ties decide the result: matching takes the first heaviest neighbour, region
growing the first strongest frontier vertex, refinement the lowest-id vertex
of best gain, and near-equal sums can swap any of these.  The arrays
therefore fix two things, so that a seed always gives the same partition:

* **Neighbour order.**  ``from_graph`` lists each row by ascending id.
  ``_contract`` lists coarse neighbours in the order their pair is first
  met when scanning fine vertices ``u`` ascending, each row in order, and
  keeping only edges ``u < v``.
* **Sequential sums.**  Every edge-weight or gain sum adds its terms left to
  right from 0.0, in row order: ``np.bincount(..., weights=)`` does this;
  ``np.sum`` and ``np.add.reduceat`` switch to pairwise summation above 8
  terms and may round differently.  Refinement recomputes a vertex's sums
  from scratch after a move instead of adding ``±w`` deltas, which round
  differently too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph


@dataclass
class _Level:
    """One coarsening level: the coarse graph plus the fine->coarse map."""

    graph: "_WeightedGraph"
    fine_to_coarse: np.ndarray


class _WeightedGraph:
    """CSR graph with vertex weights (merge counts); see the module notes."""

    def __init__(
        self,
        indptr: np.ndarray,
        adj: np.ndarray,
        adjw: np.ndarray,
        vwgt: np.ndarray,
    ) -> None:
        self.n = int(vwgt.size)
        self.indptr = indptr
        self.adj = adj
        self.adjw = adjw
        self.vwgt = vwgt

    @classmethod
    def from_graph(cls, graph: Graph) -> "_WeightedGraph":
        indptr, dst, wgt = graph.csr_arrays()
        src = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(indptr))
        order = np.lexsort((dst, src))
        return cls(indptr, dst[order], wgt[order], np.ones(graph.n, dtype=np.float64))

    def row_ids(self) -> np.ndarray:
        """Source vertex of every adjacency entry."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))

    def total_vwgt(self) -> float:
        return float(self.vwgt.sum())


def _heavy_edge_matching(
    wg: _WeightedGraph, rng: np.random.Generator
) -> np.ndarray:
    """Match each vertex with its heaviest unmatched neighbour.

    Returns ``match`` where ``match[u]`` is u's partner (or ``u`` itself if
    unmatched).  Heavier edges are contracted first because collapsing them
    loses the least cut information.
    """
    ptr, adj, adjw = wg.indptr.tolist(), wg.adj.tolist(), wg.adjw.tolist()
    match = [-1] * wg.n
    for u in rng.permutation(wg.n).tolist():
        if match[u] != -1:
            continue
        best, best_w = u, -1.0
        for i in range(ptr[u], ptr[u + 1]):
            v = adj[i]
            if match[v] == -1 and adjw[i] > best_w:
                best, best_w = v, adjw[i]
        match[u] = best
        match[best] = u
    return np.array(match, dtype=np.int64)


def _contract(wg: _WeightedGraph, match: np.ndarray) -> _Level:
    """Build the coarse graph induced by a matching."""
    # Coarse ids follow the pairs' leaders (their smaller vertex) in order.
    fine = np.arange(wg.n, dtype=np.int64)
    leader_rank = np.cumsum(match >= fine) - 1
    fine_to_coarse = leader_rank[np.minimum(fine, match)]
    nc = int(leader_rank[-1]) + 1
    vwgt = np.bincount(fine_to_coarse, weights=wg.vwgt, minlength=nc)

    # Each fine edge u < v joining two coarse vertices adds its weight to
    # both directions of its coarse pair.  Interleaving the two directions
    # keeps array order equal to scan order, so a stable sort by pair lists
    # each pair's contributions in the order they are met.
    src = wg.row_ids()
    cu, cv = fine_to_coarse[src], fine_to_coarse[wg.adj]
    cross = (src < wg.adj) & (cu != cv)
    cu, cv, w = cu[cross], cv[cross], wg.adjw[cross]
    rows = np.column_stack([cu, cv]).ravel()
    cols = np.column_stack([cv, cu]).ravel()
    pair = rows * nc + cols
    order = np.argsort(pair, kind="stable")
    first = np.ones(order.size, dtype=bool)
    first[1:] = pair[order[1:]] != pair[order[:-1]]
    sums = np.bincount(np.cumsum(first) - 1, weights=np.repeat(w, 2)[order])
    seen = order[first]  # where each pair is first met
    by_seen = np.lexsort((seen, rows[seen]))
    indptr = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[seen], minlength=nc), out=indptr[1:])
    coarse = _WeightedGraph(indptr, cols[seen][by_seen], sums[by_seen], vwgt)
    return _Level(coarse, fine_to_coarse)


def _initial_bisection(
    wg: _WeightedGraph, target_frac: float, rng: np.random.Generator
) -> np.ndarray:
    """Greedy region growing: grow part 0 from a random seed until it holds
    ``target_frac`` of the total vertex weight."""
    ptr, adj, adjw = wg.indptr.tolist(), wg.adj.tolist(), wg.adjw.tolist()
    vwgt = wg.vwgt.tolist()
    total = wg.total_vwgt()
    side = np.ones(wg.n, dtype=np.int8)
    seed = int(rng.integers(wg.n))
    frontier = [seed]
    in_part = [False] * wg.n
    # conn[u]: weight from u into part 0, summed in row order; it changes
    # only when a neighbour of u joins, and is then summed afresh.
    conn = [0.0] * wg.n
    grown = 0.0
    while frontier and grown < target_frac * total:
        # Pull the frontier vertex with the strongest connection to part 0.
        best_i, best_gain = 0, -np.inf
        for i, u in enumerate(frontier):
            if conn[u] > best_gain:
                best_i, best_gain = i, conn[u]
        u = frontier.pop(best_i)
        if in_part[u]:
            continue
        in_part[u] = True
        side[u] = 0
        grown += vwgt[u]
        for v in adj[ptr[u] : ptr[u + 1]]:
            conn[v] = sum(adjw[j] for j in range(ptr[v], ptr[v + 1]) if in_part[adj[j]])
            if not in_part[v]:
                frontier.append(v)
    # Unreached vertices of a disconnected graph fall to part 1, which is
    # safe: refinement may still move them.
    return side


def _refine(
    wg: _WeightedGraph,
    side: np.ndarray,
    target_frac: float,
    *,
    passes: int = 4,
    imbalance: float = 0.1,
) -> np.ndarray:
    """Boundary KL/FM refinement.

    Repeatedly moves the boundary vertex with the best cut-gain whose move
    keeps both sides within ``imbalance`` of their target weights; ties go
    to the lowest id.  Each pass visits every boundary vertex at most once
    (FM-style locking).  ``gain`` is external minus internal edge weight,
    kept per vertex and recomputed in row order for the moved vertex and
    its neighbours.
    """
    total = wg.total_vwgt()
    target0 = target_frac * total
    low0 = target0 * (1.0 - imbalance)
    high0 = target0 * (1.0 + imbalance)
    weight0 = float(wg.vwgt[side == 0].sum())

    src = wg.row_ids()
    same = side[src] == side[wg.adj]
    internal = np.bincount(src, weights=np.where(same, wg.adjw, 0.0), minlength=wg.n)
    external = np.bincount(src, weights=np.where(same, 0.0, wg.adjw), minlength=wg.n)
    gain = external - internal
    ptr, adj, adjw = wg.indptr.tolist(), wg.adj.tolist(), wg.adjw.tolist()
    sides = side.tolist()

    for _ in range(passes):
        moved_any = False
        locked = np.zeros(wg.n, dtype=bool)
        # A positive gain implies external weight, i.e. a boundary vertex.
        movable = gain > 0.0
        while True:
            cand = np.flatnonzero(movable)
            vw = wg.vwgt[cand]
            new_w0 = np.where(side[cand] == 0, weight0 - vw, weight0 + vw)
            cand = cand[(low0 <= new_w0) & (new_w0 <= high0)]
            if cand.size == 0:
                break
            u = int(cand[np.argmax(gain[cand])])
            if sides[u] == 0:
                weight0 -= wg.vwgt[u]
            else:
                weight0 += wg.vwgt[u]
            sides[u] = 1 - sides[u]
            side[u] = sides[u]
            locked[u] = True
            moved_any = True
            for x in [u] + adj[ptr[u] : ptr[u + 1]]:
                inside = outside = 0.0
                for j in range(ptr[x], ptr[x + 1]):
                    if sides[adj[j]] == sides[x]:
                        inside += adjw[j]
                    else:
                        outside += adjw[j]
                gain[x] = outside - inside
                movable[x] = not locked[x] and gain[x] > 0.0
        if not moved_any:
            break
    return side


def _bisect_weighted(
    wg: _WeightedGraph,
    target_frac: float,
    rng: np.random.Generator,
    *,
    coarsen_to: int = 48,
) -> np.ndarray:
    """Multilevel bisection of an internal weighted graph."""
    levels: list[_Level] = []
    current = wg
    while current.n > coarsen_to:
        match = _heavy_edge_matching(current, rng)
        level = _contract(current, match)
        if level.graph.n >= current.n:  # no shrink: give up coarsening
            break
        levels.append(level)
        current = level.graph

    side = _initial_bisection(current, target_frac, rng)
    side = _refine(current, side, target_frac)
    for i in range(len(levels) - 1, -1, -1):
        # Project the coarse labels onto this level's finer graph, refine.
        side = side[levels[i].fine_to_coarse]
        finer = wg if i == 0 else levels[i - 1].graph
        side = _refine(finer, side, target_frac)
    return side


def bisect(
    graph: Graph,
    *,
    target_frac: float = 0.5,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Balanced 2-way partition of ``graph``.

    Returns an int8 array of 0/1 side labels.  ``target_frac`` is the share
    of vertices assigned side 0 (used by recursive k-way splitting for
    non-power-of-two ``k``).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if graph.n == 1:
        return np.zeros(1, dtype=np.int8)
    wg = _WeightedGraph.from_graph(graph)
    return _bisect_weighted(wg, target_frac, rng)


def partition_kway(
    graph: Graph,
    k: int,
    *,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Partition ``graph`` into ``k`` balanced parts via recursive bisection.

    Returns an int array of part labels in ``0..k-1``.  Parts are connected
    *within the quality limits of refinement* — exact connectivity is not
    guaranteed (neither does METIS guarantee it), and the hierarchy layer
    tolerates that.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    labels = np.zeros(graph.n, dtype=np.int64)
    _split(graph, np.arange(graph.n), k, 0, labels, rng)
    return labels


def _split(
    graph: Graph,
    vertices: np.ndarray,
    k: int,
    label_base: int,
    labels: np.ndarray,
    rng: np.random.Generator,
) -> None:
    if k == 1 or vertices.size <= 1:
        labels[vertices] = label_base
        return
    k_left = k // 2
    sub, mapping = graph.subgraph(vertices)
    side = bisect(sub, target_frac=k_left / k, seed=rng)
    left = mapping[side == 0]
    right = mapping[side == 1]
    if left.size == 0 or right.size == 0:
        # Degenerate split (tiny or pathological subgraph): fall back to an
        # arbitrary but balanced assignment so recursion always terminates.
        half = max(1, int(round(vertices.size * k_left / k)))
        left, right = mapping[:half], mapping[half:]
    _split(graph, left, k_left, label_base, labels, rng)
    _split(graph, right, k - k_left, label_base + k_left, labels, rng)


def cut_weight(graph: Graph, labels: np.ndarray) -> float:
    """Total weight of edges crossing between parts."""
    us, vs, ws = graph.edge_array()
    return float(ws[labels[us] != labels[vs]].sum())


def balance(labels: np.ndarray, k: int | None = None) -> float:
    """Max part size divided by ideal part size (1.0 = perfectly balanced)."""
    if k is None:
        k = int(labels.max()) + 1 if labels.size else 1
    counts = np.bincount(labels, minlength=k)
    ideal = labels.size / k
    return float(counts.max() / ideal) if ideal > 0 else 1.0
