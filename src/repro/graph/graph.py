"""Weighted-graph core used by every other subsystem.

The :class:`Graph` class stores an undirected, positively weighted graph in
compressed-sparse-row (CSR) form backed by numpy arrays.  This layout makes
neighbourhood scans, Dijkstra runs and scipy interop cheap, and keeps memory
linear in ``|V| + |E|`` — the same design constraint that motivates the paper
(an all-pairs matrix would be ``Theta(|V|^2)``).

Vertices are integers ``0..n-1``.  Optional 2-d coordinates (longitude /
latitude, or synthetic plane positions) are carried alongside because the
geometric baselines (Euclidean / Manhattan) and the grid bucketing of the
active fine-tuning phase (Sec. V-C of the paper) need them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse


class GraphError(ValueError):
    """Raised when a graph is malformed (bad endpoints, weights, shapes)."""


@dataclass(frozen=True)
class Edge:
    """A single undirected edge with its weight."""

    u: int
    v: int
    weight: float


class Graph:
    """Undirected weighted graph in CSR form.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v, weight)`` triples.  Each undirected edge should
        appear once; both directions are materialised internally.
    coords:
        Optional ``(n, 2)`` array of planar vertex coordinates.

    Notes
    -----
    Self-loops are rejected (they never occur on road networks and would
    corrupt shortest-path semantics).  Parallel edges are collapsed to the
    minimum weight, matching how road datasets are normally cleaned.
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, float]],
        coords: np.ndarray | None = None,
    ) -> None:
        if n <= 0:
            raise GraphError(f"graph must have at least one vertex, got n={n}")
        self.n = int(n)

        # An ``(m, 3)`` array is taken as is; any other iterable of triples
        # is materialised once.  Ids are truncated toward zero like int().
        table = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges),
            dtype=np.float64,
        )
        if table.size == 0:
            table = table.reshape(0, 3)
        if table.ndim != 2 or table.shape[1] != 3:
            raise GraphError("edges must be (u, v, weight) triples")
        ids = np.trunc(table[:, :2])
        self._validate_edges(ids, table[:, 2])
        us, vs, ws = self._dedupe(
            ids[:, 0].astype(np.int64), ids[:, 1].astype(np.int64), table[:, 2]
        )

        # Materialise both directions, then sort by source to obtain CSR.
        # Row ``x`` lists its neighbours above ``x``, then those below, each
        # ascending; the upper triangle read row-major is the edge order.
        src = np.concatenate([us, vs])
        order = np.argsort(src, kind="stable")
        self._dst = np.concatenate([vs, us])[order]
        self._wgt = np.concatenate([ws, ws])[order]
        self._indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.n), out=self._indptr[1:])
        self.coords = self._validate_coords(coords)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _validate_edges(self, ids: np.ndarray, ws: np.ndarray) -> None:
        """Raise for the first malformed edge in input order."""
        in_range = ((ids >= 0) & (ids < self.n)).all(axis=1)
        bad = ~in_range | (ids[:, 0] == ids[:, 1]) | ~(ws > 0) | ~np.isfinite(ws)
        if not bad.any():
            return
        i = int(np.argmax(bad))
        u, v, w = int(ids[i, 0]), int(ids[i, 1]), float(ws[i])
        if not in_range[i]:
            raise GraphError(f"edge ({u}, {v}) out of range for n={self.n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u} is not allowed")
        raise GraphError(f"edge ({u}, {v}) has non-positive weight {w}")

    @staticmethod
    def _dedupe(
        us: np.ndarray, vs: np.ndarray, ws: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Orient each edge ``u < v``, keep the lightest of each parallel
        group, and sort by ``(u, v)``."""
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        order = np.lexsort((ws, hi, lo))
        lo, hi, ws = lo[order], hi[order], ws[order]
        first = np.ones(lo.size, dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        return lo[first], hi[first], ws[first]

    def _validate_coords(self, coords: np.ndarray | None) -> np.ndarray | None:
        if coords is None:
            return None
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (self.n, 2):
            raise GraphError(
                f"coords must have shape ({self.n}, 2), got {coords.shape}"
            )
        return coords

    @classmethod
    def from_networkx(cls, g: Any) -> "Graph":
        """Build from a networkx graph with ``weight`` edge attributes.

        Node labels are mapped to ``0..n-1`` in sorted order; coordinates are
        read from a ``pos`` node attribute when every node has one.
        """
        nodes = sorted(g.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [
            (index[u], index[v], float(data.get("weight", 1.0)))
            for u, v, data in g.edges(data=True)
        ]
        coords = None
        if all("pos" in g.nodes[node] for node in nodes):
            coords = np.array([g.nodes[node]["pos"] for node in nodes], dtype=float)
        return cls(len(nodes), edges, coords=coords)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self._dst.size // 2

    def neighbors(self, u: int) -> np.ndarray:
        """Neighbour vertex ids of ``u`` (read-only view)."""
        return self._dst[self._indptr[u] : self._indptr[u + 1]]

    def neighbor_weights(self, u: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors` (read-only view)."""
        return self._wgt[self._indptr[u] : self._indptr[u + 1]]

    def degree(self, u: int) -> int:
        return int(self._indptr[u + 1] - self._indptr[u])

    def degrees(self) -> np.ndarray:
        """Array of all vertex degrees."""
        return np.diff(self._indptr)

    def edges(self) -> Iterator[Edge]:
        """Iterate undirected edges once each, in :meth:`edge_array` order."""
        us, vs, ws = self.edge_array()
        for u, v, w in zip(us.tolist(), vs.tolist(), ws.tolist()):
            yield Edge(u, v, w)

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(u, v, w)`` arrays, one entry per undirected edge.

        Edges are sorted by ``(u, v)`` with ``u < v``: the CSR upper
        triangle read row by row.  The arrays are fresh copies, so callers
        may modify them.
        """
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self._indptr))
        upper = self._dst > src
        return src[upper], self._dst[upper], self._wgt[upper]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors(u)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)``; raises ``KeyError`` if absent."""
        nbrs = self.neighbors(u)
        hits = np.nonzero(nbrs == v)[0]
        if hits.size == 0:
            raise KeyError(f"no edge ({u}, {v})")
        return float(self.neighbor_weights(u)[hits[0]])

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_csr_matrix(self) -> sparse.csr_matrix:
        """scipy CSR adjacency matrix (symmetric)."""
        return sparse.csr_matrix(
            (self._wgt, self._dst, self._indptr), shape=(self.n, self.n)
        )

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The raw CSR arrays ``(indptr, indices, weights)``.

        These back :meth:`to_csr_matrix` directly (no copy).  Treat them as
        read-only.
        """
        return self._indptr, self._dst, self._wgt

    def to_networkx(self) -> Any:
        """Convert to ``networkx.Graph`` (weights on edges, pos on nodes)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        us, vs, ws = self.edge_array()
        g.add_weighted_edges_from(zip(us.tolist(), vs.tolist(), ws.tolist()))
        if self.coords is not None:
            for i in range(self.n):
                g.nodes[i]["pos"] = tuple(self.coords[i])
        return g

    def subgraph(self, vertices: Sequence[int]) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns the subgraph (with vertices relabelled ``0..k-1`` in the
        given order) and the array mapping new ids back to original ids.
        Only the selected CSR rows are read, so a call costs
        ``O(k log k + sum of their degrees)`` however large the graph.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            raise GraphError("subgraph needs at least one vertex")
        if vertices.min() < 0 or vertices.max() >= self.n:
            raise GraphError(f"subgraph vertex ids out of range for n={self.n}")
        by_id = np.argsort(vertices, kind="stable")
        sorted_ids = vertices[by_id]
        if (sorted_ids[1:] == sorted_ids[:-1]).any():
            raise GraphError("subgraph vertex list contains duplicates")

        starts = self._indptr[vertices]
        counts = self._indptr[vertices + 1] - starts
        local_u = np.repeat(np.arange(vertices.size, dtype=np.int64), counts)
        offsets = np.cumsum(counts) - counts
        pos = np.arange(local_u.size, dtype=np.int64) + np.repeat(starts - offsets, counts)
        nbrs = self._dst[pos]
        slot = np.minimum(np.searchsorted(sorted_ids, nbrs), vertices.size - 1)
        inside = sorted_ids[slot] == nbrs
        local_u, local_v, pos = local_u[inside], by_id[slot[inside]], pos[inside]
        # The kept arcs are valid and duplicate-free, with both directions
        # present, so they form the CSR directly.  Sort them into the
        # constructor's row order: neighbours above the row ascending, then
        # those below ascending.
        k = vertices.size
        order = np.argsort(
            (local_u * 2 + (local_v < local_u)) * k + local_v, kind="stable"
        )
        indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(np.bincount(local_u, minlength=k), out=indptr[1:])
        coords = self.coords[vertices] if self.coords is not None else None
        return (
            Graph._from_csr(indptr, local_v[order], self._wgt[pos[order]], coords),
            vertices,
        )

    @classmethod
    def _from_csr(
        cls,
        indptr: np.ndarray,
        dst: np.ndarray,
        wgt: np.ndarray,
        coords: np.ndarray | None,
    ) -> "Graph":
        """Wrap CSR arrays already in the constructor's layout (both
        directions, validated, deduplicated, row order as ``__init__``)."""
        graph = cls.__new__(cls)
        graph.n = indptr.size - 1
        graph._indptr, graph._dst, graph._wgt = indptr, dst, wgt
        graph.coords = graph._validate_coords(coords)
        return graph

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def connected_components(self) -> np.ndarray:
        """Component label per vertex (labels are 0-based, contiguous)."""
        n_comp, labels = sparse.csgraph.connected_components(
            self.to_csr_matrix(), directed=False
        )
        del n_comp
        return labels

    def is_connected(self) -> bool:
        return bool(np.all(self.connected_components() == 0))

    def largest_component(self) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on the largest connected component."""
        labels = self.connected_components()
        counts = np.bincount(labels)
        keep = np.nonzero(labels == np.argmax(counts))[0]
        return self.subgraph(keep)

    def total_weight(self) -> float:
        """Sum of all undirected edge weights."""
        # Python's sum adds left to right, in edge order.
        return float(sum(self.edge_array()[2].tolist()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.m})"
