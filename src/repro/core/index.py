"""Tree-structured embedding index for range and kNN queries (Sec. VI).

The partition tree is reused as a metric index over the *embedding* space:
every tree node stores a centre vector and a radius — the maximum Lp
distance from the centre to any member vertex's embedding — so that

    Lp(q, centre) - radius

is a valid lower bound on the embedding distance from the query to every
vertex under the node (triangle inequality).  Range queries prune nodes
whose bound exceeds the threshold; kNN queries expand nodes best-first from
a min-priority queue, exactly as Algorithm "Range/kNN" in the paper.

Results are exact with respect to *embedding* distances; their accuracy
against true network distances (F1 in Fig. 16) is the model's accuracy.

Result-ordering contract (shared with :mod:`repro.algorithms.knn` and
:mod:`repro.serving`):

* **kNN** returns targets in ascending ``(distance, vertex id)`` order —
  ties on distance break towards the smaller id — and silently returns
  ``min(k, #unique targets)`` results when the target set is smaller
  than ``k``.
* **Range** returns the matching targets as ascending sorted vertex ids.
* Target sets are treated as *sets*: duplicate ids contribute one result.

Repeated queries against the same target set should build a
:class:`PreparedTargets` once via :meth:`EmbeddingTreeIndex.prepare` and
call the ``*_prepared`` entry points; the one-shot ``range_query`` /
``knn_query`` wrappers rebuild the (O(n)) target mask on every call.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..devtools.contracts import shapes
from ..graph import PartitionHierarchy
from .model import lp_distance

#: Monotonic token source for cache-keying PreparedTargets instances.
_PREPARED_TOKENS = itertools.count()

#: Heap-entry kinds for best-first kNN.  Nodes sort *before* vertices at
#: equal keys: a node whose lower bound equals a candidate's distance may
#: still contain an equal-distance vertex with a smaller id, which the
#: ordering contract must surface first.
_NODE, _VERTEX = 0, 1


@dataclass(frozen=True)
class PreparedTargets:
    """A target set preprocessed for repeated range/kNN queries.

    Holds everything that previously had to be recomputed per query: the
    O(n) boolean membership mask, the deduplicated sorted id array, and —
    when built by an :class:`EmbeddingTreeIndex` — the per-leaf member
    lists plus a per-tree-node "subtree contains a target" flag used to
    prune traversal.

    Instances are immutable and carry a unique ``token`` so serving-layer
    caches can key cached rows by (target set, source).
    """

    n: int
    ids: np.ndarray
    mask: np.ndarray
    token: int
    #: Node ids of leaf cells containing at least one target (tree only).
    leaf_ids: Optional[np.ndarray] = None
    #: Concatenated per-leaf member ids, ascending within each leaf.
    member_flat: Optional[np.ndarray] = None
    #: ``member_offsets[j]:member_offsets[j+1]`` slices ``member_flat``
    #: for ``leaf_ids[j]``.
    member_offsets: Optional[np.ndarray] = None
    #: Per-node flag over *all* tree node ids: subtree holds >= 1 target.
    node_active: Optional[np.ndarray] = None
    #: Per-node position into ``leaf_ids`` (-1 for non-member-leaf nodes).
    leaf_pos: Optional[np.ndarray] = None

    @classmethod
    def flat(cls, n: int, targets: np.ndarray) -> "PreparedTargets":
        """Prepare a target set without tree structure (mask + ids only)."""
        ids = np.unique(np.asarray(targets, dtype=np.int64))
        if ids.size and (ids[0] < 0 or ids[-1] >= n):
            raise ValueError(
                f"target ids must be in [0, {n}), got range "
                f"[{ids[0]}, {ids[-1]}]"
            )
        mask = np.zeros(n, dtype=bool)
        mask[ids] = True
        return cls(n=n, ids=ids, mask=mask, token=next(_PREPARED_TOKENS))

    @property
    def m(self) -> int:
        """Number of distinct targets."""
        return int(self.ids.size)

    @property
    def has_tree(self) -> bool:
        """Whether per-leaf member lists are available."""
        return self.leaf_ids is not None

    def members_of(self, leaf_index: int) -> np.ndarray:
        """Target ids inside leaf ``leaf_ids[leaf_index]`` (ascending)."""
        if self.member_flat is None or self.member_offsets is None:
            raise ValueError("PreparedTargets was built without tree structure")
        start = int(self.member_offsets[leaf_index])
        end = int(self.member_offsets[leaf_index + 1])
        return self.member_flat[start:end]


class EmbeddingTreeIndex:
    """Range/kNN index over a trained embedding and its partition tree.

    Parameters
    ----------
    hierarchy:
        The partition tree (any aligned hierarchy over the same graph).
    matrix:
        ``(n, d)`` vertex embedding matrix (global embeddings).
    p:
        Metric order matching the trained model.
    """

    def __init__(
        self,
        hierarchy: PartitionHierarchy,
        matrix: np.ndarray,
        p: float = 1.0,
    ) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape[0] != hierarchy.graph.n:
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows for a graph of "
                f"{hierarchy.graph.n} vertices"
            )
        self.hierarchy = hierarchy
        self.matrix = matrix
        self.p = float(p)
        # Leaf cells are the last *sub-graph* level; per-vertex tree nodes
        # are skipped in traversal (vertices are enumerated from leaf cells).
        self._leaf_level = hierarchy.num_subgraph_levels - 1
        num_nodes = len(hierarchy.nodes)
        d = matrix.shape[1]
        # Dense per-node-id arrays so the serving engine can compute bounds
        # for whole (source, node) frontiers in single numpy passes.
        self.node_centres = np.zeros((num_nodes, d), dtype=np.float64)
        self.node_radii = np.zeros(num_nodes, dtype=np.float64)
        self._centres: dict[int, np.ndarray] = {}
        self._radii: dict[int, float] = {}
        child_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        child_chunks: List[np.ndarray] = []
        # perf: loop-ok (index build is O(#tree nodes), not O(n) per query)
        for node in hierarchy.nodes:
            if node.level > self._leaf_level:
                continue
            self._recompute_node(node.id)
            if node.level < self._leaf_level:
                child_offsets[node.id + 1] = len(node.children)
                child_chunks.append(np.asarray(node.children, dtype=np.int64))
        np.cumsum(child_offsets, out=child_offsets)
        self.child_offsets = child_offsets
        self.child_flat = (
            np.concatenate(child_chunks)
            if child_chunks
            else np.empty(0, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    def _recompute_node(self, node_id: int) -> None:
        """(Re)derive one node's centre/radius from the current matrix.

        Shared by the constructor and :meth:`refresh_rows` so an
        incremental refresh is bit-identical to a full rebuild by
        construction — both run exactly this code on the same inputs.
        """
        node = self.hierarchy.nodes[node_id]
        members = self.matrix[node.vertices]
        centre = members.mean(axis=0)
        self.node_centres[node_id] = centre
        self.node_radii[node_id] = float(lp_distance(members - centre, self.p).max())
        self._centres[node_id] = self.node_centres[node_id]
        self._radii[node_id] = float(self.node_radii[node_id])

    @shapes(changed_vertices="(k,):int")
    def refresh_rows(self, matrix: np.ndarray, changed_vertices: np.ndarray) -> int:
        """Adopt an updated embedding matrix, recomputing only stale nodes.

        ``changed_vertices`` are the vertex ids whose rows differ from the
        matrix this index currently serves (a live update's
        ``UpdateResult.changed_rows``).  Every tree node whose subtree
        contains one of them gets its centre and radius recomputed from the
        new matrix; all other nodes are untouched — their member rows did
        not move, so their cached geometry is still exact, which keeps the
        refresh O(changed subtrees) instead of O(tree).

        Returns the number of nodes recomputed.  The caller promises the
        unchanged rows really are bit-equal between old and new matrix;
        under that contract the result is bit-identical to building a fresh
        index from ``matrix`` (tested in ``tests/live``).
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != self.matrix.shape:
            raise ValueError(
                f"replacement matrix has shape {matrix.shape}, "
                f"index was built for {self.matrix.shape}"
            )
        changed = np.unique(np.asarray(changed_vertices, dtype=np.int64))
        if changed.size and (changed[0] < 0 or changed[-1] >= matrix.shape[0]):
            raise ValueError(
                f"changed vertex ids must be in [0, {matrix.shape[0]}), got "
                f"range [{changed[0]}, {changed[-1]}]"
            )
        self.matrix = matrix
        if changed.size == 0:
            return 0
        anc = self.hierarchy.anc_rows
        refreshed = 0
        # perf: loop-ok (one vectorised row-lookup per level; the inner
        # recompute loop is bounded by the number of *stale* nodes)
        for level in range(self._leaf_level + 1):
            level_ids = np.asarray(self.hierarchy.levels[level], dtype=np.int64)
            stale_rows = np.unique(anc[changed, level])
            for node_id in level_ids[stale_rows]:
                self._recompute_node(int(node_id))
            refreshed += int(stale_rows.size)
        return refreshed

    # ------------------------------------------------------------------
    def _bound(self, q: np.ndarray, node_id: int) -> float:
        """Lower bound on embedding distance from ``q`` to the node's members."""
        d = float(lp_distance(q - self.node_centres[node_id], self.p))
        return max(d - float(self.node_radii[node_id]), 0.0)

    def _roots(self) -> list[int]:
        return self.hierarchy.root_ids()

    def _child_cells(self, node_id: int) -> list[int]:
        return self.hierarchy.nodes[node_id].children

    @property
    def leaf_level(self) -> int:
        """Tree level of the leaf cells traversal stops at."""
        return self._leaf_level

    # ------------------------------------------------------------------
    @shapes(targets="(k,):int")
    def prepare(self, targets: np.ndarray) -> PreparedTargets:
        """Preprocess a target set for repeated queries.

        Computes, once: the deduplicated id array, the O(n) membership
        mask, per-leaf member lists (ascending ids within each leaf) and
        the per-node subtree-activity flags that let traversal skip whole
        subtrees containing no targets.
        """
        base = PreparedTargets.flat(self.hierarchy.graph.n, targets)
        ids = base.ids
        anc = self.hierarchy.anc_rows
        num_nodes = len(self.hierarchy.nodes)
        node_active = np.zeros(num_nodes, dtype=bool)
        # perf: loop-ok (one pass per tree level, each fully vectorised)
        for level in range(self._leaf_level + 1):
            level_ids = np.asarray(self.hierarchy.levels[level], dtype=np.int64)
            active_rows = np.unique(anc[ids, level])
            node_active[level_ids[active_rows]] = True
        leaf_rows = anc[ids, self._leaf_level] if ids.size else ids
        order = np.argsort(leaf_rows, kind="stable")
        member_flat = ids[order]
        uniq_rows, starts = np.unique(leaf_rows[order], return_index=True)
        member_offsets = np.append(starts, member_flat.size).astype(np.int64)
        leaf_level_ids = np.asarray(
            self.hierarchy.levels[self._leaf_level], dtype=np.int64
        )
        leaf_ids = leaf_level_ids[uniq_rows]
        leaf_pos = np.full(num_nodes, -1, dtype=np.int64)
        leaf_pos[leaf_ids] = np.arange(leaf_ids.size, dtype=np.int64)
        return PreparedTargets(
            n=base.n,
            ids=ids,
            mask=base.mask,
            token=base.token,
            leaf_ids=leaf_ids,
            member_flat=member_flat,
            member_offsets=member_offsets,
            node_active=node_active,
            leaf_pos=leaf_pos,
        )

    # ------------------------------------------------------------------
    @shapes(targets="(k,):int")
    def range_query(
        self,
        source: int,
        targets: np.ndarray,
        tau: float,
    ) -> np.ndarray:
        """All targets within embedding distance ``tau`` of ``source``.

        ``targets`` restricts the candidate set (the paper's ``V_T``, e.g.
        the POIs); pass ``np.arange(n)`` for all vertices.  Thin one-shot
        wrapper over :meth:`prepare` + :meth:`range_prepared` — callers
        issuing many queries against one target set should prepare once.

        Returns ascending sorted vertex ids; duplicate targets are
        deduplicated (the target set is a set).
        """
        return self.range_prepared(source, self.prepare(targets), tau)

    def range_prepared(
        self,
        source: int,
        prepared: PreparedTargets,
        tau: float,
    ) -> np.ndarray:
        """Range query against a prepared target set (sorted-ids contract)."""
        if not tau >= 0:  # also rejects NaN
            raise ValueError(f"tau must be >= 0, got {tau}")
        if prepared.node_active is None or prepared.leaf_pos is None:
            raise ValueError("prepared targets lack tree structure; use prepare()")
        q = self.matrix[source]
        hits: List[np.ndarray] = []
        stack = list(self._roots())
        while stack:
            node_id = stack.pop()
            if not prepared.node_active[node_id]:
                continue  # no targets anywhere under this node
            if self._bound(q, node_id) > tau:
                continue  # triangle-inequality pruning
            node = self.hierarchy.nodes[node_id]
            if node.level == self._leaf_level:
                members = prepared.members_of(int(prepared.leaf_pos[node_id]))
                dists = lp_distance(self.matrix[members] - q, self.p)
                hits.append(members[dists <= tau])
            else:
                stack.extend(self._child_cells(node_id))
        if not hits:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(hits))

    @shapes(targets="(m,):int")
    def knn_query(self, source: int, targets: np.ndarray, k: int) -> np.ndarray:
        """k nearest targets to ``source`` by embedding distance.

        Thin one-shot wrapper over :meth:`prepare` + :meth:`knn_prepared`.

        Returns targets ordered by ascending ``(embedding distance, id)``;
        when the heap drains first — i.e. ``k`` exceeds the number of
        distinct targets — all targets are returned (``min(k, #targets)``
        results), matching :func:`repro.algorithms.knn.knn_true`.
        """
        return self.knn_prepared(source, self.prepare(targets), k)

    def knn_prepared(
        self,
        source: int,
        prepared: PreparedTargets,
        k: int,
    ) -> np.ndarray:
        """kNN against a prepared target set ((distance, id) contract).

        Best-first expansion over the tree: nodes enter a min-priority
        queue keyed by their lower bound; popped vertices are final
        answers because no unexpanded node can contain anything closer.
        At equal keys nodes pop before vertices (an equal-bound node may
        hold an equal-distance vertex with a smaller id), and vertices
        tie-break on id — making the output deterministically sorted by
        ``(distance, vertex id)``.  Returns ``min(k, #targets)`` results.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if prepared.node_active is None or prepared.leaf_pos is None:
            raise ValueError("prepared targets lack tree structure; use prepare()")
        k_eff = min(k, prepared.m)
        if k_eff == 0:
            return np.empty(0, dtype=np.int64)
        q = self.matrix[source]
        # Entries: (key, kind, id) — see _NODE/_VERTEX ordering note above.
        heap: list[tuple[float, int, int]] = []
        for root in self._roots():
            if prepared.node_active[root]:
                heapq.heappush(heap, (self._bound(q, root), _NODE, root))
        result: List[int] = []
        while heap and len(result) < k_eff:
            _, kind, ident = heapq.heappop(heap)
            if kind == _VERTEX:
                result.append(ident)
                continue
            node = self.hierarchy.nodes[ident]
            if node.level == self._leaf_level:
                members = prepared.members_of(int(prepared.leaf_pos[ident]))
                dists = lp_distance(self.matrix[members] - q, self.p)
                # perf: loop-ok (bounded by leaf size, feeds the heap)
                for v, dist in zip(members, dists):
                    heapq.heappush(heap, (float(dist), _VERTEX, int(v)))
            else:
                for child in self._child_cells(ident):
                    if prepared.node_active[child]:
                        heapq.heappush(heap, (self._bound(q, child), _NODE, child))
        return np.array(result, dtype=np.int64)

    def index_bytes(self) -> int:
        """Extra memory on top of the embedding matrix."""
        n_nodes = len(self._centres)
        d = self.matrix.shape[1]
        return n_nodes * (d * 8 + 8)
