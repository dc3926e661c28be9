"""Tree-structured embedding index for range and kNN queries (Sec. VI).

The partition tree is reused as a metric index over the *embedding* space:
every tree node stores a centre vector and a radius — the maximum Lp
distance from the centre to any member vertex's embedding — so that

    Lp(q, centre) - radius

is a valid lower bound on the embedding distance from the query to every
vertex under the node (triangle inequality).  Range queries prune nodes
whose bound exceeds the threshold; kNN queries keep only the leaves whose
bound can still beat the k-th distance (see ``docs/SERVING.md``).

Results are exact with respect to *embedding* distances; their accuracy
against true network distances (F1 in Fig. 16) is the model's accuracy.

**One dtype.**  A snapshot's centres and radii share its matrix's dtype
(float32 for a built model, float64 when given float64), and every kernel
computes distances in it.  Pruning grants a rounding margin derived from
that dtype (:func:`prune_slack`), and radii are rounded up, so the tree
only ever adds candidates; answers are decided on member distances alone.

**One snapshot.**  The embedding rows and the node geometry derived from
them are published together as one immutable :class:`ServingSnapshot`.
:meth:`EmbeddingTreeIndex.refresh_rows` builds the next snapshot off to
the side and publishes it with a single reference assignment, so a reader
that loads ``index.snapshot`` once per batch prunes and ranks with one
version's rows, centres and radii — never a mix of two.

**One kNN/range path.**  :func:`knn_frontier` and :func:`range_frontier`
are the only kNN/range implementations; the serving engine, ``RNE``'s
query methods and the resilient oracle all call them with a batch of
sources.  ``RNEModel.knn_brute`` and a brute range filter stay as the
test oracle.

Result-ordering contract (shared with :mod:`repro.algorithms.knn` and
:mod:`repro.serving`):

* **kNN** returns targets in ascending ``(distance, vertex id)`` order —
  ties on distance break towards the smaller id — and silently returns
  ``min(k, #unique targets)`` results when the target set is smaller
  than ``k``.
* **Range** returns the matching targets as ascending sorted vertex ids.
* Target sets are treated as *sets*: duplicate ids contribute one result.

Repeated queries against the same target set should build a
:class:`PreparedTargets` once via :meth:`EmbeddingTreeIndex.prepare`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from ..devtools.contracts import shapes
from ..graph import PartitionHierarchy
from .model import _topk_rows, as_served, lp_distance

#: Monotonic token source for cache-keying PreparedTargets instances.
_PREPARED_TOKENS = itertools.count()

#: Element budget for (sources x nodes x d) bound tensors; chunks the
#: source axis so batched frontiers never materialise huge intermediates.
_CHUNK_ELEMS = 4_000_000

_NO_NODES = np.empty(0, dtype=np.float64)


def prune_slack(dtype: np.dtype, d: int) -> float:
    """Relative rounding margin ``s`` of the pruning tests for ``d``-wide rows.

    A node survives when ``cd - r - s·cd <= x + s·(1 + |x|)``: ``cd`` is
    the computed centre distance, ``r`` the radius and ``x`` the threshold
    (``tau``, or kNN's bound on the k-th distance).  A computed distance is
    within about ``d·eps`` of the exact one, relatively, so
    ``s = 4·(d + 2)·eps`` covers the rounding of both sides (derivation in
    ``docs/SERVING.md``).  The margin only adds candidates: final selection
    is by actual member distances.  It is never below ``1e-9``, the margin
    float64 snapshots have always had.
    """
    return max(1e-9, 4.0 * (d + 2) * float(np.finfo(dtype).eps))


def served_tau(tau: float, dtype: np.dtype) -> float:
    """``tau`` for comparing with ``dtype`` distances: ``+inf`` above its range.

    NEP 50 casts a Python-float ``tau`` to a float32 row's dtype, and one
    beyond float32's finite range becomes ``inf`` with an overflow warning.
    Every finite distance is within either value, so answers are unchanged.
    """
    return math.inf if tau > float(np.finfo(dtype).max) else tau


@dataclass(frozen=True)
class ServingSnapshot:
    """One published embedding version and the tree geometry built from it.

    ``centres[i]`` / ``radii[i]`` describe tree node ``i`` over exactly
    these ``matrix`` rows.  A snapshot is never modified after it is
    published; a live update publishes a new one.  Without a tree index
    (``centres``/``radii`` empty) it still pins one version's rows.
    """

    version: int
    matrix: np.ndarray
    centres: np.ndarray
    radii: np.ndarray

    @classmethod
    def of_matrix(cls, version: int, matrix: np.ndarray) -> "ServingSnapshot":
        """A snapshot of embedding rows alone (no tree geometry)."""
        return cls(int(version), matrix, _NO_NODES, _NO_NODES)


@dataclass(frozen=True)
class PreparedTargets:
    """A target set preprocessed for repeated range/kNN queries.

    Holds everything that would otherwise be recomputed per query: the
    O(n) boolean membership mask, the deduplicated sorted id array, and —
    when built by an :class:`EmbeddingTreeIndex` — the per-leaf member
    lists plus a per-tree-node "subtree contains a target" flag used to
    prune traversal.

    Instances are immutable and carry a unique ``token`` so serving-layer
    caches can key cached rows by (target set, source).  They depend only
    on tree *structure*, so they stay valid across embedding versions.
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
    version:
        Embedding version of ``matrix`` (``RNE.version``); each
        :meth:`refresh_rows` publishes the next one.
    """

    def __init__(
        self,
        hierarchy: PartitionHierarchy,
        matrix: np.ndarray,
        p: float = 1.0,
        *,
        version: int = 0,
    ) -> None:
        matrix = as_served(matrix)
        if matrix.shape[0] != hierarchy.graph.n:
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows for a graph of "
                f"{hierarchy.graph.n} vertices"
            )
        self.hierarchy = hierarchy
        self.p = float(p)
        # Leaf cells are the last *sub-graph* level; per-vertex tree nodes
        # are skipped in traversal (vertices are enumerated from leaf cells).
        self._leaf_level = hierarchy.num_subgraph_levels - 1
        num_nodes = len(hierarchy.nodes)
        # Dense per-node-id arrays, in the matrix's dtype, so bounds for
        # whole (source, node) frontiers are single numpy passes.
        centres = np.zeros((num_nodes, matrix.shape[1]), dtype=matrix.dtype)
        radii = np.zeros(num_nodes, dtype=matrix.dtype)
        self._num_indexed = 0
        child_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        child_chunks: List[np.ndarray] = []
        # perf: loop-ok (index build is O(#tree nodes), not O(n) per query)
        for node in hierarchy.nodes:
            if node.level > self._leaf_level:
                continue
            self._recompute_node(node.id, matrix, centres, radii)
            self._num_indexed += 1
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
        self.roots = np.asarray(hierarchy.root_ids(), dtype=np.int64)
        #: The published snapshot; replaced whole, never mutated.
        self.snapshot = ServingSnapshot(int(version), matrix, centres, radii)

    # ------------------------------------------------------------------
    def _recompute_node(
        self,
        node_id: int,
        matrix: np.ndarray,
        centres: np.ndarray,
        radii: np.ndarray,
    ) -> None:
        """(Re)derive one node's centre/radius from ``matrix``.

        Shared by the constructor and :meth:`refresh_rows` so an
        incremental refresh is bit-identical to a full rebuild by
        construction — both run exactly this code on the same inputs.

        The radius is measured in float64 against the centre as stored and
        rounded *up* to the snapshot's dtype, so it covers every member
        exactly; for a float64 snapshot that is the plain float64 radius.
        """
        members = matrix[self.hierarchy.nodes[node_id].vertices]
        centres[node_id] = members.mean(axis=0)
        exact = lp_distance(
            members.astype(np.float64, copy=False)
            - centres[node_id].astype(np.float64, copy=False),
            self.p,
        ).max()
        radius = radii.dtype.type(exact)
        if radius < exact:
            radius = np.nextafter(radius, radii.dtype.type(np.inf))
        radii[node_id] = radius

    @shapes(changed_vertices="(k,):int")
    def refresh_rows(self, matrix: np.ndarray, changed_vertices: np.ndarray) -> int:
        """Publish the next version's snapshot for an updated matrix.

        ``changed_vertices`` are the vertex ids whose rows differ from the
        snapshot's matrix (a live update's ``UpdateResult.changed_rows``).
        The new geometry starts as a copy of the current one; every tree
        node whose subtree contains a changed vertex gets its centre and
        radius recomputed from ``matrix``, the rest are kept — their member
        rows did not move.  The finished snapshot, at version + 1, replaces
        ``self.snapshot`` in one reference assignment: readers see the old
        or the new version whole.

        Returns the number of nodes recomputed.  The caller promises the
        unchanged rows really are bit-equal between old and new matrix;
        under that contract the result is bit-identical to building a fresh
        index from ``matrix`` (tested in ``tests/live``).  The replacement
        must have the snapshot's shape and dtype: a refresh never changes
        the served dtype.
        """
        current = self.snapshot
        matrix = as_served(matrix)
        if matrix.shape != current.matrix.shape or matrix.dtype != current.matrix.dtype:
            raise ValueError(
                f"replacement matrix is {matrix.dtype} {matrix.shape}, "
                f"index was built for {current.matrix.dtype} "
                f"{current.matrix.shape}"
            )
        changed = np.unique(np.asarray(changed_vertices, dtype=np.int64))
        if changed.size and (changed[0] < 0 or changed[-1] >= matrix.shape[0]):
            raise ValueError(
                f"changed vertex ids must be in [0, {matrix.shape[0]}), got "
                f"range [{changed[0]}, {changed[-1]}]"
            )
        centres = current.centres.copy()
        radii = current.radii.copy()
        anc = self.hierarchy.anc_rows
        refreshed = 0
        # perf: loop-ok (one vectorised row-lookup per level; the inner
        # recompute loop is bounded by the number of *stale* nodes)
        for level in range(self._leaf_level + 1):
            level_ids = np.asarray(self.hierarchy.levels[level], dtype=np.int64)
            stale_rows = np.unique(anc[changed, level])
            for node_id in level_ids[stale_rows]:
                self._recompute_node(int(node_id), matrix, centres, radii)
            refreshed += int(stale_rows.size)
        self.snapshot = ServingSnapshot(current.version + 1, matrix, centres, radii)
        return refreshed

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

    def index_bytes(self) -> int:
        """Extra memory on top of the embedding matrix.

        One centre and one radius per node at levels up to the leaf cells,
        in the snapshot's dtype.
        """
        d = self.snapshot.matrix.shape[1]
        return self._num_indexed * (d + 1) * self.snapshot.radii.itemsize


# ----------------------------------------------------------------------
# the kNN/range kernels
# ----------------------------------------------------------------------
def _flat_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices ``[s0, s0+1, ..., s0+c0-1, s1, ...]`` for ragged gathers."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(out_starts, counts)
        + np.repeat(starts, counts)
    )


def _rows_step(snap: ServingSnapshot, prepared: PreparedTargets) -> int:
    """Sources per chunk so a (sources x targets x d) tensor stays bounded."""
    return max(1, _CHUNK_ELEMS // max(1, prepared.m * snap.matrix.shape[1]))


def full_rows(
    snap: ServingSnapshot,
    prepared: PreparedTargets,
    sources: np.ndarray,
    p: float,
) -> np.ndarray:
    """(S, m) embedding distances from each source to every target id,
    in the snapshot's dtype."""
    matrix = snap.matrix
    t_vecs = matrix[prepared.ids]
    out = np.empty((sources.size, prepared.m), dtype=matrix.dtype)
    step = _rows_step(snap, prepared)
    # perf: loop-ok (memory chunking; each chunk is one vector pass)
    for start in range(0, sources.size, step):
        block = matrix[sources[start : start + step]]
        out[start : start + step] = lp_distance(
            block[:, None, :] - t_vecs[None, :, :], p
        )
    return out


def _brute_blocks(
    snap: ServingSnapshot,
    prepared: PreparedTargets,
    sources: np.ndarray,
    p: float,
) -> Iterator[np.ndarray]:
    """:func:`full_rows` one bounded block of sources at a time."""
    step = _rows_step(snap, prepared)
    # perf: loop-ok (memory chunking; each chunk is one vector pass)
    for start in range(0, sources.size, step):
        yield full_rows(snap, prepared, sources[start : start + step], p)


def knn_frontier(
    snap: ServingSnapshot,
    prepared: PreparedTargets,
    sources: np.ndarray,
    k_eff: int,
    p: float,
    tree: Optional[EmbeddingTreeIndex] = None,
) -> List[np.ndarray]:
    """Each source's ``k_eff`` nearest targets ((distance, id) order).

    ``1 <= k_eff <= prepared.m``.  With a ``tree`` and a tree-prepared
    target set this is a leaf-bound matrix (see docs/SERVING.md): for
    each source the leaves are ranked by lower bound; walking that
    ranking until ``k_eff`` members are covered yields an upper bound
    ``ub`` on the k-th distance (the running max of centre-distance +
    radius), so every answer lies in a leaf with bound <= ``ub`` up to
    :func:`prune_slack` — the candidate set is a provable superset and the
    final ``(distance, id)`` lexsort over actual member distances is exact.
    Otherwise every target is scored and ranked by the shared top-k.
    """
    if tree is None or not prepared.has_tree:
        return [
            ids
            for rows in _brute_blocks(snap, prepared, sources, p)
            for ids in _topk_rows(rows, prepared.ids, k_eff)
        ]
    leaf_ids = prepared.leaf_ids
    member_flat = prepared.member_flat
    member_offsets = prepared.member_offsets
    if leaf_ids is None or member_flat is None or member_offsets is None:
        raise ValueError("prepared targets lack tree structure")
    matrix = snap.matrix
    centres = snap.centres[leaf_ids]
    radii = snap.radii[leaf_ids]
    slack = prune_slack(matrix.dtype, matrix.shape[1])
    counts = np.diff(member_offsets)
    results: List[np.ndarray] = []
    step = max(1, _CHUNK_ELEMS // max(1, leaf_ids.size * matrix.shape[1]))
    # perf: loop-ok (memory chunking over sources; body is vectorised)
    for start in range(0, sources.size, step):
        chunk = sources[start : start + step]
        q = matrix[chunk]
        cd = lp_distance(q[:, None, :] - centres[None, :, :], p)
        lb = np.maximum(cd - radii[None, :], 0.0)
        order = np.argsort(lb, axis=1, kind="stable")
        cum = np.cumsum(counts[order], axis=1)
        cut = np.minimum((cum < k_eff).sum(axis=1), leaf_ids.size - 1)
        running_ub = np.maximum.accumulate(
            np.take_along_axis(cd + radii[None, :], order, axis=1), axis=1
        )
        ub = running_ub[np.arange(chunk.size), cut]
        ub = ub + slack * (1.0 + np.abs(ub))
        active = lb - slack * cd <= ub[:, None]
        src_idx, leaf_idx = np.nonzero(active)
        gather = _flat_gather(member_offsets[leaf_idx], counts[leaf_idx])
        cand_ids = member_flat[gather]
        cand_src = np.repeat(src_idx, counts[leaf_idx])
        d = lp_distance(matrix[cand_ids] - q[cand_src], p)
        sel = np.lexsort((cand_ids, d, cand_src))
        seg_counts = np.bincount(cand_src, minlength=chunk.size)
        seg_off = np.concatenate(([0], np.cumsum(seg_counts)))
        sorted_ids = cand_ids[sel]
        # perf: loop-ok (per-source segment slicing of sorted output)
        for i in range(chunk.size):
            lo = int(seg_off[i])
            results.append(sorted_ids[lo : lo + min(k_eff, int(seg_counts[i]))])
    return results


def range_frontier(
    snap: ServingSnapshot,
    prepared: PreparedTargets,
    sources: np.ndarray,
    tau: float,
    p: float,
    tree: Optional[EmbeddingTreeIndex] = None,
) -> List[np.ndarray]:
    """Each source's targets within ``tau`` (ascending sorted ids).

    With a ``tree`` and a tree-prepared target set this is a
    level-synchronous descent: a flat array of live (source, tree-node)
    pairs is pruned by one vectorised bound pass per tree level and
    expanded through the CSR child arrays; only target-holding leaves
    that survive are scored.  Otherwise every target is scored.

    Members are kept on ``d <= tau`` in the snapshot's dtype with the
    caller's ``tau`` as given (:func:`served_tau`), exactly as a brute
    filter over :func:`full_rows` would; the node test grants
    :func:`prune_slack`.
    """
    tau = served_tau(tau, snap.matrix.dtype)
    if tree is None or not prepared.has_tree:
        return [
            prepared.ids[row <= tau]
            for rows in _brute_blocks(snap, prepared, sources, p)
            for row in rows  # perf: loop-ok (per-row threshold filter)
        ]
    node_active = prepared.node_active
    leaf_pos = prepared.leaf_pos
    member_flat = prepared.member_flat
    member_offsets = prepared.member_offsets
    if (
        node_active is None
        or leaf_pos is None
        or member_flat is None
        or member_offsets is None
    ):
        raise ValueError("prepared targets lack tree structure")
    matrix = snap.matrix
    slack = prune_slack(matrix.dtype, matrix.shape[1])
    limit = served_tau(tau + slack * (1.0 + abs(tau)), matrix.dtype)
    results: List[np.ndarray] = []
    roots = tree.roots
    counts = np.diff(member_offsets)
    step = max(1, _CHUNK_ELEMS // max(1, max(roots.size, 64) * matrix.shape[1]))
    # perf: loop-ok (memory chunking over sources; body is vectorised)
    for start in range(0, sources.size, step):
        chunk = sources[start : start + step]
        q = matrix[chunk]
        f_src = np.repeat(np.arange(chunk.size, dtype=np.int64), roots.size)
        f_node = np.tile(roots, chunk.size)
        # perf: loop-ok (one vectorised pass per tree level)
        for level in range(tree.leaf_level + 1):
            if f_src.size == 0:
                break
            alive = node_active[f_node]
            f_src, f_node = f_src[alive], f_node[alive]
            cd = lp_distance(q[f_src] - snap.centres[f_node], p)
            # The lower bound max(cd - r, 0) against tau: limit >= 0, so
            # the clamp at 0 cannot change the test.
            keep = cd - snap.radii[f_node] - slack * cd <= limit
            f_src, f_node = f_src[keep], f_node[keep]
            if level == tree.leaf_level:
                break
            child_counts = tree.child_offsets[f_node + 1] - tree.child_offsets[f_node]
            gather = _flat_gather(tree.child_offsets[f_node], child_counts)
            f_src = np.repeat(f_src, child_counts)
            f_node = tree.child_flat[gather]
        # Surviving frontier entries are target-holding leaves.
        positions = leaf_pos[f_node]
        gather = _flat_gather(member_offsets[positions], counts[positions])
        cand_ids = member_flat[gather]
        cand_src = np.repeat(f_src, counts[positions])
        d = lp_distance(matrix[cand_ids] - q[cand_src], p)
        hit = d <= tau
        cand_ids, cand_src = cand_ids[hit], cand_src[hit]
        sel = np.lexsort((cand_ids, cand_src))
        seg_counts = np.bincount(cand_src, minlength=chunk.size)
        seg_off = np.concatenate(([0], np.cumsum(seg_counts)))
        sorted_ids = cand_ids[sel]
        # perf: loop-ok (per-source segment slicing of sorted output)
        for i in range(chunk.size):
            results.append(sorted_ids[int(seg_off[i]) : int(seg_off[i + 1])])
    return results
