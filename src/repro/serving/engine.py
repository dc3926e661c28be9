"""Batched query-serving engine over a trained RNE (see ``docs/SERVING.md``).

The paper's central claim (Sec. III) is that queries are O(d) vector ops;
this module makes that claim measurable by serving whole batches through
single numpy passes instead of per-query Python loops:

* ``distances`` — a ``(B, 2)`` pair batch is one fancy-index + one Lp
  reduction.
* ``knn`` / ``range_query`` — many sources against one
  :class:`~repro.core.index.PreparedTargets` set via *array-wide frontier
  expansion*: bounds for every (source, tree-node) pair in the live
  frontier are computed in one vectorised pass per tree level (range) or
  one leaf-bound matrix (kNN), then candidate member distances are
  gathered flat and split per source.
* ``exact_*`` — ground-truth serving for degraded mode, amortising one
  cached SSSP tree per distinct source.

Batched kNN/range results are **bit-identical** to the per-query
``knn_prepared`` / ``range_prepared`` paths: per-row Lp reductions are
bitwise deterministic, candidate sets are provable supersets of the
answers, and the shared ``(distance, id)`` / sorted-ids ordering contract
resolves ties identically (property-tested in ``tests/serving``).

Caching: an LRU of *hot rows* — full embedding-distance rows from a source
to a prepared target set, promoted once a source repeats — lets repeated
sources skip the frontier entirely; an LRU of *SSSP trees* does the same
for exact serving.  All operations record latency/throughput into a
:class:`~repro.serving.stats.ServingStats`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..algorithms.dijkstra import sssp_many
from ..core.index import EmbeddingTreeIndex, PreparedTargets
from ..core.model import RNEModel, _topk_rows, lp_distance
from ..devtools.contracts import shapes
from ..graph import Graph
from .cache import LRUCache
from .stats import ServingStats

__all__ = ["BatchQueryEngine"]

Targets = Union[np.ndarray, PreparedTargets]

#: Element budget for (sources x nodes x d) bound tensors; chunks the
#: source axis so batched frontiers never materialise huge intermediates.
_CHUNK_ELEMS = 4_000_000

#: Float-safety margin on kNN pruning radii: inflating the cut-off only
#: *adds* candidates (final selection is by actual member distances), so a
#: tiny slack absorbs Lp rounding without ever changing results.
_UB_SLACK = 1e-9


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


class BatchQueryEngine:
    """Vectorised batch serving for distance, kNN and range queries.

    Parameters
    ----------
    model:
        The learned embedding (``None`` for an exact-only engine).
    index:
        Tree index over the same embedding; enables frontier-pruned
        batched kNN/range.  Without it those fall back to brute rows.
    graph:
        The road network; required for the ``exact_*`` fallback path.
    row_cache_size:
        Capacity of the hot-row LRU (entries are ``(prepared target set,
        source)`` distance rows).  ``0`` disables it.
    sssp_cache_size:
        Capacity of the exact SSSP-tree LRU.  ``0`` disables it.
    version:
        Embedding version this engine serves (``RNE.version``).  Hot-row
        cache keys embed it, so entries computed against one embedding can
        never answer queries against another — staleness after a live
        update is impossible *by construction*, not by best-effort
        flushing.  Bumped via :meth:`set_version`.
    """

    def __init__(
        self,
        *,
        model: Optional[RNEModel] = None,
        index: Optional[EmbeddingTreeIndex] = None,
        graph: Optional[Graph] = None,
        row_cache_size: int = 256,
        sssp_cache_size: int = 32,
        version: int = 0,
    ) -> None:
        if model is None and graph is None:
            raise ValueError("BatchQueryEngine needs a model and/or a graph")
        if index is not None and model is not None:
            if index.matrix is not model.matrix and index.matrix.shape != model.matrix.shape:
                raise ValueError("index and model cover different embeddings")
        if version < 0:
            raise ValueError(f"version must be >= 0, got {version}")
        self.model = model
        self.index = index
        self.graph = graph
        self.version = int(version)
        self.stats = ServingStats()
        self.hot_rows = self.stats.register_cache(
            LRUCache(row_cache_size, name="hot_rows")
        )
        self.sssp = self.stats.register_cache(LRUCache(sssp_cache_size, name="sssp"))
        # Promote-on-second-touch bookkeeping: sources seen once per
        # (version, prepared set); a repeat miss pays one full-row pass
        # and caches it.
        self._touched: "OrderedDict[Tuple[int, int, int], None]" = OrderedDict()
        self._touch_capacity = max(4 * row_cache_size, 64)

    @classmethod
    def from_rne(cls, rne: Any, *, graph: Optional[Graph] = None, **kwargs: Any) -> "BatchQueryEngine":
        """Build an engine from a trained :class:`~repro.core.pipeline.RNE`."""
        kwargs.setdefault("version", int(getattr(rne, "version", 0)))
        return cls(
            model=rne.model,
            index=rne.index,
            graph=graph if graph is not None else getattr(rne, "graph", None),
            **kwargs,
        )

    # ------------------------------------------------------------------
    # live updates
    # ------------------------------------------------------------------
    def set_version(
        self, version: int, *, graph: Optional[Graph] = None
    ) -> Dict[str, int]:
        """Adopt a new embedding version (and optionally a new graph).

        Called by :class:`repro.live.LiveUpdateManager` after publishing an
        updated embedding.  Hot-row entries keyed to older versions become
        unreachable immediately (keys embed the version) and are purged
        eagerly to free their memory; the promote-on-second-touch ledger is
        reset for the same reason.  When ``graph`` is given the road
        network itself changed, so cached SSSP trees are dropped too —
        otherwise they stay, because exact distances do not depend on the
        embedding.

        Versions are required to advance monotonically: serving an *older*
        embedding than the caches have seen would break the staleness
        contract, so a regression raises instead of corrupting state.

        Returns the invalidation counts per structure.
        """
        if version < self.version:
            raise ValueError(
                f"version must not regress (engine at {self.version}, "
                f"asked to adopt {version})"
            )
        stale_version = self.version
        self.version = int(version)
        dropped_rows = self.hot_rows.purge(
            lambda key: bool(
                isinstance(key, tuple) and key and key[0] != self.version
            )
        )
        dropped_touches = len(self._touched)
        self._touched.clear()
        dropped_sssp = 0
        if graph is not None:
            self.graph = graph
            dropped_sssp = len(self.sssp)
            self.sssp.clear()
        counts = {
            "from_version": int(stale_version),
            "to_version": int(self.version),
            "hot_rows_purged": int(dropped_rows),
            "touch_ledger_dropped": int(dropped_touches),
            "sssp_dropped": int(dropped_sssp),
        }
        return counts

    # ------------------------------------------------------------------
    # target preparation
    # ------------------------------------------------------------------
    def prepare(self, targets: Targets) -> PreparedTargets:
        """Prepare (or pass through) a target set for repeated queries."""
        if isinstance(targets, PreparedTargets):
            return targets
        with self.stats.timed("prepare", int(np.asarray(targets).size)):
            if self.index is not None:
                return self.index.prepare(np.asarray(targets, dtype=np.int64))
            n = self.model.n if self.model is not None else self._graph_or_raise().n
            return PreparedTargets.flat(n, np.asarray(targets, dtype=np.int64))

    # ------------------------------------------------------------------
    # learned (embedding) serving
    # ------------------------------------------------------------------
    @shapes(pairs="(b,2):int", ret="(b,):float")
    def distances(self, pairs: np.ndarray) -> np.ndarray:
        """Approximate distances for a ``(B, 2)`` pair batch — one numpy pass."""
        model = self._model_or_raise()
        pairs = np.asarray(pairs, dtype=np.int64)
        with self.stats.timed("distances", pairs.shape[0]):
            return model.query_pairs(pairs)

    @shapes(sources="(s,):int")
    def knn(self, sources: np.ndarray, targets: Targets, k: int) -> List[np.ndarray]:
        """Batched k nearest targets for every source (embedding metric).

        Returns one id array per source, each in ascending
        ``(distance, id)`` order with ``min(k, #unique targets)`` entries —
        bit-identical to per-query ``EmbeddingTreeIndex.knn_prepared``.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        model = self._model_or_raise()
        prepared = self.prepare(targets)
        sources = np.asarray(sources, dtype=np.int64)
        with self.stats.timed("knn", sources.size):
            k_eff = min(k, prepared.m)
            if sources.size == 0 or k_eff == 0:
                return [np.empty(0, dtype=np.int64) for _ in range(sources.size)]
            rows, miss_idx = self._cached_rows(model, prepared, sources)
            out: List[Optional[np.ndarray]] = [None] * sources.size
            hit_idx = list(rows)
            step = max(1, _CHUNK_ELEMS // prepared.m)
            # perf: loop-ok (memory chunking; each chunk is one top-k pass)
            for start in range(0, len(hit_idx), step):
                block = hit_idx[start : start + step]
                top = _topk_rows(
                    np.stack([rows[i] for i in block]), prepared.ids, k_eff
                )
                for i, ids in zip(block, top):  # perf: loop-ok (scatter)
                    out[i] = ids
            if miss_idx.size:
                miss_results = self._knn_frontier(
                    model, prepared, sources[miss_idx], k_eff
                )
                for j, res in zip(miss_idx, miss_results):  # perf: loop-ok (scatter)
                    out[int(j)] = res
            return [r for r in out if r is not None]

    @shapes(sources="(s,):int")
    def range_query(
        self, sources: np.ndarray, targets: Targets, tau: float
    ) -> List[np.ndarray]:
        """Batched range query (embedding metric, sorted-ids contract).

        Returns, per source, the ascending sorted ids of targets within
        embedding distance ``tau`` — bit-identical to per-query
        ``EmbeddingTreeIndex.range_prepared``.
        """
        if not tau >= 0:  # also rejects NaN
            raise ValueError(f"tau must be >= 0, got {tau}")
        model = self._model_or_raise()
        prepared = self.prepare(targets)
        sources = np.asarray(sources, dtype=np.int64)
        with self.stats.timed("range", sources.size):
            if sources.size == 0 or prepared.m == 0:
                return [np.empty(0, dtype=np.int64) for _ in range(sources.size)]
            rows, miss_idx = self._cached_rows(model, prepared, sources)
            out: List[Optional[np.ndarray]] = [None] * sources.size
            for i, row in rows.items():  # perf: loop-ok (cache hits only)
                out[i] = prepared.ids[row <= tau]
            if miss_idx.size:
                miss_results = self._range_frontier(
                    model, prepared, sources[miss_idx], tau
                )
                for j, res in zip(miss_idx, miss_results):  # perf: loop-ok (scatter)
                    out[int(j)] = res
            return [r for r in out if r is not None]

    # ------------------------------------------------------------------
    # exact (fallback) serving
    # ------------------------------------------------------------------
    @shapes(pairs="(b,2):int", ret="(b,):float")
    def exact_distances(self, pairs: np.ndarray) -> np.ndarray:
        """True network distances, one cached SSSP tree per distinct source."""
        graph = self._graph_or_raise()
        pairs = np.asarray(pairs, dtype=np.int64)
        with self.stats.timed("exact_distances", pairs.shape[0]):
            out = np.empty(pairs.shape[0], dtype=np.float64)
            # perf: loop-ok (one SSSP per distinct source; gather vectorised)
            for s in np.unique(pairs[:, 0]):
                sel = pairs[:, 0] == s
                out[sel] = self._sssp_row(graph, int(s))[pairs[sel, 1]]
            return out

    @shapes(sources="(s,):int")
    def exact_knn(
        self, sources: np.ndarray, targets: Targets, k: int
    ) -> List[np.ndarray]:
        """Batched exact kNN ((distance, id) contract; unreachable excluded)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        graph = self._graph_or_raise()
        prepared = self.prepare(targets)
        sources = np.asarray(sources, dtype=np.int64)
        with self.stats.timed("exact_knn", sources.size):
            out = []
            # perf: loop-ok (one cached SSSP tree per source)
            for s in sources:
                d = self._sssp_row(graph, int(s))[prepared.ids]
                finite = np.isfinite(d)
                ids, d = prepared.ids[finite], d[finite]
                order = np.lexsort((ids, d))[: min(k, ids.size)]
                out.append(ids[order])
            return out

    @shapes(sources="(s,):int")
    def exact_range(
        self, sources: np.ndarray, targets: Targets, tau: float
    ) -> List[np.ndarray]:
        """Batched exact range query (sorted-ids contract)."""
        if not tau >= 0:  # also rejects NaN
            raise ValueError(f"tau must be >= 0, got {tau}")
        graph = self._graph_or_raise()
        prepared = self.prepare(targets)
        sources = np.asarray(sources, dtype=np.int64)
        with self.stats.timed("exact_range", sources.size):
            out = []
            # perf: loop-ok (one cached SSSP tree per source)
            for s in sources:
                d = self._sssp_row(graph, int(s))[prepared.ids]
                out.append(prepared.ids[d <= tau])
            return out

    def sssp_row(self, source: int) -> np.ndarray:
        """Exact distances from ``source`` to every vertex (LRU-cached)."""
        return self._sssp_row(self._graph_or_raise(), int(source))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe stats dump (ops, latency percentiles, cache hit rates)."""
        return self.stats.snapshot()

    def report(self) -> str:
        """Human-readable stats table."""
        return self.stats.report()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _model_or_raise(self) -> RNEModel:
        if self.model is None:
            raise ValueError("engine has no model; use the exact_* operations")
        return self.model

    def _graph_or_raise(self) -> Graph:
        if self.graph is None:
            raise ValueError("engine has no graph; exact serving unavailable")
        return self.graph

    def _sssp_row(self, graph: Graph, source: int) -> np.ndarray:
        row = self.sssp.get(source)
        if row is None:
            row = sssp_many(graph, np.array([source], dtype=np.int64))[0]
            self.sssp.put(source, row)
        return row

    def _cached_rows(
        self,
        model: RNEModel,
        prepared: PreparedTargets,
        sources: np.ndarray,
    ) -> Tuple[Dict[int, np.ndarray], np.ndarray]:
        """Split a source batch into cache hits and frontier misses.

        Returns ``(hits, miss_idx)`` where ``hits`` maps batch positions to
        full distance rows and ``miss_idx`` indexes the remaining sources.
        Second-touch misses pay one full-row pass and enter the cache so
        subsequent batches hit.
        """
        hits: Dict[int, np.ndarray] = {}
        miss: List[int] = []
        promote: List[int] = []
        # Keys embed the engine's embedding version: a row cached against
        # version v is unreachable at v+1, so a live update can never serve
        # stale distances out of this cache.
        # perf: loop-ok (per-source cache bookkeeping; row maths is vectorised)
        for i, s in enumerate(sources):
            key = (self.version, prepared.token, int(s))
            row = self.hot_rows.get(key)
            if row is not None:
                hits[i] = row
                continue
            if self.hot_rows.capacity and key in self._touched:
                promote.append(i)
            else:
                self._touch(key)
            miss.append(i)
        if promote:
            promote_sources = sources[np.array(promote, dtype=np.int64)]
            rows = self._full_rows(model, prepared, promote_sources)
            # perf: loop-ok (cache insertion per promoted source)
            for i, row in zip(promote, rows):
                self.hot_rows.put(
                    (self.version, prepared.token, int(sources[i])), row
                )
                hits[i] = row
                miss.remove(i)
        return hits, np.array(miss, dtype=np.int64)

    def _touch(self, key: Tuple[int, int, int]) -> None:
        if key in self._touched:
            self._touched.move_to_end(key)
        else:
            self._touched[key] = None
        while len(self._touched) > self._touch_capacity:
            self._touched.popitem(last=False)

    def _full_rows(
        self,
        model: RNEModel,
        prepared: PreparedTargets,
        sources: np.ndarray,
    ) -> np.ndarray:
        """(S, m) embedding distances from each source to every target id."""
        t_vecs = model.matrix[prepared.ids]
        out = np.empty((sources.size, prepared.m), dtype=np.float64)
        step = max(1, _CHUNK_ELEMS // max(1, prepared.m * model.d))
        # perf: loop-ok (memory chunking; each chunk is one vector pass)
        for start in range(0, sources.size, step):
            block = model.matrix[sources[start : start + step]]
            out[start : start + step] = lp_distance(
                block[:, None, :] - t_vecs[None, :, :], model.p
            )
        return out

    # -- batched frontiers ---------------------------------------------
    def _knn_frontier(
        self,
        model: RNEModel,
        prepared: PreparedTargets,
        sources: np.ndarray,
        k_eff: int,
    ) -> List[np.ndarray]:
        """Exact batched kNN via a leaf-bound matrix (see docs/SERVING.md).

        For each source the leaves are ranked by lower bound; walking that
        ranking until ``k_eff`` members are covered yields an upper bound
        ``ub`` on the k-th distance (the running max of centre-distance +
        radius), so every answer lies in a leaf with bound <= ``ub`` — the
        candidate set is a provable superset and the final ``(distance,
        id)`` lexsort over actual member distances is exact.
        """
        index = self.index
        if index is None or not prepared.has_tree:
            rows = self._full_rows(model, prepared, sources)
            return list(_topk_rows(rows, prepared.ids, k_eff))
        leaf_ids = prepared.leaf_ids
        member_flat = prepared.member_flat
        member_offsets = prepared.member_offsets
        if leaf_ids is None or member_flat is None or member_offsets is None:
            raise ValueError("prepared targets lack tree structure")
        centres = index.node_centres[leaf_ids]
        radii = index.node_radii[leaf_ids]
        counts = np.diff(member_offsets)
        results: List[np.ndarray] = []
        step = max(1, _CHUNK_ELEMS // max(1, leaf_ids.size * model.d))
        # perf: loop-ok (memory chunking over sources; body is vectorised)
        for start in range(0, sources.size, step):
            chunk = sources[start : start + step]
            q = model.matrix[chunk]
            cd = lp_distance(q[:, None, :] - centres[None, :, :], model.p)
            lb = np.maximum(cd - radii[None, :], 0.0)
            order = np.argsort(lb, axis=1, kind="stable")
            cum = np.cumsum(counts[order], axis=1)
            cut = np.minimum((cum < k_eff).sum(axis=1), leaf_ids.size - 1)
            running_ub = np.maximum.accumulate(
                np.take_along_axis(cd + radii[None, :], order, axis=1), axis=1
            )
            ub = running_ub[np.arange(chunk.size), cut]
            ub = ub + _UB_SLACK * (1.0 + np.abs(ub))
            active = lb <= ub[:, None]
            src_idx, leaf_idx = np.nonzero(active)
            gather = _flat_gather(member_offsets[leaf_idx], counts[leaf_idx])
            cand_ids = member_flat[gather]
            cand_src = np.repeat(src_idx, counts[leaf_idx])
            d = lp_distance(
                model.matrix[cand_ids] - q[cand_src], model.p
            )
            sel = np.lexsort((cand_ids, d, cand_src))
            seg_counts = np.bincount(cand_src, minlength=chunk.size)
            seg_off = np.concatenate(([0], np.cumsum(seg_counts)))
            sorted_ids = cand_ids[sel]
            # perf: loop-ok (per-source segment slicing of sorted output)
            for i in range(chunk.size):
                lo = int(seg_off[i])
                results.append(sorted_ids[lo : lo + min(k_eff, int(seg_counts[i]))])
        return results

    def _range_frontier(
        self,
        model: RNEModel,
        prepared: PreparedTargets,
        sources: np.ndarray,
        tau: float,
    ) -> List[np.ndarray]:
        """Exact batched range via level-synchronous frontier descent.

        Maintains a flat array of live (source, tree-node) pairs; one
        vectorised bound pass per tree level prunes and expands it — the
        surviving leaf set is *identical* to what the per-query descent
        visits, so the results are bit-for-bit the same.
        """
        index = self.index
        if index is None or not prepared.has_tree:
            rows = self._full_rows(model, prepared, sources)
            # perf: loop-ok (per-row threshold filter)
            return [prepared.ids[row <= tau] for row in rows]
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
        results: List[np.ndarray] = []
        roots = np.asarray(index.hierarchy.root_ids(), dtype=np.int64)
        counts = np.diff(member_offsets)
        step = max(1, _CHUNK_ELEMS // max(1, max(roots.size, 64) * model.d))
        # perf: loop-ok (memory chunking over sources; body is vectorised)
        for start in range(0, sources.size, step):
            chunk = sources[start : start + step]
            q = model.matrix[chunk]
            f_src = np.repeat(np.arange(chunk.size, dtype=np.int64), roots.size)
            f_node = np.tile(roots, chunk.size)
            # perf: loop-ok (one vectorised pass per tree level)
            for _level in range(index.leaf_level + 1):
                if f_src.size == 0:
                    break
                alive = node_active[f_node]
                f_src, f_node = f_src[alive], f_node[alive]
                bound = np.maximum(
                    lp_distance(
                        q[f_src] - index.node_centres[f_node], model.p
                    )
                    - index.node_radii[f_node],
                    0.0,
                )
                keep = bound <= tau
                f_src, f_node = f_src[keep], f_node[keep]
                if _level == index.leaf_level:
                    break
                child_counts = (
                    index.child_offsets[f_node + 1] - index.child_offsets[f_node]
                )
                gather = _flat_gather(index.child_offsets[f_node], child_counts)
                f_src = np.repeat(f_src, child_counts)
                f_node = index.child_flat[gather]
            # Surviving frontier entries are target-holding leaves.
            positions = leaf_pos[f_node]
            gather = _flat_gather(member_offsets[positions], counts[positions])
            cand_ids = member_flat[gather]
            cand_src = np.repeat(f_src, counts[positions])
            d = lp_distance(model.matrix[cand_ids] - q[cand_src], model.p)
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
