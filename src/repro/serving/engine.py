"""Batched query-serving engine over a trained RNE (see ``docs/SERVING.md``).

The paper's central claim (Sec. III) is that queries are O(d) vector ops;
this module makes that claim measurable by serving whole batches through
single numpy passes instead of per-query Python loops:

* ``distances`` — a ``(B, 2)`` pair batch is one fancy-index + one Lp
  reduction.
* ``knn`` / ``range_query`` — many sources against one
  :class:`~repro.core.index.PreparedTargets` set through the index's
  batched frontier kernels (:func:`~repro.core.index.knn_frontier`,
  :func:`~repro.core.index.range_frontier`), the repo's one kNN/range
  path.
* ``exact_*`` — ground-truth serving for degraded mode, amortising one
  cached SSSP tree per distinct source.

Every learned batch loads the index's published
:class:`~repro.core.index.ServingSnapshot` once and takes rows, centres
and radii from it, so a live update that publishes mid-batch cannot mix
two versions into one answer.  Distances are computed, cached and
compared with ``tau`` in the snapshot's dtype (float32 for a built
model).

Caching: an LRU of *hot rows* — full embedding-distance rows from a source
to a prepared target set, keyed by the snapshot's version and promoted
once a source repeats — lets repeated sources skip the frontier entirely;
an LRU of *SSSP trees* does the same for exact serving.  All operations
record latency/throughput into a :class:`~repro.serving.stats.ServingStats`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..algorithms.dijkstra import sssp_many
from ..core.index import (
    _CHUNK_ELEMS,
    EmbeddingTreeIndex,
    PreparedTargets,
    ServingSnapshot,
    full_rows,
    knn_frontier,
    range_frontier,
    served_tau,
)
from ..core.model import RNEModel, _topk_rows, lp_distance
from ..devtools.contracts import shapes
from ..graph import Graph
from .cache import LRUCache
from .stats import ServingStats

__all__ = ["BatchQueryEngine"]

Targets = Union[np.ndarray, PreparedTargets]


class BatchQueryEngine:
    """Vectorised batch serving for distance, kNN and range queries.

    Parameters
    ----------
    model:
        The learned embedding (``None`` for an exact-only engine).
    index:
        Tree index whose snapshot holds ``model.matrix`` itself; enables
        frontier-pruned batched kNN/range.  Without it those score every
        target.
    graph:
        The road network; required for the ``exact_*`` fallback path.
    row_cache_size:
        Capacity of the hot-row LRU (entries are ``(prepared target set,
        source)`` distance rows).  ``0`` disables it.
    sssp_cache_size:
        Capacity of the exact SSSP-tree LRU.  ``0`` disables it.
    version:
        Embedding version this engine serves (``RNE.version``).  Hot-row
        cache keys embed the version of the snapshot a row was computed
        from, so entries computed against one embedding can never answer
        queries against another — staleness after a live update is
        impossible *by construction*, not by best-effort flushing.  Bumped
        via :meth:`set_version`, which purges rows of other versions.
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
        if (
            index is not None
            and model is not None
            and index.snapshot.matrix is not model.matrix
        ):
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
        # and caches it.  Guarded by the hot-row cache's lock, which the
        # writer's purge in set_version also takes.
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
        with self.hot_rows.lock:
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
        """Approximate distances for a ``(B, 2)`` pair batch — one numpy pass.

        Returned in the snapshot's dtype, exactly ``|a - b|`` summed over
        the last axis for ``p = 1``.
        """
        model = self._model_or_raise()
        pairs = np.asarray(pairs, dtype=np.int64)
        with self.stats.timed("distances", pairs.shape[0]):
            matrix = self._snapshot(model).matrix
            return lp_distance(matrix[pairs[:, 0]] - matrix[pairs[:, 1]], model.p)

    @shapes(sources="(s,):int")
    def knn(self, sources: np.ndarray, targets: Targets, k: int) -> List[np.ndarray]:
        """Batched k nearest targets for every source (embedding metric).

        Returns one id array per source, each in ascending
        ``(distance, id)`` order with ``min(k, #unique targets)`` entries —
        bit-identical to ``RNEModel.knn_brute`` on the snapshot's rows.
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
            snap = self._snapshot(model)
            rows, miss_idx = self._cached_rows(snap, model.p, prepared, sources)
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
                miss_results = knn_frontier(
                    snap, prepared, sources[miss_idx], k_eff, model.p, self.index
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
        embedding distance ``tau`` of the snapshot's rows: ``d <= tau`` on
        snapshot-dtype distances, with ``tau`` as given.
        """
        if not tau >= 0:  # also rejects NaN
            raise ValueError(f"tau must be >= 0, got {tau}")
        model = self._model_or_raise()
        prepared = self.prepare(targets)
        sources = np.asarray(sources, dtype=np.int64)
        with self.stats.timed("range", sources.size):
            if sources.size == 0 or prepared.m == 0:
                return [np.empty(0, dtype=np.int64) for _ in range(sources.size)]
            snap = self._snapshot(model)
            tau = served_tau(tau, snap.matrix.dtype)
            rows, miss_idx = self._cached_rows(snap, model.p, prepared, sources)
            out: List[Optional[np.ndarray]] = [None] * sources.size
            for i, row in rows.items():  # perf: loop-ok (cache hits only)
                out[i] = prepared.ids[row <= tau]
            if miss_idx.size:
                miss_results = range_frontier(
                    snap, prepared, sources[miss_idx], tau, model.p, self.index
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

    def _snapshot(self, model: RNEModel) -> ServingSnapshot:
        """The one snapshot a batch reads rows (and node geometry) from."""
        if self.index is not None:
            return self.index.snapshot
        return ServingSnapshot.of_matrix(self.version, model.matrix)

    def _cached_rows(
        self,
        snap: ServingSnapshot,
        p: float,
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
        # Keys embed the snapshot's version: a row cached against version
        # v is unreachable at v+1, so a live update can never serve stale
        # distances out of this cache.
        admit = self.hot_rows.capacity > 0  # else no ledger: nothing to promote into
        with self.hot_rows.lock:
            # perf: loop-ok (per-source cache bookkeeping; row maths is vectorised)
            for i, s in enumerate(sources):
                key = (snap.version, prepared.token, int(s))
                row = self.hot_rows.get(key)
                if row is not None:
                    hits[i] = row
                elif admit and key in self._touched:
                    promote.append(i)
                else:
                    if admit:
                        self._touched[key] = None
                        if len(self._touched) > self._touch_capacity:
                            self._touched.popitem(last=False)
                    miss.append(i)
        if promote:
            rows = full_rows(snap, prepared, sources[promote], p)
            # perf: loop-ok (cache insertion per promoted source)
            for i, row in zip(promote, rows):
                self.hot_rows.put((snap.version, prepared.token, int(sources[i])), row)
                hits[i] = row
        return hits, np.array(miss, dtype=np.int64)
