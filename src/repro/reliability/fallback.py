"""Graceful-degradation serving: learned answers when safe, exact otherwise.

Learned distance oracles give no per-query guarantees — a stale or corrupt
embedding answers *confidently and wrongly*.  :class:`ResilientOracle`
closes that hole for serving:

* at construction it loads the RNE artifact through the validating
  artifact layer (checksums + graph fingerprint) and optionally probes the
  model's error on sampled pairs against exact Dijkstra ground truth;
* if the artifact is rejected, or the probed mean relative error exceeds
  the caller's bound, the oracle *degrades*: every query is served by the
  exact algorithms instead, and counters record the fallback rate so
  operators can alarm on it;
* healthy oracles serve O(d) learned answers with zero added overhead
  beyond one counter increment.

Degradation is all-or-nothing by design: per-query error detection would
require the exact answer per query, which is exactly the cost the learned
index exists to avoid.

Both modes route through a :class:`~repro.serving.engine.BatchQueryEngine`
(healthy: vectorised embedding serving; degraded: cached-SSSP exact
serving), so fallback traffic is batched and observable exactly like
learned traffic — ``serving_snapshot()`` exposes per-op latency
percentiles and cache hit rates on top of the fallback counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from ..algorithms.dijkstra import pair_distances
from ..core.index import PreparedTargets
from ..core.pipeline import RNE
from ..graph import Graph
from ..serving.engine import BatchQueryEngine
from .artifacts import ArtifactError, graph_fingerprint

__all__ = ["OracleStats", "ResilientOracle"]


@dataclass
class OracleStats:
    """Serving counters: how often the exact fallback carried a query."""

    model_queries: int = 0
    fallback_queries: int = 0
    degraded: bool = False
    degraded_reason: Optional[str] = None
    probe_mean_rel_error: Optional[float] = None
    notes: list[str] = field(default_factory=list)

    @property
    def total_queries(self) -> int:
        return self.model_queries + self.fallback_queries

    @property
    def fallback_rate(self) -> float:
        total = self.total_queries
        return self.fallback_queries / total if total else 0.0


class ResilientOracle:
    """Distance oracle that falls back to exact search when trust is lost.

    Parameters
    ----------
    graph:
        The live road network queries refer to.  This is the source of
        truth; the artifact must prove it belongs to it.
    artifact_path:
        A saved :class:`~repro.core.pipeline.RNE` artifact.  Corrupt,
        truncated, or wrong-graph artifacts degrade the oracle instead of
        raising.
    rne:
        Alternatively, an already-loaded (trusted) RNE.
    error_bound:
        Optional mean-relative-error budget.  When set, ``probe_pairs``
        random pairs are labelled exactly and the model must beat the
        bound, else the oracle degrades.
    probe_pairs:
        Number of validation pairs for the error probe.
    seed:
        Seed for the probe-pair sample (determinism contract of the repo).
    row_cache_size / sssp_cache_size:
        Passed to the serving engine's hot-row and SSSP-tree LRUs.
    """

    def __init__(
        self,
        graph: Graph,
        artifact_path: Optional[str] = None,
        *,
        rne: Optional[RNE] = None,
        error_bound: Optional[float] = None,
        probe_pairs: int = 64,
        seed: int = 0,
        row_cache_size: int = 256,
        sssp_cache_size: int = 32,
    ) -> None:
        if (artifact_path is None) == (rne is None):
            raise ValueError("provide exactly one of artifact_path or rne")
        if error_bound is not None and error_bound <= 0:
            raise ValueError(f"error_bound must be > 0, got {error_bound}")
        self.graph = graph
        self.stats = OracleStats()
        self.rne: Optional[RNE] = rne
        self.error_bound = error_bound
        self._row_cache_size = row_cache_size
        self._sssp_cache_size = sssp_cache_size
        if artifact_path is not None:
            try:
                self.rne = RNE.load(artifact_path, graph)
            except ArtifactError as exc:
                self._degrade(f"artifact rejected: {exc}")
        if self.rne is not None and error_bound is not None:
            self._probe(probe_pairs, seed)
        self.engine = self._make_engine()

    # ------------------------------------------------------------------
    # health management
    # ------------------------------------------------------------------
    def _make_engine(self) -> BatchQueryEngine:
        model = self.rne.model if self.rne is not None else None
        index = self.rne.index if self.rne is not None else None
        return BatchQueryEngine(
            model=model,
            index=index,
            graph=self.graph,
            row_cache_size=self._row_cache_size,
            sssp_cache_size=self._sssp_cache_size,
            version=int(self.rne.version) if self.rne is not None else 0,
        )

    def apply_update(
        self,
        new_graph: Graph,
        *,
        probe_pairs: int = 64,
        seed: int = 0,
    ) -> dict:
        """Adopt a live update: new graph, already-published embedding.

        Called by :class:`repro.live.LiveUpdateManager` *after* the RNE's
        embedding and version were swapped in place.  The oracle switches
        its source of truth to ``new_graph``, advances the engine to the
        RNE's current version (purging version-keyed hot rows and — since
        the graph changed — cached SSSP trees), and, when an
        ``error_bound`` is configured, re-probes the updated model against
        exact distances on the new graph; a model that no longer beats the
        bound degrades to exact serving right here rather than after the
        first wrong answer.

        A degraded oracle still adopts the new graph — its exact fallback
        must not keep answering from the old road network.

        Returns the engine's invalidation counts.
        """
        if new_graph.n != self.graph.n:
            raise ValueError(
                f"updated graph has {new_graph.n} vertices, "
                f"oracle serves {self.graph.n}"
            )
        graph_changed = graph_fingerprint(new_graph) != graph_fingerprint(self.graph)
        self.graph = new_graph
        if self.rne is not None:
            target_version = max(int(self.rne.version), self.engine.version)
        else:
            target_version = self.engine.version
        # SSSP trees hold *exact* distances: they only go stale when the
        # road network itself changed, not when the embedding moved.
        counts = self.engine.set_version(
            target_version, graph=new_graph if graph_changed else None
        )
        self.stats.notes.append(
            f"live update adopted at version {counts['to_version']} "
            f"({counts['hot_rows_purged']} hot rows, "
            f"{counts['sssp_dropped']} SSSP trees invalidated)"
        )
        if self.rne is not None and self.error_bound is not None:
            self._probe(probe_pairs, seed)
        return counts

    def _degrade(self, reason: str) -> None:
        self.rne = None
        self.stats.degraded = True
        self.stats.degraded_reason = reason
        self.stats.notes.append(reason)
        if getattr(self, "engine", None) is not None:
            # Drop the learned engine; keep serving exactly (fresh caches).
            self.engine = self._make_engine()

    def _probe(self, probe_pairs: int, seed: int) -> None:
        """Compare the model against exact distances on sampled pairs."""
        if probe_pairs < 1:
            raise ValueError(f"probe_pairs must be >= 1, got {probe_pairs}")
        rne = self.rne
        if rne is None:  # pragma: no cover - guarded by the caller
            return
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, self.graph.n, size=(probe_pairs, 2))
        exact = pair_distances(self.graph, pairs)
        ok = np.isfinite(exact) & (exact > 0)
        if not ok.any():
            self.stats.notes.append("error probe skipped: no reachable pairs")
            return
        model = rne.query_pairs(pairs[ok])
        mean_rel = float(np.mean(np.abs(model - exact[ok]) / exact[ok]))
        self.stats.probe_mean_rel_error = mean_rel
        if self.error_bound is not None and mean_rel > self.error_bound:
            self._degrade(
                f"probed mean relative error {mean_rel:.4f} exceeds "
                f"bound {self.error_bound:.4f}"
            )

    @property
    def healthy(self) -> bool:
        """Whether queries are currently served by the learned model."""
        return self.rne is not None

    # ------------------------------------------------------------------
    # queries — learned when healthy, exact otherwise
    # ------------------------------------------------------------------
    def query(self, s: int, t: int) -> float:
        """Point-to-point distance; exact cached-SSSP serving on fallback."""
        return float(self.query_pairs(np.array([[s, t]], dtype=np.int64))[0])

    def query_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Batched distances; exact cached-SSSP serving on fallback."""
        pairs = np.asarray(pairs, dtype=np.int64)
        if self.rne is not None:
            self.stats.model_queries += pairs.shape[0]
            return self.engine.distances(pairs)
        self.stats.fallback_queries += pairs.shape[0]
        return self.engine.exact_distances(pairs)

    def prepare(self, targets: Union[np.ndarray, PreparedTargets]) -> PreparedTargets:
        """Preprocess a target set for repeated kNN/range serving."""
        return self.engine.prepare(targets)

    def range_query(
        self,
        source: int,
        targets: Union[np.ndarray, PreparedTargets],
        tau: float,
    ) -> np.ndarray:
        """Targets within ``tau`` of ``source`` (ascending sorted ids).

        Exact network distances on fallback; both modes follow the shared
        range contract (sorted ids, duplicates deduplicated).
        """
        return self.range_batch(np.array([source], dtype=np.int64), targets, tau)[0]

    def knn(
        self,
        source: int,
        targets: Union[np.ndarray, PreparedTargets],
        k: int,
    ) -> np.ndarray:
        """k nearest targets; exact on fallback.

        Both modes follow the shared kNN contract: ascending
        ``(distance, id)`` order, ``min(k, #unique targets)`` results (the
        exact path additionally excludes unreachable targets).
        """
        return self.knn_batch(np.array([source], dtype=np.int64), targets, k)[0]

    def knn_batch(
        self,
        sources: np.ndarray,
        targets: Union[np.ndarray, PreparedTargets],
        k: int,
    ) -> List[np.ndarray]:
        """Batched kNN for many sources — one engine call either mode."""
        sources = np.asarray(sources, dtype=np.int64)
        if self.rne is not None:
            self.stats.model_queries += sources.size
            return self.engine.knn(sources, targets, k)
        self.stats.fallback_queries += sources.size
        return self.engine.exact_knn(sources, targets, k)

    def range_batch(
        self,
        sources: np.ndarray,
        targets: Union[np.ndarray, PreparedTargets],
        tau: float,
    ) -> List[np.ndarray]:
        """Batched range query for many sources — one engine call either mode."""
        sources = np.asarray(sources, dtype=np.int64)
        if self.rne is not None:
            self.stats.model_queries += sources.size
            return self.engine.range_query(sources, targets, tau)
        self.stats.fallback_queries += sources.size
        return self.engine.exact_range(sources, targets, tau)

    def knn_join(self, sources: np.ndarray, targets: np.ndarray, k: int) -> np.ndarray:
        """k nearest targets per source; one cached SSSP per source on fallback.

        Returns a ``(len(sources), min(k, #unique targets))`` matrix in
        ascending ``(distance, id)`` row order.  Unlike :meth:`knn_batch`
        the fallback keeps unreachable targets (at infinite distance) so
        rows stay rectangular.
        """
        sources = np.asarray(sources, dtype=np.int64)
        if self.rne is not None:
            self.stats.model_queries += sources.size
            return self.rne.knn_join(sources, targets, k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.stats.fallback_queries += sources.size
        targets = np.unique(np.asarray(targets, dtype=np.int64))
        k_eff = min(k, targets.size)
        out = np.empty((sources.size, k_eff), dtype=np.int64)
        for row, source in enumerate(sources):
            dist = self._sssp(int(source))
            order = np.lexsort((targets, dist[targets]))
            out[row] = targets[order[:k_eff]]
        return out

    def _sssp(self, source: int) -> np.ndarray:
        return self.engine.sssp_row(int(source))

    # ------------------------------------------------------------------
    # serving observability
    # ------------------------------------------------------------------
    def serving_snapshot(self) -> dict:
        """Engine-level serving stats (latency percentiles, cache hit rates)."""
        return self.engine.snapshot()

    def serving_report(self) -> str:
        """Human-readable serving stats table."""
        return self.engine.report()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "model" if self.healthy else "fallback"
        return (
            f"ResilientOracle(mode={mode}, "
            f"fallback_rate={self.stats.fallback_rate:.3f})"
        )
