"""Live-update orchestration: retrain, publish, invalidate — in that order.

The staleness bug this module exists to prevent: ``update_rne`` used to
mutate the hierarchical model in place while serving structures built from
the *old* embedding — tree-index centres/radii, hot-row caches, prepared
targets, SSSP trees — kept answering queries.  kNN and range results were
then inconsistent with the very distances the engine reported, and cached
rows stayed wrong forever.

The fix is structural, not a flush: embeddings carry a monotonically
increasing **version** (:attr:`repro.core.pipeline.RNE.version`), serving
caches key entries by it, and :class:`LiveUpdateManager` is the single
place a version ever advances.  An update is:

1. **retrain** on a private copy of the vertex level
   (:func:`repro.core.update.update_rne` — the serving model is untouched
   and fully queryable throughout);
2. **publish** — the tree index builds the next version's
   :class:`~repro.core.index.ServingSnapshot` off to the side (rows plus a
   subtree-local centre/radius refresh,
   :meth:`~repro.core.index.EmbeddingTreeIndex.refresh_rows`, bit-identical
   to a full rebuild) and publishes it with one reference assignment;
   engines read every batch from one snapshot, so they answer at the old
   or the new version, never a mix.  The RNE's model matrix and version
   then follow for its own ``query``/``save``;
3. **invalidate** — every attached engine adopts the new version (stale
   hot rows become unreachable by key construction and are purged), every
   attached oracle re-binds the new graph, drops SSSP trees when the road
   network itself changed, and re-probes its error bound.

:class:`~repro.core.index.PreparedTargets` survive the swap untouched:
they depend only on tree *structure* and target ids, never on embedding
values, so in-flight prepared sets stay valid across versions (tested in
``tests/live``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.hierarchical import HierarchicalRNE
from ..core.pipeline import RNE
from ..core.training import TrainConfig
from ..core.update import UpdateResult, update_rne
from ..graph import Graph
from ..reliability.artifacts import graph_fingerprint
from ..reliability.checkpoint import CheckpointManager, pack_state
from ..reliability.fallback import ResilientOracle
from ..serving.engine import BatchQueryEngine

__all__ = ["LiveUpdateManager", "UpdateStats", "perturb_weights"]


@dataclass
class UpdateStats:
    """Everything one live update did, JSON-safe for observability.

    Surfaced through ``ServingStats.snapshot()["live_updates"]`` on every
    attached engine and printed by ``rne update``.
    """

    version_before: int = 0
    version_after: int = 0
    graph_changed: bool = False
    published: bool = False
    affected_vertices: int = 0
    changed_rows: int = 0
    index_nodes_refreshed: int = 0
    error_before: float = 0.0
    error_after: float = 0.0
    round_errors: List[float] = field(default_factory=list)
    rounds_run: int = 0
    samples_per_round: List[int] = field(default_factory=list)
    train_seconds: float = 0.0
    swap_seconds: float = 0.0
    total_seconds: float = 0.0
    engine_invalidations: List[Dict[str, int]] = field(default_factory=list)
    labeling: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    checkpoint_path: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (everything already JSON-serialisable)."""
        return {
            "version_before": self.version_before,
            "version_after": self.version_after,
            "graph_changed": self.graph_changed,
            "published": self.published,
            "affected_vertices": self.affected_vertices,
            "changed_rows": self.changed_rows,
            "index_nodes_refreshed": self.index_nodes_refreshed,
            "error_before": self.error_before,
            "error_after": self.error_after,
            "round_errors": list(self.round_errors),
            "rounds_run": self.rounds_run,
            "samples_per_round": list(self.samples_per_round),
            "train_seconds": self.train_seconds,
            "swap_seconds": self.swap_seconds,
            "total_seconds": self.total_seconds,
            "engine_invalidations": [dict(c) for c in self.engine_invalidations],
            "labeling": dict(self.labeling),
            "notes": list(self.notes),
            "checkpoint_path": self.checkpoint_path,
        }

    def report(self) -> str:
        """Human-readable one-update summary (CLI output)."""
        lines = [
            f"version   {self.version_before} -> {self.version_after}"
            f" ({'published' if self.published else 'kept previous embedding'})",
            f"graph     {'changed' if self.graph_changed else 'unchanged'}",
            f"region    {self.affected_vertices} vertices affected, "
            f"{self.changed_rows} embedding rows changed, "
            f"{self.index_nodes_refreshed} index nodes refreshed",
            f"error     {self.error_before:.4f} -> {self.error_after:.4f} "
            f"(rounds: {', '.join(f'{e:.4f}' for e in self.round_errors) or '-'})",
            f"timing    train {self.train_seconds * 1e3:.1f} ms, "
            f"swap {self.swap_seconds * 1e3:.2f} ms, "
            f"total {self.total_seconds * 1e3:.1f} ms",
        ]
        for counts in self.engine_invalidations:
            lines.append(
                f"engine    v{counts.get('from_version')} -> "
                f"v{counts.get('to_version')}: "
                f"{counts.get('hot_rows_purged', 0)} hot rows purged, "
                f"{counts.get('sssp_dropped', 0)} SSSP trees dropped"
            )
        if self.checkpoint_path:
            lines.append(f"journal   {self.checkpoint_path}")
        for note in self.notes:
            lines.append(f"note      {note}")
        return "\n".join(lines)


def perturb_weights(
    graph: Graph,
    *,
    factor: float = 2.0,
    count: int = 10,
    seed: int = 0,
) -> Tuple[Graph, np.ndarray]:
    """Scale ``count`` random edge weights by ``factor`` (traffic model).

    Returns ``(new_graph, changed_edges)`` where ``changed_edges`` is the
    ``(count, 2)`` endpoint array that :meth:`LiveUpdateManager.update`
    expects.  Topology and coordinates are preserved — this is the paper's
    road-network setting where congestion changes costs, not geometry.
    """
    if factor <= 0:
        raise ValueError(f"factor must be > 0, got {factor}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    us, vs, ws = graph.edge_array()
    rng = np.random.default_rng(seed)
    picks = rng.choice(us.size, size=min(count, us.size), replace=False)
    new_ws = ws.astype(np.float64).copy()
    new_ws[picks] *= factor
    edges = list(zip(us.tolist(), vs.tolist(), new_ws.tolist()))
    new_graph = Graph(graph.n, edges, coords=graph.coords)
    changed = np.column_stack([us[picks], vs[picks]]).astype(np.int64)
    return new_graph, changed


def _vertex_view(rne: RNE) -> HierarchicalRNE:
    """A trainable hierarchical view equivalent to the RNE's flat matrix.

    The hierarchy's vertex level indexes vertices identically
    (``anc_rows[v, -1] == v``), so zero coarse levels plus a *copy* of the
    global matrix at the vertex level reproduces the model's distances
    exactly — and lets ``update_rne`` run its coarse-frozen schedule
    against a loaded artifact that no longer carries per-level locals.
    The block has the served matrix's dtype, so the retrain runs that
    dtype's kernel and publishes rows the snapshot can take as they are.
    """
    hierarchy = rne.hierarchy
    if hierarchy is None:
        raise ValueError(
            "live updates need a partition hierarchy (train with one, or "
            "load an artifact that includes anc_rows)"
        )
    anc = hierarchy.anc_rows
    if not np.array_equal(anc[:, -1], np.arange(rne.graph.n)):
        raise ValueError("hierarchy vertex level is not the identity mapping")
    coarse = sum(hierarchy.level_size(level) for level in range(hierarchy.num_levels - 1))
    block = np.zeros((coarse + rne.graph.n, rne.model.d), dtype=rne.model.matrix.dtype)
    block[coarse:] = rne.model.matrix
    return HierarchicalRNE._from_block(hierarchy, block, rne.model.p)


class LiveUpdateManager:
    """Owns the retrain → publish → invalidate lifecycle of one RNE.

    Parameters
    ----------
    rne:
        The serving model.  Must carry a partition hierarchy and tree
        index (both are present for pipeline-built and artifact-loaded
        RNEs with ``anc_rows``).
    engines:
        :class:`~repro.serving.engine.BatchQueryEngine` instances serving
        this RNE; more can be attached later.  Each must already share the
        RNE's model object and tree index — the manager publishes through
        the index's snapshot, which only reaches engines holding that
        index.
    oracles:
        :class:`~repro.reliability.fallback.ResilientOracle` instances
        serving this RNE (same sharing requirement).
    checkpoints:
        Optional :class:`~repro.reliability.checkpoint.CheckpointManager`;
        when given, every published update journals the new matrix (tagged
        with its version) so a crashed server can prove which embedding it
        was serving.
    """

    def __init__(
        self,
        rne: RNE,
        *,
        engines: Tuple[BatchQueryEngine, ...] = (),
        oracles: Tuple[ResilientOracle, ...] = (),
        checkpoints: Optional[CheckpointManager] = None,
    ) -> None:
        if rne.hierarchy is None or rne.index is None:
            raise ValueError(
                "live updates need a hierarchy-backed RNE (with a tree index)"
            )
        self.rne = rne
        self.engines: List[BatchQueryEngine] = []
        self.oracles: List[ResilientOracle] = []
        self.checkpoints = checkpoints
        #: UpdateStats of every update applied through this manager.
        self.history: List[UpdateStats] = []
        for engine in engines:
            self.attach_engine(engine)
        for oracle in oracles:
            self.attach_oracle(oracle)

    # ------------------------------------------------------------------
    def attach_engine(self, engine: BatchQueryEngine) -> BatchQueryEngine:
        """Register an engine for invalidation on every future update."""
        if engine.model is not None and (
            engine.model is not self.rne.model or engine.index is not self.rne.index
        ):
            raise ValueError(
                "engine serves a different model object or index; live "
                "publishes would never reach it"
            )
        if engine.version > self.rne.version:
            raise ValueError(
                f"engine is at version {engine.version}, ahead of the "
                f"model's {self.rne.version}"
            )
        self.engines.append(engine)
        return engine

    def attach_oracle(self, oracle: ResilientOracle) -> ResilientOracle:
        """Register a resilient oracle for invalidation on every update."""
        if oracle.rne is not None and oracle.rne is not self.rne:
            raise ValueError(
                "oracle serves a different RNE object; live publishes "
                "would never reach it"
            )
        self.oracles.append(oracle)
        return oracle

    # ------------------------------------------------------------------
    def update(
        self,
        new_graph: Graph,
        changed_edges: np.ndarray,
        *,
        hops: int = 2,
        samples: int = 8000,
        rounds: int = 3,
        config: Optional[TrainConfig] = None,
        validation_size: int = 1000,
        seed: int = 0,
        workers: Optional[int] = None,
    ) -> UpdateStats:
        """Run one full live update; returns its :class:`UpdateStats`.

        Serving stays available the whole time: retraining happens on a
        private copy, and the publish step is a subtree-local index
        refresh ending in one snapshot swap (milliseconds, measured as
        ``swap_seconds``).
        """
        total_start = time.perf_counter()
        stats = UpdateStats(
            version_before=int(self.rne.version),
            version_after=int(self.rne.version),
        )
        stats.graph_changed = graph_fingerprint(new_graph) != graph_fingerprint(
            self.rne.graph
        )

        view = _vertex_view(self.rne)
        result: UpdateResult = update_rne(
            view,
            new_graph,
            changed_edges,
            hops=hops,
            samples=samples,
            rounds=rounds,
            config=config,
            validation_size=validation_size,
            seed=seed,
            workers=workers,
        )
        stats.affected_vertices = result.affected_vertices
        stats.changed_rows = int(result.changed_rows.size)
        stats.error_before = result.error_before
        stats.error_after = result.error_after
        stats.round_errors = list(result.round_errors)
        stats.rounds_run = result.rounds_run
        stats.samples_per_round = list(result.samples_per_round)
        stats.train_seconds = result.train_seconds
        stats.labeling = dict(result.labeling)
        stats.notes = list(result.notes)
        stats.published = result.published

        swap_start = time.perf_counter()
        if result.published:
            new_matrix = view.block[view.offsets[-2] :]
            index = self.rne.index
            if index is None:  # enforced at construction, re-checked for -O runs
                raise RuntimeError("serving RNE lost its tree index mid-update")
            stats.index_nodes_refreshed = index.refresh_rows(
                new_matrix, result.changed_rows
            )
            self.rne.model.matrix = new_matrix
            self.rne.version = index.snapshot.version
            stats.version_after = int(self.rne.version)
        if stats.graph_changed:
            self.rne.graph = new_graph
        for engine in self.engines:
            counts = engine.set_version(
                self.rne.version,
                graph=new_graph if stats.graph_changed else None,
            )
            stats.engine_invalidations.append(counts)
        for oracle in self.oracles:
            counts = oracle.apply_update(new_graph, seed=seed)
            stats.engine_invalidations.append(counts)
        stats.swap_seconds = time.perf_counter() - swap_start

        if self.checkpoints is not None and result.published:
            arrays, meta = pack_state(self.rne.model.matrix, version=self.rne.version)
            stats.checkpoint_path = self.checkpoints.save(
                "live_update", arrays, meta, step=self.rne.version
            )

        stats.total_seconds = time.perf_counter() - total_start
        record = stats.as_dict()
        for engine in self.engines:
            engine.stats.record_update(record)
        for oracle in self.oracles:
            oracle.engine.stats.record_update(record)
        self.history.append(stats)
        return stats
