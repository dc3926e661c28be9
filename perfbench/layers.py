"""Which public names the traced run wraps, and the per-layer metrics.

Layers are named after ``src/repro`` modules.  Each trace point is
``(target, span name, info, scope)``: ``info`` turns the call's bound
arguments and result into counts recorded on the span, and ``scope``
limits which modules' bindings of a function are wrapped.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .harness import Run, percentile
from .tracing import Info, Tracer, coverage, self_times


def _rows(b: Any, r: Any) -> Dict[str, float]:
    return {"rows": float(len(b.arguments["sources"]))}


def _pair_epochs(b: Any, r: Any) -> Dict[str, float]:
    return {"pair_epochs": float(len(b.arguments["pairs"]) * b.arguments["config"].epochs)}


def _retries(b: Any, r: Any) -> Dict[str, float]:
    return {"retries": float(r.attempts - 1)}


def _retrain(b: Any, r: Any) -> Dict[str, float]:
    return {"affected": float(r.affected_vertices), "published": float(r.published)}


def _purged(b: Any, r: Any) -> Dict[str, float]:
    return {"purged": float(r["hot_rows_purged"])}


# (target, span name, info, scope)
TRACE_POINTS: List[Tuple[str, str, Optional[Info], Optional[Sequence[str]]]] = [
    ("repro.graph:PartitionHierarchy.__init__", "graph.hierarchy", None, None),
    ("repro.graph:Graph.subgraph", "graph.subgraph", None, None),
    ("repro.core.sampling:subgraph_level_samples", "sampling.subgraph_level", None, None),
    ("repro.core.sampling:landmark_samples", "sampling.landmark", None, None),
    ("repro.core.sampling:random_pair_samples", "sampling.random_pair", None, None),
    ("repro.core.sampling:validation_set", "sampling.validation", None, None),
    ("repro.core.sampling:error_based_samples", "sampling.error_based", None, None),
    ("repro.core.sampling:sssp_many", "labeling.sssp", _rows, ("repro.core.sampling",)),
    ("repro.parallel:PrefetchPipeline.get", "prefetch.get", None, None),
    ("repro.core.training:train_hierarchical", "training.sgd", _pair_epochs, None),
    ("repro.core.training:train_flat", "training.sgd", _pair_epochs, None),
    ("repro.core.finetune:active_finetune", "finetune", None, None),
    ("repro.reliability.checkpoint:run_with_recovery", "recovery", _retries, None),
    ("repro.core.index:EmbeddingTreeIndex.__init__", "index.build", None, None),
    ("repro.core.index:EmbeddingTreeIndex.prepare", "index.prepare", None, None),
    ("repro.core.index:EmbeddingTreeIndex.refresh_rows", "index.refresh", None, None),
    ("repro.live.update:update_rne", "live.retrain", _retrain, ("repro.live.update",)),
    ("repro.live:LiveUpdateManager.update", "live.update", None, None),
    ("repro.serving:BatchQueryEngine.set_version", "serving.set_version", _purged, None),
    ("repro.serving:BatchQueryEngine.distances", "serving.dist", None, None),
    ("repro.serving:BatchQueryEngine.knn", "serving.knn", None, None),
    ("repro.serving:BatchQueryEngine.range_query", "serving.range", None, None),
]

SAMPLERS = ("sampling.subgraph_level", "sampling.landmark", "sampling.random_pair",
            "sampling.validation", "sampling.error_based")


def install(tracer: Tracer) -> None:
    for target, name, info, scope in TRACE_POINTS:
        tracer.wrap(target, name, info=info, scope=scope)


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _get(mapping: Any, *keys: str) -> float:
    for key in keys:
        if not isinstance(mapping, dict) or key not in mapping:
            return 0.0
        mapping = mapping[key]
    return float(mapping)


def per_layer(result: Run, tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced run."""
    t = tracer
    spans = t.spans
    selfs = self_times(spans)
    client = result.client

    labeling = getattr(getattr(result.rne, "history", None), "labeling", {}) or {}
    sssp_rows = _get(labeling, "sssp_runs")
    cache_hits = _get(labeling, "cache_hits")
    sgd_s = t.total("training.sgd", "build")

    updates = [i for i, s in enumerate(spans) if s.name == "live.update"]
    publish = [
        spans[i].seconds - sum(s.seconds for s in spans if s.parent == i and s.name == "live.retrain")
        for i in updates
    ]
    retrains = t.select("live.retrain", "update")
    hot_rows = result.client.engine.snapshot().get("caches", {}).get("hot_rows", {})

    metrics: Dict[str, Tuple[float, str]] = {
        "graph.hierarchy_s": (t.total("graph.hierarchy", "build"), "s"),
        "graph.subgraph_calls": (float(len(t.select("graph.subgraph", "build"))), "count"),
        "graph.subgraph_s": (t.total("graph.subgraph", "build"), "s"),
        "labeling.sssp_runs": (t.info_sum("labeling.sssp", "rows", "build"), "count"),
        "labeling.sssp_s": (t.total("labeling.sssp", "build"), "s"),
        "labeling.pairs_per_sssp": (_get(labeling, "pairs_labelled") / max(1.0, sssp_rows), "pairs"),
        "labeling.cache_hit_rate": (cache_hits / max(1.0, cache_hits + sssp_rows), "ratio"),
        "labeling.cache_mb": (_get(labeling, "cache_entries") * result.inputs.graph.n * 8 / 1e6, "MB"),
        "sampling.self_s": (
            sum(selfs[i] for i, s in enumerate(spans) if s.name in SAMPLERS and s.phase == "build"), "s"),
        "prefetch.wait_s": (t.total("prefetch.get", "build"), "s"),
        "training.sgd_s": (sgd_s, "s"),
        "training.pair_epochs_per_s": (
            t.info_sum("training.sgd", "pair_epochs", "build") / sgd_s if sgd_s > 0 else 0.0, "1/s"),
        "finetune.s": (t.total("finetune", "build"), "s"),
        "finetune.self_s": (
            sum(selfs[i] for i, s in enumerate(spans) if s.name == "finetune" and s.phase == "build"), "s"),
        "recovery.retries": (t.info_sum("recovery", "retries"), "count"),
        "index.build_ms": (t.total("index.build", "build") * 1e3, "ms"),
        "index.prepare_ms": (t.total("index.prepare") * 1e3, "ms"),
        "serving.dist_busy_s": (t.total("serving.dist", "serve"), "s"),
        "serving.knn_busy_s": (t.total("serving.knn", "serve"), "s"),
        "serving.range_busy_s": (t.total("serving.range", "serve"), "s"),
        "serving.knn_p99_ms": (percentile(client.latencies["knn"], 99) * 1e3, "ms"),
        "serving.range_p99_ms": (percentile(client.latencies["range"], 99) * 1e3, "ms"),
        "serving.knn_batches": (float(len(client.latencies["knn"])), "count"),
        "serving.range_batches": (float(len(client.latencies["range"])), "count"),
        "serving.first_batch_after_update_ms": (_median(client.after_update) * 1e3, "ms"),
        "cache.hot_rows.hit_rate": (_get(hot_rows, "hit_rate"), "ratio"),
        "cache.hot_rows.evictions": (_get(hot_rows, "evictions"), "count"),
        "live.retrain_s": (sum(s.seconds for s in retrains), "s"),
        "live.sssp_runs": (t.info_sum("labeling.sssp", "rows", "update"), "count"),
        "live.affected_vertices": (_median([s.info.get("affected", 0.0) for s in retrains]), "count"),
        "live.published_frac": (
            float(np.mean([s.info.get("published", 0.0) for s in retrains])) if retrains else 0.0, "ratio"),
        "live.publish_ms": (_median(publish) * 1e3, "ms"),
        "live.hot_rows_purged": (t.info_sum("serving.set_version", "purged"), "count"),
        "index.refresh_ms": (_median([s.seconds for s in t.select("index.refresh")]) * 1e3, "ms"),
        "trace.build_s": (result.build_s, "s"),
        "trace.coverage": (coverage(spans, result.build_span) if result.build_span >= 0 else 0.0, "ratio"),
        "trace.mean_rel_err": (result.mean_rel_err, "ratio"),
        "trace.spans": (float(len(spans)), "count"),
        "trace.absent_layers": (float(len(t.absent)), "count"),
    }
    return metrics
