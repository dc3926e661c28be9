"""Serving throughput/latency benchmark — produces ``BENCH_serving.json``.

Measures, on a generated road network (>= 50k vertices at full scale):

* **pair distances** — ``BatchQueryEngine.distances`` on a ``(B, 2)``
  batch versus a per-pair ``RNEModel.query`` Python loop (the acceptance
  criterion is a >= 10x throughput ratio),
* **batched kNN / range** — the array-wide frontier versus the per-query
  ``EmbeddingTreeIndex`` walk, with bit-identity required on every source
  both cold (frontier) and warm (hot rows); a mismatch raises,
* **cache behaviour** — hot-row hit rate under a skewed repeated-source
  workload,

and records p50/p99 latency, queries/sec and cache hit rates from the
engine's own :class:`~repro.serving.stats.ServingStats` into a JSON file
(default ``benchmarks/results/BENCH_serving.json``) plus a text report.

The model is randomly initialised — serving throughput is a property of
the data layout, not of training quality — so the benchmark needs no
training time and stays deterministic.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.index import EmbeddingTreeIndex
from ..core.model import RNEModel
from ..graph import PartitionHierarchy
from ..graph.generators import grid_city
from ..serving import BatchQueryEngine
from .reporting import format_table

__all__ = ["serving_benchmark"]


def _best_seconds(fn: Any, *, repeats: int = 3) -> float:
    """Best-of-N wall time for one call (warm caches, minimal jitter)."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return float(best)


def _check_identical(
    name: str, engine: BatchQueryEngine, run: Any, reference: List[np.ndarray]
) -> None:
    """Require cold and warm batched answers to equal the per-query walk.

    Runs ``run(engine)`` three times on a fresh engine: every source
    misses on the first pass (frontier), is promoted to a hot row on the
    second (answered from its new full row) and hits the cache on the
    third.  Raises ``RuntimeError`` on any mismatch, or if the warm pass
    did not hit the cache.
    """
    for phase in ("cold", "promotion", "warm"):
        hits = engine.hot_rows.hits
        out = run(engine)
        if len(out) != len(reference) or not all(
            np.array_equal(a, b) for a, b in zip(out, reference)
        ):
            raise RuntimeError(
                f"batched {name} differs from the per-query walk on the "
                f"{phase} pass"
            )
    if engine.hot_rows.hits - hits != len(reference):
        raise RuntimeError(f"warm {name} pass did not answer from hot rows")


def _default_out_path() -> str:
    candidate = os.path.join("benchmarks", "results")
    directory = candidate if os.path.isdir(candidate) else "."
    return os.path.join(directory, "BENCH_serving.json")


def serving_benchmark(
    *,
    fast: bool = False,
    out_path: Optional[str] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """Run the serving benchmark; returns the results dict (incl. report)."""
    side = 24 if fast else 224  # full scale: 224^2 ~ 50k vertices
    num_pairs = 2_000 if fast else 20_000
    num_targets = 100 if fast else 1_000
    num_sources = 20 if fast else 200
    k = 10
    rng = np.random.default_rng(seed)

    graph = grid_city(side, side, seed=seed)
    model = RNEModel.random(graph.n, 32, seed=seed + 1)
    hierarchy = PartitionHierarchy(graph, fanout=4, leaf_size=32, seed=seed + 2)
    index = EmbeddingTreeIndex(hierarchy, model.matrix, model.p)
    engine = BatchQueryEngine(model=model, index=index, graph=graph)

    results: Dict[str, Any] = {
        "graph": {"vertices": graph.n, "edges": graph.m, "side": side},
        "fast": fast,
    }

    # -- pair-distance throughput: batch vs per-pair Python loop ---------
    pairs = rng.integers(0, graph.n, size=(num_pairs, 2)).astype(np.int64)
    loop_pairs = pairs[: min(num_pairs, 2_000)]

    def per_pair_loop() -> None:
        for s, t in loop_pairs:  # perf: loop-ok (the baseline under test)
            model.query(int(s), int(t))

    loop_seconds = _best_seconds(per_pair_loop)
    loop_qps = loop_pairs.shape[0] / loop_seconds
    batch_seconds = _best_seconds(lambda: engine.distances(pairs))
    batch_qps = pairs.shape[0] / batch_seconds
    results["distances"] = {
        "pairs": int(pairs.shape[0]),
        "loop_queries_per_second": loop_qps,
        "batch_queries_per_second": batch_qps,
        "speedup": batch_qps / loop_qps,
        "meets_10x": bool(batch_qps >= 10 * loop_qps),
    }

    # -- batched kNN / range vs the per-query index walk -----------------
    targets = np.sort(
        rng.choice(graph.n, size=min(num_targets, graph.n), replace=False)
    ).astype(np.int64)
    sources = rng.choice(graph.n, size=min(num_sources, graph.n), replace=False).astype(
        np.int64
    )
    prepared = engine.prepare(targets)
    sample = model.matrix[sources[: min(32, sources.size)]]
    tau = float(
        np.median(
            np.abs(sample[:, None, :] - model.matrix[targets][None, :, :]).sum(axis=-1)
        )
        * 0.25
    )

    def per_query_knn() -> List[np.ndarray]:
        # perf: loop-ok (the baseline under test)
        return [index.knn_prepared(int(s), prepared, k) for s in sources]

    def per_query_range() -> List[np.ndarray]:
        # perf: loop-ok (the baseline under test)
        return [index.range_prepared(int(s), prepared, tau) for s in sources]

    for name, run, per_query in (
        ("knn", lambda e: e.knn(sources, prepared, k), per_query_knn),
        ("range", lambda e: e.range_query(sources, prepared, tau), per_query_range),
    ):
        _check_identical(
            name, BatchQueryEngine(model=model, index=index), run, per_query()
        )
        b_seconds = _best_seconds(lambda: run(engine))
        q_seconds = _best_seconds(per_query)
        results[name] = {
            "sources": int(sources.size),
            "targets": int(prepared.m),
            "param": k if name == "knn" else tau,
            "batch_queries_per_second": sources.size / b_seconds,
            "per_query_queries_per_second": sources.size / q_seconds,
            "speedup": q_seconds / b_seconds,
            "bit_identical": True,
        }

    # -- cache behaviour under a skewed (hot-source) workload ------------
    hot = rng.choice(graph.n, size=min(32, graph.n), replace=False).astype(np.int64)
    for _ in range(4):  # perf: loop-ok (workload repetition)
        engine.knn(rng.choice(hot, size=min(200, 4 * hot.size)), prepared, k)
    results["hot_row_hit_rate"] = engine.hot_rows.hit_rate

    # -- latency/throughput observability --------------------------------
    snapshot = engine.snapshot()
    results["ops"] = snapshot["ops"]
    results["caches"] = snapshot["caches"]

    path = out_path if out_path is not None else _default_out_path()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    results["out_path"] = path

    dist = results["distances"]
    rows = [
        [
            "distances",
            f"{dist['batch_queries_per_second']:,.0f}",
            f"{dist['loop_queries_per_second']:,.0f}",
            f"{dist['speedup']:.1f}x",
            "yes" if dist["meets_10x"] else "NO",
        ]
    ]
    for name in ("knn", "range"):
        rec = results[name]
        rows.append(
            [
                name,
                f"{rec['batch_queries_per_second']:,.0f}",
                f"{rec['per_query_queries_per_second']:,.0f}",
                f"{rec['speedup']:.1f}x",
                "yes" if rec["bit_identical"] else "NO",
            ]
        )
    op_rows = [
        [name, f"{op['p50_us']:.1f}", f"{op['p99_us']:.1f}", f"{op['queries_per_second']:,.0f}"]
        for name, op in sorted(results["ops"].items())
    ]
    report = "\n\n".join(
        [
            format_table(
                ["op", "batch q/s", "baseline q/s", "speedup", "ok"],
                rows,
                title=(
                    f"Serving throughput — {graph.n} vertices "
                    f"(hot-row hit rate {results['hot_row_hit_rate']:.2f})"
                ),
            ),
            format_table(
                ["op", "p50 us", "p99 us", "q/s"],
                op_rows,
                title="Serving latency (engine histograms)",
            ),
            f"stats written to {path}",
        ]
    )
    results["report"] = report
    return results
