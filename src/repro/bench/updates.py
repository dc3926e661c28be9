"""Live-update benchmark — produces ``BENCH_updates.json``.

The claim under test: after an edge-weight change, the versioned live
update (:mod:`repro.live` — incremental retrain of the affected region +
atomic publish + subtree-local index refresh + cache invalidation) brings
the serving model up to date **much faster than rebuilding it** from
scratch on the new graph, at comparable accuracy.  At full scale the
graph has >= 50k vertices (224 x 224 grid), where a rebuild's ground-truth
labelling alone runs thousands of Dijkstra trees while the update labels
only pairs anchored in the small affected region.

Measured, with the *same* scaled-down training budget for both arms so
the ratio is the signal rather than budget asymmetry:

* **incremental** — wall time of one ``LiveUpdateManager.update`` call
  (retrain + publish + invalidate; ``swap_seconds`` reported separately to
  show serving-visible downtime is milliseconds),
* **rebuild** — wall time of ``build_rne`` on the updated graph,
* **accuracy** — mean relative error of both resulting models against
  exact distances on a shared held-out validation set of the new graph,
* **invalidation** — hot rows purged / SSSP trees dropped, and the
  refreshed-node count of the tree index versus its total node count.

Results land in ``benchmarks/results/BENCH_updates.json`` plus a text
report.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Optional

import numpy as np

from ..core.metrics import error_report
from ..core.pipeline import RNEConfig, build_rne
from ..core.sampling import DistanceLabeler, validation_set
from ..graph.generators import grid_city
from ..live import LiveUpdateManager, perturb_weights
from ..serving import BatchQueryEngine
from .reporting import format_table

__all__ = ["updates_benchmark"]


def _default_out_path() -> str:
    candidate = os.path.join("benchmarks", "results")
    directory = candidate if os.path.isdir(candidate) else "."
    return os.path.join(directory, "BENCH_updates.json")


def _build_config(fast: bool, seed: int) -> RNEConfig:
    """One scaled-down budget shared by the rebuild arm and the original
    model, so incremental-vs-rebuild compares like with like."""
    if fast:
        return RNEConfig(
            d=16,
            hier_samples_per_level=800,
            hier_epochs=2,
            vertex_samples=2_000,
            vertex_epochs=2,
            num_landmarks=8,
            joint_epochs=1,
            joint_samples=800,
            active=False,
            finetune_rounds=1,
            finetune_samples=500,
            validation_size=200,
            seed=seed,
        )
    return RNEConfig(
        d=16,
        hier_samples_per_level=1_500,
        hier_epochs=1,
        vertex_samples=3_000,
        vertex_epochs=1,
        num_landmarks=16,
        joint_epochs=1,
        joint_samples=1_000,
        active=False,
        finetune_rounds=1,
        finetune_samples=1_000,
        validation_size=200,
        seed=seed,
    )


def updates_benchmark(
    *,
    fast: bool = False,
    out_path: Optional[str] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """Run the live-update benchmark; returns the results dict (incl. report)."""
    side = 24 if fast else 224  # full scale: 224^2 ~ 50k vertices
    perturb_count = 8 if fast else 40
    update_samples = 1_000 if fast else 2_500
    update_rounds = 2
    validation_size = 200

    graph = grid_city(side, side, seed=seed)
    config = _build_config(fast, seed)

    build_start = time.perf_counter()
    rne = build_rne(graph, config)
    initial_build_seconds = time.perf_counter() - build_start

    engine = BatchQueryEngine.from_rne(rne)
    manager = LiveUpdateManager(rne, engines=(engine,))
    new_graph, changed = perturb_weights(
        graph, factor=3.0, count=perturb_count, seed=seed + 1
    )

    # Warm the hot-row cache so invalidation counts reflect real traffic.
    rng = np.random.default_rng(seed + 2)
    targets = np.sort(
        rng.choice(graph.n, size=min(200, graph.n), replace=False)
    ).astype(np.int64)
    prepared = engine.prepare(targets)
    warm_sources = rng.choice(graph.n, size=32, replace=False).astype(np.int64)
    for _ in range(3):  # perf: loop-ok (cache warm-up traffic)
        engine.knn(warm_sources, prepared, 5)

    # -- incremental arm -------------------------------------------------
    stats = manager.update(
        new_graph,
        changed,
        samples=update_samples,
        rounds=update_rounds,
        validation_size=validation_size,
        seed=seed + 3,
    )
    incremental_seconds = stats.total_seconds

    # -- rebuild arm ------------------------------------------------------
    rebuild_start = time.perf_counter()
    rebuilt = build_rne(new_graph, config)
    rebuild_seconds = time.perf_counter() - rebuild_start

    # -- accuracy on a shared held-out set of the *new* graph -------------
    with DistanceLabeler(new_graph) as labeler:
        val_pairs, val_phi = validation_set(
            new_graph, validation_size, labeler, seed=seed + 4
        )
    updated_err = error_report(rne.query_pairs(val_pairs), val_phi).mean_rel
    rebuilt_err = error_report(rebuilt.query_pairs(val_pairs), val_phi).mean_rel

    index = rne.index
    if index is None:  # hierarchy-backed by construction
        raise RuntimeError("build_rne returned a hierarchical model without an index")
    results: Dict[str, Any] = {
        "graph": {"vertices": graph.n, "edges": graph.m, "side": side},
        "fast": fast,
        "perturbed_edges": int(changed.shape[0]),
        "initial_build_seconds": initial_build_seconds,
        "incremental": {
            "total_seconds": incremental_seconds,
            "train_seconds": stats.train_seconds,
            "swap_seconds": stats.swap_seconds,
            "published": stats.published,
            "version_after": stats.version_after,
            "affected_vertices": stats.affected_vertices,
            "changed_rows": stats.changed_rows,
            "index_nodes_refreshed": stats.index_nodes_refreshed,
            "index_nodes_total": int(index.snapshot.radii.size),
            "engine_invalidations": stats.engine_invalidations,
            "mean_rel_error": updated_err,
        },
        "rebuild": {
            "total_seconds": rebuild_seconds,
            "mean_rel_error": rebuilt_err,
        },
        "speedup": rebuild_seconds / incremental_seconds,
        "incremental_faster": bool(incremental_seconds < rebuild_seconds),
    }

    path = out_path if out_path is not None else _default_out_path()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    results["out_path"] = path

    inc = results["incremental"]
    rows = [
        [
            "incremental",
            f"{incremental_seconds:.2f}",
            f"{inc['mean_rel_error'] * 100:.2f}%",
            f"{inc['swap_seconds'] * 1e3:.2f} ms",
            f"{inc['index_nodes_refreshed']}/{inc['index_nodes_total']}",
        ],
        [
            "rebuild",
            f"{rebuild_seconds:.2f}",
            f"{results['rebuild']['mean_rel_error'] * 100:.2f}%",
            "-",
            f"{inc['index_nodes_total']}/{inc['index_nodes_total']}",
        ],
    ]
    report = "\n\n".join(
        [
            format_table(
                ["arm", "seconds", "mean rel err", "serving swap", "index nodes"],
                rows,
                title=(
                    f"Live update vs rebuild — {graph.n} vertices, "
                    f"{results['perturbed_edges']} edges reweighted "
                    f"(speedup {results['speedup']:.1f}x, "
                    f"{'incremental faster' if results['incremental_faster'] else 'REBUILD FASTER'})"
                ),
            ),
            f"stats written to {path}",
        ]
    )
    results["report"] = report
    return results
