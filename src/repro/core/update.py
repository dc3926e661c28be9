"""Incremental model updates after edge-weight changes.

An extension beyond the paper (its framework supports it directly): road
networks change — congestion, closures, re-opened segments.  Rebuilding the
whole embedding for every change wastes the structure that did not move;
instead, :func:`update_rne` fine-tunes the *vertex level* on pairs sampled
around the changed edges, exactly the machinery of the paper's phase
②/③ restricted to the affected region.

The procedure:

1. collect the endpoint vertices of changed edges and their ``hops``-hop
   neighbourhoods (the region whose distances can have changed);
2. sample exactly ``samples`` (affected vertex, random vertex) pairs per
   round through the budgeted top-up sampler, labelled on the *new* graph;
3. run vertex-level training (coarse levels frozen — the global layout is
   unchanged by local weight edits) **on a private copy** of the model,
   with per-round divergence rollback and a keep-best policy;
4. publish the winning parameter block back into ``hmodel`` with a single
   reference assignment — atomic under the GIL, so a concurrent reader
   sees either the old or the new embedding, never a torn mix.  Its
   coarse rows were frozen, so only vertex rows differ.

Returns the updated model's validation trace plus the exact set of vertex
rows that changed, so the serving layer (see :mod:`repro.live`) can refresh
derived state — tree-index radii, hot-row caches — incrementally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from ..graph import Graph
from ..reliability.checkpoint import (
    abort_on_nonfinite,
    rollback_pair,
    run_with_recovery,
)
from .hierarchical import HierarchicalRNE
from .metrics import error_report
from .sampling import DistanceLabeler, _budgeted_samples, stage_rng, validation_set
from .training import (
    AdamState,
    TrainConfig,
    TrainResult,
    train_hierarchical,
    vertex_only_schedule,
)


@dataclass
class UpdateResult:
    """Validation trace and change set of an incremental update."""

    affected_vertices: int = 0
    error_before: float = 0.0
    error_after: float = 0.0
    round_errors: list[float] = field(default_factory=list)
    #: Rounds that actually trained (a starved sampler ends early).
    rounds_run: int = 0
    #: Valid labelled pairs delivered per round (== ``samples`` unless the
    #: region structurally cannot supply them).
    samples_per_round: list[int] = field(default_factory=list)
    #: Whether the keep-best policy published a new vertex level.
    published: bool = False
    #: Vertex ids whose global embedding changed (empty when unpublished).
    changed_rows: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    train_seconds: float = 0.0
    #: Labeler counters (SSSP runs, cache hits, worker mode).
    labeling: dict[str, Any] = field(default_factory=dict)
    #: Divergence-recovery notes from the per-round training stages.
    notes: list[str] = field(default_factory=list)


def affected_region(
    graph: Graph, changed_edges: np.ndarray, *, hops: int = 2
) -> np.ndarray:
    """Vertices within ``hops`` of any changed edge's endpoints.

    Vectorised CSR frontier expansion: each hop gathers the concatenated
    neighbour lists of the whole frontier with one fancy-indexed read of
    the adjacency arrays — no per-vertex Python loop on what is the hot
    path of every live update.
    """
    changed_edges = np.asarray(changed_edges, dtype=np.int64).reshape(-1, 2)
    seen = np.zeros(graph.n, dtype=bool)
    frontier = np.unique(changed_edges.ravel())
    seen[frontier] = True
    indptr, indices, _ = graph.csr_arrays()
    for _ in range(hops):  # perf: loop-ok (one vectorised pass per hop)
        if frontier.size == 0:
            break
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        out_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        gather = (
            np.arange(total, dtype=np.int64)
            - np.repeat(out_starts, counts)
            + np.repeat(starts, counts)
        )
        neigh = indices[gather]
        frontier = np.unique(neigh[~seen[neigh]])
        seen[frontier] = True
    return np.nonzero(seen)[0]


def update_rne(
    hmodel: HierarchicalRNE,
    new_graph: Graph,
    changed_edges: np.ndarray,
    *,
    hops: int = 2,
    samples: int = 8000,
    rounds: int = 3,
    config: TrainConfig | None = None,
    validation_size: int = 1000,
    seed: int | np.random.Generator | None = 0,
    labeler: DistanceLabeler | None = None,
) -> UpdateResult:
    """Fine-tune ``hmodel``'s vertex level against ``new_graph``.

    ``new_graph`` must have the same vertex set as the trained graph (the
    usual traffic-update setting: weights change, topology does not —
    closures are modelled as very large weights).

    Training happens on a private clone; ``hmodel`` is untouched until the
    final publish, which swaps in the best-scoring block with one
    reference assignment (atomic under the GIL).  The keep-best policy
    guarantees ``error_after <= error_before`` on the validation set.

    ``seed`` drives both the per-round sample draws and — via a stage
    stream (:func:`~repro.core.sampling.stage_rng`) — the validation set,
    so two updates with the same seed are bit-identical and different
    seeds validate on different pairs.  ``labeler`` injects a pre-warmed
    labeler for ``new_graph`` instead of a fresh one.
    """
    if new_graph.n != hmodel.n:
        raise ValueError(
            f"new graph has {new_graph.n} vertices, model expects {hmodel.n}"
        )
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.default_rng(seed)
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        # PR 1 seed-threading rule: derived streams come from the caller's
        # seed, never from a constant (the old hard-coded 4242 stream made
        # every caller validate on the same pairs regardless of seed).
        val_rng = stage_rng(int(seed), "update_validation")
    else:
        val_rng = np.random.default_rng(int(rng.integers(np.iinfo(np.int64).max)))

    if labeler is None:
        labeler = DistanceLabeler(new_graph)

    train_start = time.perf_counter()
    result = UpdateResult()
    try:
        region = affected_region(new_graph, changed_edges, hops=hops)
        val_pairs, val_phi = validation_set(
            new_graph, validation_size, labeler, seed=val_rng
        )
        result.affected_vertices = int(region.size)
        result.error_before = error_report(
            hmodel.query_pairs(val_pairs), val_phi
        ).mean_rel

        if region.size == 0:
            # Nothing changed — no region to train on, nothing to publish.
            result.error_after = result.error_before
            return result

        train_config = config if config is not None else TrainConfig(epochs=2, lr=0.01)
        scratch = hmodel.clone()
        adam = (
            AdamState.for_model(scratch)
            if train_config.optimizer == "adam"
            else None
        )
        schedule = vertex_only_schedule(scratch.num_levels)

        def draw(k: int) -> np.ndarray:
            s = region[rng.integers(region.size, size=k)]
            t = rng.integers(new_graph.n, size=k).astype(np.int64)
            return np.column_stack([s, t])

        snapshot, restore = rollback_pair(scratch.block, adam, rng)

        best_err = result.error_before
        best_block: np.ndarray | None = None
        for round_no in range(rounds):
            # Budgeted top-up draw: self-pairs and unreachable pairs cost a
            # re-draw, not a silent shrink of the round's training set.
            pairs, phi = _budgeted_samples(samples, draw, labeler)
            result.samples_per_round.append(int(pairs.shape[0]))
            if pairs.shape[0] == 0:
                break
            stage = f"update_round_{round_no}"

            def attempt(
                lr_scale: float,
                _pairs: np.ndarray = pairs,
                _phi: np.ndarray = phi,
                _stage: str = stage,
            ) -> TrainResult:
                return train_hierarchical(
                    scratch,
                    _pairs,
                    _phi,
                    schedule,
                    replace(train_config, lr=train_config.lr * lr_scale),
                    rng,
                    adam=adam,
                    on_epoch=abort_on_nonfinite(_stage),
                )

            outcome = run_with_recovery(attempt, snapshot, restore, stage=stage)
            result.notes.extend(outcome.notes)
            err = error_report(scratch.query_pairs(val_pairs), val_phi).mean_rel
            result.round_errors.append(err)
            result.rounds_run += 1
            if err < best_err:
                best_err = err
                best_block = scratch.block.copy()

        if best_block is not None:
            row_changed = np.any(best_block != hmodel.block, axis=1)
            if row_changed.any():
                # Atomic publish: one reference assignment under the GIL —
                # readers see the old or the new block, never a mix.
                hmodel.block = best_block
                result.published = True
                result.changed_rows = np.nonzero(
                    row_changed[hmodel.block_rows[:, -1]]
                )[0]
        result.error_after = error_report(
            hmodel.query_pairs(val_pairs), val_phi
        ).mean_rel
        return result
    finally:
        result.labeling = labeler.snapshot()
        result.train_seconds = time.perf_counter() - train_start


UpdateHook = Callable[[UpdateResult], None]
