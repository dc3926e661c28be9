"""Active fine-tuning (Sec. V-C of the paper).

After the hierarchy and vertex phases converge, errors are not uniform over
distance: randomly chosen pairs concentrate in a narrow distance band, so
other bands stay under-fitted (Fig. 8).  Active fine-tuning iterates:

1. measure per-bucket validation error (buckets = grid-pair distance
   intervals from :class:`~repro.core.sampling.GridBuckets`),
2. draw new training pairs from the worst buckets (``local``) or from every
   bucket proportionally to its error (``global``),
3. train on them — only the vertex level for the hierarchical model, the
   whole table for the flat one (a one-level hierarchy),

which flattens the error-versus-distance profile and lowers both the mean
and the variance of ``e_rel``.  It is the last stage of
:func:`~repro.core.pipeline.build_rne` for both the RNE-Hier and the
RNE-Naive arm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..devtools.contracts import shapes
from .hierarchical import HierarchicalRNE
from .metrics import bucketed_errors
from .sampling import DistanceLabeler, GridBuckets, error_based_samples
from .training import (
    AdamState,
    TrainConfig,
    train_hierarchical,
    vertex_only_schedule,
)


@dataclass
class FinetuneResult:
    """Validation trace of the fine-tuning loop (one entry per round plus a
    final post-training measurement)."""

    mean_rel_errors: list[float] = field(default_factory=list)
    bucket_errors: list[np.ndarray] = field(default_factory=list)
    #: Labelling cost attributable to this loop (labeler-counter deltas).
    sssp_runs: int = 0
    pairs_labelled: int = 0

    @property
    def rounds(self) -> int:
        return max(len(self.mean_rel_errors) - 1, 0)


@shapes(val_pairs="(k,2):int", val_phi="(k,):float:finite")
def active_finetune(
    hmodel: HierarchicalRNE,
    buckets: GridBuckets,
    labeler: DistanceLabeler,
    val_pairs: np.ndarray,
    val_phi: np.ndarray,
    *,
    rounds: int = 4,
    samples_per_round: int = 4000,
    mode: str = "global",
    config: TrainConfig | None = None,
    seed: int | np.random.Generator | None = 0,
) -> FinetuneResult:
    """Run the error-driven fine-tuning loop in place.

    Each round re-measures the bucketed validation error of the current
    model, draws ``samples_per_round`` pairs targeted at high-error buckets
    and trains on them.  A one-level model without a hierarchy (the flat
    table, :meth:`HierarchicalRNE.flat`) restarts Adam every round; a
    hierarchical one keeps one optimiser across rounds, of which only the
    vertex level steps.  At the end the model is rolled back to the
    best-validation round when the last one is worse (fine-tuning on a
    narrow distribution can overshoot).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if config is None:
        config = TrainConfig(epochs=2, batch_size=1024, lr=0.01)
    adam = (
        AdamState.for_model(hmodel)
        if hmodel.hierarchy is not None and config.optimizer == "adam"
        else None
    )
    schedule = vertex_only_schedule(hmodel.num_levels)
    val_bucket_ids = buckets.bucket_of_pairs(val_pairs)
    result = FinetuneResult()
    runs_before = labeler.sssp_runs
    pairs_before = labeler.pairs_labelled

    best_err = np.inf
    best_snapshot: np.ndarray | None = None

    def measure() -> tuple[float, np.ndarray]:
        pred = hmodel.query_pairs(val_pairs)
        rel, _, _ = bucketed_errors(pred, val_phi, val_bucket_ids, buckets.num_buckets)
        mean_rel = float(np.mean(np.abs(pred - val_phi) / np.maximum(val_phi, 1e-12)))
        return mean_rel, rel

    for _ in range(rounds):
        mean_rel, rel = measure()
        result.mean_rel_errors.append(mean_rel)
        result.bucket_errors.append(rel)
        if mean_rel < best_err:
            best_err = mean_rel
            best_snapshot = hmodel.block.copy()

        pairs, phi = error_based_samples(
            buckets, rel, samples_per_round, labeler, rng, mode=mode
        )
        if pairs.shape[0] == 0:
            break
        train_hierarchical(
            hmodel, pairs, phi, schedule, config, rng, adam=adam
        )

    mean_rel, rel = measure()
    result.mean_rel_errors.append(mean_rel)
    result.bucket_errors.append(rel)
    if best_snapshot is not None and mean_rel > best_err:
        # Only the vertex level trained, so the coarse rows restore unchanged.
        hmodel.block[...] = best_snapshot
    result.sssp_runs = labeler.sssp_runs - runs_before
    result.pairs_labelled = labeler.pairs_labelled - pairs_before
    return result
