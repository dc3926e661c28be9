"""Tests for active fine-tuning."""

import numpy as np
import pytest

from repro.core import (
    DistanceLabeler,
    GridBuckets,
    HierarchicalRNE,
    RNEModel,
    TrainConfig,
    active_finetune,
    landmark_samples,
    train_hierarchical,
    validation_set,
    vertex_only_schedule,
)
from repro.algorithms import select_landmarks
from repro.graph import PartitionHierarchy


@pytest.fixture(scope="module")
def trained(medium_grid):
    """A partially trained hierarchical model plus shared eval artifacts."""
    labeler = DistanceLabeler(medium_grid)
    rng = np.random.default_rng(0)
    val_pairs, val_phi = validation_set(medium_grid, 600, labeler)
    hierarchy = PartitionHierarchy(medium_grid, fanout=4, leaf_size=16, seed=0)
    scale = float(np.mean(val_phi)) * np.sqrt(np.pi) / (2 * 16)
    hmodel = HierarchicalRNE(hierarchy, d=16, init_scale=scale, seed=0)
    landmarks = select_landmarks(medium_grid, 24, seed=0)
    pairs, phi = landmark_samples(medium_grid, landmarks, 8000, labeler, rng)
    train_hierarchical(
        hmodel, pairs, phi, np.ones(hmodel.num_levels),
        TrainConfig(epochs=4), rng,
    )
    buckets = GridBuckets(medium_grid, k=5, seed=0)
    return hmodel, buckets, labeler, val_pairs, val_phi


class TestActiveFinetune:
    def test_error_not_worse(self, trained):
        hmodel, buckets, labeler, val_pairs, val_phi = trained
        model = hmodel.clone()
        result = active_finetune(
            model, buckets, labeler, val_pairs, val_phi,
            rounds=3, samples_per_round=1500, seed=1,
        )
        # The keep-best rollback leaves the model no worse than the start.
        final = min(result.mean_rel_errors[-1], min(result.mean_rel_errors))
        assert final <= result.mean_rel_errors[0] + 1e-9

    def test_error_improves(self, trained):
        hmodel, buckets, labeler, val_pairs, val_phi = trained
        model = hmodel.clone()
        result = active_finetune(
            model, buckets, labeler, val_pairs, val_phi,
            rounds=4, samples_per_round=2000, seed=1,
        )
        assert min(result.mean_rel_errors) < result.mean_rel_errors[0]

    def test_trace_lengths(self, trained):
        hmodel, buckets, labeler, val_pairs, val_phi = trained
        result = active_finetune(
            hmodel.clone(), buckets, labeler, val_pairs, val_phi,
            rounds=2, samples_per_round=500, seed=1,
        )
        assert len(result.mean_rel_errors) == 3  # rounds + final measure
        assert len(result.bucket_errors) == 3
        assert result.rounds == 2

    def test_local_mode_runs(self, trained):
        hmodel, buckets, labeler, val_pairs, val_phi = trained
        result = active_finetune(
            hmodel.clone(), buckets, labeler, val_pairs, val_phi,
            rounds=2, samples_per_round=500, mode="local", seed=1,
        )
        assert result.rounds == 2

    def test_flat_model_supported(self, trained, medium_grid):
        _, buckets, labeler, val_pairs, val_phi = trained
        scale = float(np.mean(val_phi)) / 16
        flat = HierarchicalRNE.flat(
            RNEModel.random(medium_grid.n, 16, scale=scale, seed=0).matrix
        )
        result = active_finetune(
            flat, buckets, labeler, val_pairs, val_phi,
            rounds=3, samples_per_round=2000, seed=1,
        )
        assert min(result.mean_rel_errors) < result.mean_rel_errors[0]

    def test_coarse_levels_untouched(self, trained):
        hmodel, buckets, labeler, val_pairs, val_phi = trained
        model = hmodel.clone()
        frozen = [m.copy() for m in model.locals[:-1]]
        active_finetune(
            model, buckets, labeler, val_pairs, val_phi,
            rounds=2, samples_per_round=500, seed=1,
        )
        for before, after in zip(frozen, model.locals[:-1]):
            np.testing.assert_allclose(before, after)
