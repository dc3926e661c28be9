"""Tests for embedding diagnostics — the measurable Sec. IV claims."""

import numpy as np
import pytest

from repro.core import (
    DistanceLabeler,
    HierarchicalRNE,
    TrainConfig,
    collapse_fraction,
    landmark_samples,
    layout_correlation,
    level_contributions,
    level_schedule,
    norm_profile,
    random_pair_samples,
    subgraph_level_samples,
    train_hierarchical,
)
from repro.algorithms import select_landmarks
from repro.core.training import AdamState
from repro.graph import PartitionHierarchy


@pytest.fixture(scope="module")
def trained_hier(medium_grid):
    """A hierarchical model trained through phases 1+2."""
    labeler = DistanceLabeler(medium_grid)
    rng = np.random.default_rng(0)
    probe = random_pair_samples(medium_grid, 300, labeler, rng)[1]
    d = 16
    scale = float(np.mean(probe)) * np.sqrt(np.pi) / (2 * d)
    hierarchy = PartitionHierarchy(medium_grid, fanout=4, leaf_size=16, seed=0)
    hm = HierarchicalRNE(hierarchy, d, init_scale=scale, seed=0)
    adam = AdamState.for_model(hm)
    for focus in range(hierarchy.num_subgraph_levels):
        pairs, phi = subgraph_level_samples(hierarchy, focus, 4000, labeler, rng)
        train_hierarchical(
            hm, pairs, phi, level_schedule(focus, hm.num_levels),
            TrainConfig(epochs=3, lr=0.05), rng, adam=adam,
        )
    landmarks = select_landmarks(medium_grid, 24, seed=1)
    pairs, phi = landmark_samples(medium_grid, landmarks, 8000, labeler, rng)
    from repro.core import vertex_only_schedule

    train_hierarchical(
        hm, pairs, phi, vertex_only_schedule(hm.num_levels),
        TrainConfig(epochs=4, lr=0.05), rng, adam=adam,
    )
    return medium_grid, hm


class TestNormProfile:
    def test_norms_decay_down_levels(self, trained_hier):
        """Paper Sec. IV-A: higher-level norms dominate lower ones."""
        _, hm = trained_hier
        profile = norm_profile(hm)
        # Allow the chain-padded middle levels some slack; the endpoints
        # of the hierarchy must be ordered.
        assert profile.level_mean_norms[0] > profile.level_mean_norms[-1]

    def test_parameter_sharing(self, trained_hier):
        """Paper Sec. IV-A: sum of local norms < flat-equivalent norm."""
        _, hm = trained_hier
        profile = norm_profile(hm)
        assert profile.sharing_ratio < 1.0

    def test_profile_fields(self, trained_hier):
        _, hm = trained_hier
        profile = norm_profile(hm)
        assert len(profile.level_mean_norms) == hm.num_levels
        assert profile.total_parameter_norm > 0


class TestLevelContributions:
    def test_fractions_sum_to_one(self, trained_hier, rng):
        graph, hm = trained_hier
        pairs = rng.integers(graph.n, size=(100, 2))
        contribs = level_contributions(hm, pairs)
        assert contribs.shape == (hm.num_levels,)
        assert contribs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_coarse_dominates_cross_region_pairs(self, trained_hier):
        """Pairs in different top cells lean on the coarse levels."""
        graph, hm = trained_hier
        labels = hm.hierarchy.vertex_labels(0)
        cross, same = [], []
        rng = np.random.default_rng(2)
        while len(cross) < 50 or len(same) < 50:
            s, t = rng.integers(graph.n, size=2)
            if s == t:
                continue
            (cross if labels[s] != labels[t] else same).append((s, t))
        c_cross = level_contributions(hm, np.array(cross))
        c_same = level_contributions(hm, np.array(same))
        assert c_cross[0] > c_same[0]  # level-0 share higher across regions


class TestLayoutStats:
    def test_collapse_zero_for_spread_points(self, rng):
        matrix = rng.uniform(0, 100, size=(200, 2))
        assert collapse_fraction(matrix, threshold=0.001) <= 0.01

    def test_collapse_one_for_identical_points(self):
        matrix = np.ones((50, 3))
        assert collapse_fraction(matrix) == pytest.approx(0.0)  # no spread -> mean 0

    def test_collapse_detects_clumps(self, rng):
        spread = rng.uniform(0, 100, size=(100, 2))
        clumped = np.vstack([spread, np.zeros((100, 2))])
        assert collapse_fraction(clumped) > collapse_fraction(spread)

    def test_layout_correlation_high_for_trained(self, trained_hier):
        graph, hm = trained_hier
        corr = layout_correlation(hm.global_matrix(), graph.coords)
        assert corr > 0.8  # trained embedding preserves the city layout

    def test_layout_correlation_low_for_random(self, trained_hier, rng):
        graph, _ = trained_hier
        random_matrix = rng.normal(size=(graph.n, 8))
        corr = layout_correlation(random_matrix, graph.coords)
        assert abs(corr) < 0.4
