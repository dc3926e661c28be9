"""Additional trainer tests: optimiser internals and schedules."""

import numpy as np
import pytest

from repro.core import (
    DistanceLabeler,
    HierarchicalRNE,
    TrainConfig,
    level_schedule,
    random_pair_samples,
    train_hierarchical,
)
from repro.core.model import lp_distance, lp_gradient
from repro.core.training import AdamState, _adam_lr_scale
from repro.graph import PartitionHierarchy


def _step(adam, rows, grad, lr):
    """One step of a one-level state at rate ``lr``."""
    return adam.step_rows(rows, grad, np.array([lr]), np.array([0, rows.size]))


class TestAdamLrScale:
    def test_scale_tracks_residual(self):
        phi = np.full(100, 1000.0)
        pred = phi + 100.0  # 10% residual
        assert _adam_lr_scale(pred, phi) == pytest.approx(100.0)

    def test_floor_at_one_percent(self):
        phi = np.full(100, 1000.0)
        pred = phi + 0.001
        assert _adam_lr_scale(pred, phi) == pytest.approx(10.0)

    def test_ceiling_at_mean_label(self):
        phi = np.full(100, 1000.0)
        pred = phi * 50  # diverged model
        assert _adam_lr_scale(pred, phi) == pytest.approx(1000.0)

    def test_empty_inputs(self):
        assert _adam_lr_scale(np.empty(0), np.empty(0)) > 0


class TestLazyAdam:
    def test_untouched_rows_never_move(self):
        adam = AdamState((10, 4))
        params = np.ones((10, 4))
        rows = np.array([0, 3])
        grad = np.ones((2, 4))
        for _ in range(20):
            params[rows] += _step(adam, rows, grad, 0.1)
        untouched = np.delete(params, rows, axis=0)
        np.testing.assert_allclose(untouched, 1.0)

    def test_step_magnitude_bounded_by_lr(self):
        adam = AdamState((4, 3))
        rows = np.arange(4)
        grad = np.full((4, 3), 1000.0)
        update = _step(adam, rows, grad, 0.05)
        # Bias-corrected first step is exactly -lr * sign(grad).
        np.testing.assert_allclose(np.abs(update), 0.05, rtol=1e-5)

    def test_descends_gradient(self):
        adam = AdamState((2, 2))
        rows = np.array([0, 1])
        update = _step(adam, rows, np.array([[1.0, -1.0], [2.0, -0.5]]), 0.1)
        assert (update[:, 0] < 0).all()
        assert (update[:, 1] > 0).all()


class TestSchedules:
    @pytest.mark.parametrize("focus", [0, 2, 4])
    def test_decays_away_from_focus(self, focus):
        lrs = level_schedule(focus, 5)
        for l in range(5):
            assert lrs[l] == pytest.approx(1.0 / (abs(l - focus) + 1))

    def test_all_positive(self):
        assert (level_schedule(1, 6) > 0).all()


class TestFractionalP:
    def test_gradient_finite_at_half(self):
        g = lp_gradient(np.array([0.5, -2.0, 0.0]), 0.5)
        assert np.isfinite(g).all()

    def test_distance_positive(self):
        assert lp_distance(np.array([1.0, 4.0]), 0.5) > 0

    def test_training_with_p_half_does_not_blow_up(self, medium_grid):
        labeler = DistanceLabeler(medium_grid)
        rng = np.random.default_rng(0)
        pairs, phi = random_pair_samples(medium_grid, 2000, labeler, rng)
        hierarchy = PartitionHierarchy(medium_grid, fanout=4, leaf_size=16, seed=0)
        hm = HierarchicalRNE(
            hierarchy, 8, p=0.5,
            init_scale=float(np.mean(phi)) * np.sqrt(np.pi) / 16, seed=0,
        )
        result = train_hierarchical(
            hm, pairs, phi, np.ones(hm.num_levels), TrainConfig(epochs=2), rng
        )
        assert np.isfinite(result.mse).all()
        assert np.isfinite(hm.global_matrix()).all()
