"""Tests for the SGD/Adam embedding trainers."""

import numpy as np
import pytest

from repro.core import (
    DistanceLabeler,
    HierarchicalRNE,
    RNEModel,
    TrainConfig,
    TrainResult,
    level_schedule,
    random_pair_samples,
    train_flat,
    train_hierarchical,
    vertex_only_schedule,
)
from repro.core import training
from repro.core.training import _Adam, _scatter_levels, new_adam_states
from repro.graph import PartitionHierarchy


def _reference_scatter(ls, lt, grad):
    """Reference scatter: ``searchsorted`` positions and two ``np.add.at``."""
    rows = np.unique(np.concatenate([ls, lt]))
    full = np.zeros((rows.size, grad.shape[1]), dtype=np.float64)
    np.add.at(full, np.searchsorted(rows, ls), grad)
    np.add.at(full, np.searchsorted(rows, lt), -grad)
    return rows, full


def _reference_scatter_levels(rows_s, rows_t, grad, offsets):
    """Reference multi-level scatter: one ``_reference_scatter`` per level."""
    return [
        _reference_scatter(rows_s[:, l], rows_t[:, l], grad)
        for l in range(rows_s.shape[1])
    ]


def _reference_step_rows(self, rows, grad_rows, lr):
    """Reference lazy-Adam step: reads each moment twice."""
    self.t += 1
    self.m[rows] = self.beta1 * self.m[rows] + (1 - self.beta1) * grad_rows
    self.v[rows] = self.beta2 * self.v[rows] + (1 - self.beta2) * np.square(grad_rows)
    m_hat = self.m[rows] / (1 - self.beta1**self.t)
    v_hat = self.v[rows] / (1 - self.beta2**self.t)
    return -lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def _assert_identical(a, b):
    """Equal values *and* equal bytes (so -0.0 never passes for 0.0)."""
    assert np.array_equal(a, b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_same_adam(a, b):
    _assert_identical(a.m, b.m)
    _assert_identical(a.v, b.v)
    assert a.t == b.t


def _kernel_config(optimizer):
    # SGD needs lr ~ 1/(2d) (docs/TRAINING.md §3).
    return TrainConfig(epochs=2, optimizer=optimizer, lr=0.02 if optimizer == "adam" else 0.002)


def _scatter_case(name, levels):
    """Per-level ``(k, levels)`` rows, their gradients and level offsets.

    Level ``l`` draws rows below ``ranges[l]`` from a table twice that
    size, so the top row is free for the row reached only by ``-0.0``.
    """
    rng = np.random.default_rng(3)
    k, d = 300, 8
    ranges = np.array([50, 3, 12, 1, 200][:levels])
    ls = np.stack([rng.integers(0, r, k) for r in ranges], axis=1)
    lt = np.stack([rng.integers(0, r, k) for r in ranges], axis=1)
    if name == "s_equals_t":
        lt = ls.copy()
    elif name == "one_row":
        ls = np.zeros((k, levels), dtype=np.int64) + ranges - 1
        lt = ls.copy()
    elif name == "batch_of_one":
        ls, lt = ls[:1], lt[:1]
    elif name == "d_one":
        d = 1
    grad = rng.standard_normal((ls.shape[0], d))
    if name == "negative_zero":
        grad[rng.random(grad.shape) < 0.3] = -0.0
        grad[0] = -0.0
        ls[0] = 2 * ranges - 1  # a row per level reached only by -0.0
    offsets = np.concatenate([[0], np.cumsum(2 * ranges)])
    return ls, lt, grad, offsets


@pytest.fixture(scope="module")
def labelled(medium_grid):
    labeler = DistanceLabeler(medium_grid)
    rng = np.random.default_rng(0)
    pairs, phi = random_pair_samples(medium_grid, 6000, labeler, rng)
    return pairs, phi


class TestConfig:
    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"lr": 0.0},
            {"optimizer": "sgd2"},
            {"lr": float("nan")},
            {"lr": float("inf")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestStepKernel:
    @pytest.mark.parametrize(
        "case",
        ["random", "s_equals_t", "one_row", "batch_of_one", "d_one", "negative_zero"],
    )
    def test_scatter_matches_reference(self, case):
        for levels in (1, 2, 5):
            ls, lt, grad, offsets = _scatter_case(case, levels)
            scattered = _scatter_levels(ls, lt, grad, offsets)
            assert len(scattered) == levels
            for l, (rows, full) in enumerate(scattered):
                ref_rows, ref_full = _reference_scatter(ls[:, l], lt[:, l], grad)
                _assert_identical(rows, ref_rows)
                _assert_identical(full, ref_full)

    def test_adam_step_matches_reference(self):
        rng = np.random.default_rng(5)
        fused, reference = _Adam((40, 6)), _Adam((40, 6))
        for _ in range(5):
            rows = np.unique(rng.integers(0, 40, 25))
            grad_rows = rng.standard_normal((rows.size, 6))
            grad_rows[0, 0] = -0.0
            _assert_identical(
                fused.step_rows(rows, grad_rows, 0.1),
                _reference_step_rows(reference, rows, grad_rows, 0.1),
            )
            _assert_same_adam(fused, reference)

    @staticmethod
    def _patch_reference(monkeypatch):
        monkeypatch.setattr(training, "_scatter_levels", _reference_scatter_levels)
        monkeypatch.setattr(training._Adam, "step_rows", _reference_step_rows)

    @staticmethod
    def _record_adam(monkeypatch):
        created = []

        class Recording(training._Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(training, "_Adam", Recording)
        return created

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_train_flat_matches_reference(self, medium_grid, labelled, optimizer):
        pairs, phi = labelled
        config = _kernel_config(optimizer)
        models, states = [], []
        for use_reference in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                if use_reference:
                    self._patch_reference(mp)
                created = self._record_adam(mp)
                model = RNEModel.random(medium_grid.n, 8, seed=1)
                train_flat(model, pairs[:3000], phi[:3000], config, rng=7)
            models.append(model.matrix)
            states.append(created)
        _assert_identical(models[0], models[1])
        assert len(states[0]) == len(states[1]) == (1 if optimizer == "adam" else 0)
        for fused, reference in zip(*states):
            _assert_same_adam(fused, reference)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_train_hierarchical_matches_reference(
        self, medium_grid, labelled, optimizer
    ):
        pairs, phi = labelled
        hierarchy = PartitionHierarchy(medium_grid, fanout=4, leaf_size=16, seed=0)
        config = _kernel_config(optimizer)
        num_levels = hierarchy.num_levels
        initial = HierarchicalRNE(hierarchy, d=8, init_scale=1.0, seed=0).locals
        focused = level_schedule(1, num_levels)
        focused[0] = 0.0
        middle_zero = np.ones(num_levels)
        middle_zero[1] = 0.0
        schedules = {
            "focused": focused,
            "middle_zero": middle_zero,
            "vertex_only": vertex_only_schedule(num_levels),
            "all_zero": np.zeros(num_levels),
        }
        for name, lrs in schedules.items():
            runs = []
            for use_reference in (False, True):
                with pytest.MonkeyPatch.context() as mp:
                    if use_reference:
                        self._patch_reference(mp)
                    hmodel = HierarchicalRNE(hierarchy, d=8, init_scale=1.0, seed=0)
                    states = new_adam_states(hmodel)
                    train_hierarchical(
                        hmodel, pairs[:3000], phi[:3000], lrs, config, rng=7,
                        adam_states=states,
                    )
                runs.append((hmodel.locals, states))
            (locals_a, states_a), (locals_b, states_b) = runs
            for a, b in zip(locals_a, locals_b):
                _assert_identical(a, b)
            for fused, reference in zip(states_a, states_b):
                _assert_same_adam(fused, reference)
            if name == "all_zero":
                for matrix, before, state in zip(locals_a, initial, states_a):
                    _assert_identical(matrix, before)
                    _assert_identical(state.m, np.zeros_like(before))
                    _assert_identical(state.v, np.zeros_like(before))
                    assert state.t == 0


class TestSchedules:
    def test_level_schedule_peaks_at_focus(self):
        lrs = level_schedule(1, 4)
        assert lrs[1] == max(lrs)
        np.testing.assert_allclose(lrs, [0.5, 1.0, 0.5, 1 / 3])

    def test_vertex_only(self):
        lrs = vertex_only_schedule(4)
        np.testing.assert_allclose(lrs, [0, 0, 0, 1.0])

    def test_alpha0_scales(self):
        np.testing.assert_allclose(
            level_schedule(0, 3, alpha0=2.0), [2.0, 1.0, 2 / 3]
        )


class TestTrainFlat:
    def test_loss_decreases(self, medium_grid, labelled):
        pairs, phi = labelled
        model = RNEModel.random(
            medium_grid.n, 16, scale=float(np.mean(phi)) / 16, seed=0
        )
        result = train_flat(model, pairs, phi, TrainConfig(epochs=6), rng=0)
        assert result.mse[-1] < result.mse[0]
        assert result.mean_rel_error[-1] < result.mean_rel_error[0]

    def test_sgd_also_improves(self, medium_grid, labelled):
        pairs, phi = labelled
        model = RNEModel.random(
            medium_grid.n, 16, scale=float(np.mean(phi)) / 16, seed=0
        )
        # SGD gradient magnitude ~ residual * d, so lr must be ~1/(2d).
        config = TrainConfig(epochs=6, optimizer="sgd", lr=0.002)
        result = train_flat(model, pairs, phi, config, rng=0)
        assert result.mean_rel_error[-1] < result.mean_rel_error[0]

    def test_empty_samples_noop(self, medium_grid):
        model = RNEModel.random(medium_grid.n, 4, seed=0)
        before = model.matrix.copy()
        result = train_flat(
            model, np.empty((0, 2), dtype=int), np.empty(0), TrainConfig(), rng=0
        )
        assert result.mse == []
        np.testing.assert_allclose(model.matrix, before)

    def test_mismatched_lengths(self, medium_grid):
        model = RNEModel.random(medium_grid.n, 4, seed=0)
        with pytest.raises(ValueError):
            train_flat(model, np.zeros((3, 2), dtype=int), np.zeros(2), TrainConfig())

    def test_deterministic(self, medium_grid, labelled):
        pairs, phi = labelled
        runs = []
        for _ in range(2):
            model = RNEModel.random(medium_grid.n, 8, seed=1)
            train_flat(model, pairs, phi, TrainConfig(epochs=2), rng=7)
            runs.append(model.matrix.copy())
        _assert_identical(runs[0], runs[1])

    def test_result_extend(self):
        a = TrainResult(mse=[1.0], mean_rel_error=[0.5])
        b = TrainResult(mse=[0.5], mean_rel_error=[0.2])
        a.extend(b)
        assert a.mse == [1.0, 0.5]


class TestTrainHierarchical:
    @pytest.fixture()
    def hmodel(self, medium_grid, labelled):
        hierarchy = PartitionHierarchy(medium_grid, fanout=4, leaf_size=16, seed=0)
        _, phi = labelled
        scale = float(np.mean(phi)) * np.sqrt(np.pi) / (2 * 16)
        return HierarchicalRNE(hierarchy, d=16, init_scale=scale, seed=0)

    def test_loss_decreases(self, hmodel, labelled):
        pairs, phi = labelled
        lrs = np.ones(hmodel.num_levels)
        result = train_hierarchical(
            hmodel, pairs, phi, lrs, TrainConfig(epochs=6), rng=0
        )
        assert result.mean_rel_error[-1] < result.mean_rel_error[0]

    def test_frozen_levels_do_not_move(self, hmodel, labelled):
        pairs, phi = labelled
        frozen = [m.copy() for m in hmodel.locals[:-1]]
        result = train_hierarchical(
            hmodel, pairs, phi, vertex_only_schedule(hmodel.num_levels),
            TrainConfig(epochs=1), rng=0,
        )
        del result
        for before, after in zip(frozen, hmodel.locals[:-1]):
            np.testing.assert_allclose(before, after)
        # vertex level must have moved
        assert not np.allclose(hmodel.locals[-1], 0)

    def test_bad_schedule_shape(self, hmodel, labelled):
        pairs, phi = labelled
        with pytest.raises(ValueError):
            train_hierarchical(hmodel, pairs, phi, [1.0], TrainConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_invalid_level_lr_rejected(self, hmodel, labelled, bad):
        pairs, phi = labelled
        lrs = np.ones(hmodel.num_levels)
        lrs[1] = bad
        before = [m.copy() for m in hmodel.locals]
        with pytest.raises(ValueError, match="level_lrs"):
            train_hierarchical(hmodel, pairs, phi, lrs, TrainConfig(epochs=1), rng=0)
        for a, b in zip(before, hmodel.locals):
            _assert_identical(a, b)

    def test_adam_states_threading(self, hmodel, labelled):
        pairs, phi = labelled
        states = new_adam_states(hmodel)
        lrs = np.ones(hmodel.num_levels)
        train_hierarchical(
            hmodel, pairs[:2000], phi[:2000], lrs, TrainConfig(epochs=1),
            rng=0, adam_states=states,
        )
        assert states[-1].t > 0

    def test_hier_beats_flat_at_equal_budget(self, medium_grid, labelled):
        """The paper's core Fig. 11 claim at miniature scale."""
        pairs, phi = labelled
        d = 16
        scale = float(np.mean(phi)) * np.sqrt(np.pi) / (2 * d)

        flat = RNEModel.random(medium_grid.n, d, scale=scale, seed=2)
        train_flat(flat, pairs, phi, TrainConfig(epochs=5), rng=0)

        hierarchy = PartitionHierarchy(medium_grid, fanout=4, leaf_size=16, seed=0)
        hier = HierarchicalRNE(hierarchy, d=d, init_scale=scale, seed=2)
        train_hierarchical(
            hier, pairs, phi, np.ones(hier.num_levels),
            TrainConfig(epochs=5), rng=0,
        )

        labeler = DistanceLabeler(medium_grid)
        val_pairs, val_phi = random_pair_samples(
            medium_grid, 1500, labeler, np.random.default_rng(99)
        )
        flat_err = np.mean(
            np.abs(flat.query_pairs(val_pairs) - val_phi) / val_phi
        )
        hier_err = np.mean(
            np.abs(hier.query_pairs(val_pairs) - val_phi) / val_phi
        )
        assert hier_err < flat_err
