"""Tests for the SGD/Adam embedding trainers."""

import itertools

import numpy as np
import pytest

from repro.core import (
    DistanceLabeler,
    HierarchicalRNE,
    RNEModel,
    TrainConfig,
    TrainResult,
    level_schedule,
    lp_distance,
    random_pair_samples,
    train_flat,
    train_hierarchical,
    vertex_only_schedule,
)
from repro.core import training
from repro.core.training import AdamState, _scatter_levels
from repro.graph import PartitionHierarchy


#: The step kernel runs in the block's dtype: float32 for every model
#: ``HierarchicalRNE`` draws, float64 for ``train_flat`` on an ``RNEModel``.
DTYPES = [np.float64, np.float32]

#: ``(optimizer, dtype)`` cases; the float64 cases keep their plain ids.
KERNEL_CASES = pytest.mark.parametrize(
    "optimizer,dtype",
    [("adam", np.float64), ("sgd", np.float64), ("adam", np.float32), ("sgd", np.float32)],
    ids=["adam", "sgd", "adam-float32", "sgd-float32"],
)


def _reference_scatter(ls, lt, grad):
    """Reference scatter: ``searchsorted`` positions and two ``np.add.at``."""
    rows = np.unique(np.concatenate([ls, lt]))
    full = np.zeros((rows.size, grad.shape[1]), dtype=grad.dtype)
    np.add.at(full, np.searchsorted(rows, ls), grad)
    np.add.at(full, np.searchsorted(rows, lt), -grad)
    return rows, full


class _ReferenceAdam:
    """Reference lazy Adam: one state per level matrix, one scalar step count."""

    def __init__(self, shape, beta1=0.9, beta2=0.999, dtype=np.float64):
        self.m = np.zeros(shape, dtype=dtype)
        self.v = np.zeros(shape, dtype=dtype)
        self.beta1 = beta1
        self.beta2 = beta2
        self.t = 0

    def step_rows(self, rows, grad_rows, lr):
        self.t += 1
        self.m[rows] = self.beta1 * self.m[rows] + (1 - self.beta1) * grad_rows
        self.v[rows] = self.beta2 * self.v[rows] + (1 - self.beta2) * np.square(grad_rows)
        m_hat = self.m[rows] / (1 - self.beta1**self.t)
        v_hat = self.v[rows] / (1 - self.beta2**self.t)
        return -lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def _reference_train(levels, anc, p, pairs, phi, level_lrs, config, rng, states):
    """Reference trainer: the per-level loop over per-level matrices.

    ``levels`` are trained in place; every active level scatters with its
    own ``np.add.at`` and steps its own ``_ReferenceAdam`` from ``states``.
    The step runs in the levels' dtype (labels and rates cast to it); the
    Adam scale probe and the error sums run in float64.  Returns the
    per-epoch ``(mse, mean_rel_error)`` lists.
    """
    level_lrs = np.asarray(level_lrs, dtype=np.float64)
    dtype = levels[0].dtype

    def gather(vertices, out_dtype):
        out = np.zeros((vertices.size, levels[0].shape[1]), dtype=out_dtype)
        for level, matrix in enumerate(levels):
            out += matrix[anc[vertices, level]]
        return out

    scale = 1.0
    if config.optimizer == "adam":
        probe = slice(0, min(len(pairs), 2048))
        diff = gather(pairs[probe, 0], np.float64) - gather(pairs[probe, 1], np.float64)
        scale = training._adam_lr_scale(lp_distance(diff, p), phi[probe])
    active = [level for level in range(len(levels)) if level_lrs[level] > 0]
    mse, rel = [], []
    for _ in range(config.epochs):
        sq_sum = rel_sum = 0.0
        for batch in training._epoch_batches(len(pairs), config.batch_size, config.shuffle, rng):
            s, t = pairs[batch, 0], pairs[batch, 1]
            grad, resid, _ = training._pair_gradient(
                gather(s, dtype), gather(t, dtype), phi[batch].astype(dtype), p
            )
            resid = resid.astype(np.float64)
            sq_sum += float(np.square(resid).sum())
            rel_sum += float((np.abs(resid) / np.maximum(phi[batch], 1e-12)).sum())
            for level in active:
                rows, full = _reference_scatter(anc[s, level], anc[t, level], grad)
                full /= len(batch)
                lr = dtype.type(config.lr * level_lrs[level] * scale)
                if config.optimizer == "adam":
                    levels[level][rows] += states[level].step_rows(rows, full, lr)
                else:
                    levels[level][rows] -= lr * full
        mse.append(sq_sum / len(pairs))
        rel.append(rel_sum / len(pairs))
    return mse, rel


def _assert_identical(a, b):
    """Equal values *and* equal bytes (so -0.0 never passes for 0.0)."""
    assert np.array_equal(a, b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_same_block_adam(block, per_level):
    """A block state equals per-level states: moments and step counts."""
    _assert_identical(block.m, np.concatenate([state.m for state in per_level]))
    _assert_identical(block.v, np.concatenate([state.v for state in per_level]))
    assert block.t.tolist() == [state.t for state in per_level]


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
        for levels, dtype in itertools.product((1, 2, 5), DTYPES):
            ls, lt, grad, offsets = _scatter_case(case, levels)
            grad = grad.astype(dtype)
            rows, full = _scatter_levels(ls + offsets[:-1], lt + offsets[:-1], grad)
            bounds = np.searchsorted(rows, offsets)
            for l in range(levels):
                ref_rows, ref_full = _reference_scatter(ls[:, l], lt[:, l], grad)
                part = slice(bounds[l], bounds[l + 1])
                _assert_identical(rows[part] - offsets[l], ref_rows)
                _assert_identical(full[part], ref_full)

    def test_adam_step_matches_reference(self):
        """Block Adam over three levels against one reference per level,
        with a different active subset every step, in each dtype."""
        for dtype in DTYPES:
            rng = np.random.default_rng(5)
            sizes = np.array([7, 40, 13])
            offsets = np.concatenate([[0], np.cumsum(sizes)])
            block = AdamState((offsets[-1], 6), levels=3, dtype=dtype)
            reference = [_ReferenceAdam((size, 6), dtype=dtype) for size in sizes]
            lrs = np.array([0.3, 0.1, 0.05], dtype=dtype)
            for active in ([0, 1, 2], [1], [0, 2], [2], [0, 1, 2]):
                per_level = [np.unique(rng.integers(0, sizes[l], 9)) for l in active]
                rows = np.concatenate([r + offsets[l] for l, r in zip(active, per_level)])
                grad_rows = rng.standard_normal((rows.size, 6)).astype(dtype)
                grad_rows[0, 0] = -0.0
                bounds = np.searchsorted(rows, offsets)
                update = block.step_rows(rows, grad_rows, lrs, bounds)
                for l, level_rows in zip(active, per_level):
                    mine = slice(bounds[l], bounds[l + 1])
                    _assert_identical(
                        update[mine],
                        reference[l].step_rows(level_rows, grad_rows[mine], lrs[l]),
                    )
                _assert_same_block_adam(block, reference)

    @KERNEL_CASES
    def test_train_flat_matches_reference(self, medium_grid, labelled, optimizer, dtype):
        """``train_flat`` (float64) and a float32 one-level block against
        the reference trainer in the same dtype."""
        pairs, phi = labelled
        pairs, phi = pairs[:3000], phi[:3000]
        config = _kernel_config(optimizer)
        model = RNEModel.random(medium_grid.n, 8, seed=1)
        flat = HierarchicalRNE.flat(model.matrix.astype(dtype, copy=False), p=model.p)
        expected = [flat.block.copy()]
        anc = np.arange(medium_grid.n)[:, None]
        history = _reference_train(
            expected, anc, model.p, pairs, phi, [1.0], config,
            np.random.default_rng(7), [_ReferenceAdam(flat.block.shape, dtype=dtype)],
        )
        if dtype == np.float64:
            result = train_flat(model, pairs, phi, config, rng=7)
        else:
            result = train_hierarchical(flat, pairs, phi, [1.0], config, rng=7)
        _assert_identical(flat.block, expected[0])
        assert (result.mse, result.mean_rel_error) == history

    @KERNEL_CASES
    def test_train_hierarchical_matches_reference(
        self, medium_grid, labelled, optimizer, dtype
    ):
        """Block training equals the per-level loop byte for byte — levels,
        Adam moments and per-level step counts — for single schedules and
        a freeze-then-unfreeze sequence sharing one optimiser state."""
        pairs, phi = labelled
        pairs, phi = pairs[:3000], phi[:3000]
        hierarchy = PartitionHierarchy(medium_grid, fanout=4, leaf_size=16, seed=0)
        config = _kernel_config(optimizer)
        num_levels = hierarchy.num_levels
        focused = level_schedule(1, num_levels)
        focused[0] = 0.0
        middle_zero = np.ones(num_levels)
        middle_zero[1] = 0.0
        sequences = {
            "focused": [focused],
            "middle_zero": [middle_zero],
            "vertex_only": [vertex_only_schedule(num_levels)],
            "all_zero": [np.zeros(num_levels)],
            "freeze_then_unfreeze": [
                level_schedule(0, num_levels),
                vertex_only_schedule(num_levels),
                np.full(num_levels, 0.3),
            ],
        }
        for name, schedules in sequences.items():
            hmodel = HierarchicalRNE(hierarchy, d=8, init_scale=1.0, seed=0)
            hmodel.block = hmodel.block.astype(dtype)
            initial = hmodel.block.copy()
            expected = [m.copy() for m in hmodel.locals]
            adam = AdamState.for_model(hmodel)
            reference = [_ReferenceAdam(m.shape, dtype=dtype) for m in expected]
            rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
            for lrs in schedules:
                result = train_hierarchical(
                    hmodel, pairs, phi, lrs, config, rng=rng, adam=adam
                )
                history = _reference_train(
                    expected, hierarchy.anc_rows, hmodel.p, pairs, phi, lrs,
                    config, ref_rng, reference,
                )
                assert (result.mse, result.mean_rel_error) == history, name
            _assert_identical(hmodel.block, np.concatenate(expected))
            if optimizer == "adam":
                _assert_same_block_adam(adam, reference)
            else:
                _assert_same_block_adam(
                    adam, [_ReferenceAdam(m.shape, dtype=dtype) for m in expected]
                )
            if name == "all_zero":
                _assert_identical(hmodel.block, initial)
                assert not adam.t.any()
            if name == "freeze_then_unfreeze" and optimizer == "adam":
                epochs = config.epochs * -(-len(pairs) // config.batch_size)
                assert adam.t.tolist() == [2 * epochs] * (num_levels - 1) + [3 * epochs]

    def test_float32_block_never_upcasts(self, medium_grid, labelled, monkeypatch):
        """A float32 block keeps the kernel in float32: the labels the
        gradient sees, the gradient, the scattered sums, the Adam step and
        both moments."""
        pairs, phi = labelled
        hierarchy = PartitionHierarchy(medium_grid, fanout=4, leaf_size=16, seed=0)
        hmodel = HierarchicalRNE(hierarchy, d=8, seed=0)
        assert hmodel.block.dtype == np.float32
        adam = AdamState.for_model(hmodel)
        seen = {}

        def spy(owner, name):
            inner = getattr(owner, name)

            def wrapped(*args):
                out = inner(*args)
                seen.setdefault(name, []).append((args, out))
                return out

            monkeypatch.setattr(owner, name, wrapped)

        spy(training, "_pair_gradient")
        spy(training, "_scatter_levels")
        spy(adam, "step_rows")
        train_hierarchical(
            hmodel, pairs[:3000], phi[:3000], np.ones(hmodel.num_levels),
            TrainConfig(epochs=1), rng=0, adam=adam,
        )
        assert [len(seen[name]) for name in sorted(seen)] == [3, 3, 3]  # batches
        for args, (grad, resid, pred) in seen["_pair_gradient"]:
            assert {a.dtype for a in args[:3]} == {np.dtype(np.float32)}
            assert grad.dtype == resid.dtype == pred.dtype == np.float32
        for (_, _, grad), (_, full) in seen["_scatter_levels"]:
            assert grad.dtype == full.dtype == np.float32
        for (_, grad_rows, lrs, _), step in seen["step_rows"]:
            assert grad_rows.dtype == lrs.dtype == step.dtype == np.float32
        assert adam.m.dtype == adam.v.dtype == hmodel.block.dtype == np.float32

    def test_mismatched_adam_state_rejected(self, medium_grid, labelled):
        pairs, phi = labelled
        hierarchy = PartitionHierarchy(medium_grid, fanout=4, leaf_size=16, seed=0)
        hmodel = HierarchicalRNE(hierarchy, d=8, seed=0)
        lrs = np.ones(hmodel.num_levels)
        foreign = [
            AdamState.for_model(HierarchicalRNE(hierarchy, d=4, seed=0)),
            AdamState.for_model(HierarchicalRNE.flat(np.zeros((medium_grid.n, 8)))),
            AdamState(hmodel.block.shape, levels=hmodel.num_levels - 1, dtype=np.float32),
            AdamState(hmodel.block.shape, levels=hmodel.num_levels, dtype=np.float64),
        ]
        before = hmodel.block.copy()
        for adam in foreign:
            with pytest.raises(ValueError, match="Adam state"):
                train_hierarchical(
                    hmodel, pairs[:100], phi[:100], lrs, TrainConfig(epochs=1),
                    rng=0, adam=adam,
                )
        _assert_identical(hmodel.block, before)


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
        adam = AdamState.for_model(hmodel)
        lrs = np.ones(hmodel.num_levels)
        train_hierarchical(
            hmodel, pairs[:2000], phi[:2000], lrs, TrainConfig(epochs=1),
            rng=0, adam=adam,
        )
        assert (adam.t > 0).all()

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
