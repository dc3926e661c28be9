"""Tests for checkpoint state packing, the manager, and divergence recovery."""

import numpy as np
import pytest

from repro.graph import Graph
from repro.reliability import (
    ArtifactError,
    CheckpointManager,
    RetryPolicy,
    TrainingDiverged,
    diverged,
    run_with_recovery,
)
from repro.reliability.checkpoint import (
    abort_on_nonfinite,
    pack_state,
    restore_rng,
    rng_state,
    rollback_pair,
    unpack_state,
)
from repro.reliability.faults import corrupt_file


class FakeAdam:
    """Duck-typed optimiser state (.m / .v / per-level .t), like AdamState."""

    def __init__(self, shape, levels=2, t=0, dtype=np.float64):
        self.m = np.zeros(shape, dtype=dtype)
        self.v = np.zeros(shape, dtype=dtype)
        self.t = np.full(levels, t, dtype=np.int64)


class TestStatePacking:
    def test_roundtrip_with_adam(self, rng):
        matrix = rng.normal(size=(7, 2))
        adam = FakeAdam((7, 2), t=7)
        adam.m[:] = 0.5
        adam.t[1] = 3
        arrays, meta = pack_state(matrix, adam)
        assert sorted(arrays) == ["adam_m", "adam_v", "matrix"]
        assert meta["adam_t"] == [7, 3]

        fresh_m, fresh_a = np.zeros((7, 2)), FakeAdam((7, 2))
        unpack_state(arrays, meta, fresh_m, fresh_a)
        np.testing.assert_array_equal(fresh_m, matrix)
        assert fresh_a.t.tolist() == [7, 3]
        np.testing.assert_array_equal(fresh_a.m, adam.m)

    def test_level_count_mismatch(self, rng):
        arrays, meta = pack_state(rng.normal(size=(4, 2)), FakeAdam((4, 2), levels=2))
        with pytest.raises(ArtifactError, match="levels"):
            unpack_state(arrays, meta, np.zeros((4, 2)), FakeAdam((4, 2), levels=3))

    def test_shape_mismatch(self, rng):
        arrays, meta = pack_state(rng.normal(size=(4, 2)))
        with pytest.raises(ArtifactError, match="shape"):
            unpack_state(arrays, meta, np.zeros((5, 2)))

    def test_missing_adam_counters(self, rng):
        arrays, meta = pack_state(rng.normal(size=(4, 2)))  # no adam saved
        with pytest.raises(ArtifactError, match="Adam"):
            unpack_state(arrays, meta, np.zeros((4, 2)), FakeAdam((4, 2)))

    def test_rejected_state_writes_nothing(self, rng):
        arrays, meta = pack_state(rng.normal(size=(4, 2)))  # no adam saved
        live = np.zeros((4, 2))
        with pytest.raises(ArtifactError, match="Adam"):
            unpack_state(arrays, meta, live, FakeAdam((4, 2)))
        np.testing.assert_array_equal(live, np.zeros((4, 2)))

    def test_dtype_mismatch_rejected_before_any_write(self, rng):
        """A float64 checkpoint never resumes onto a float32 state by
        silent casting, nor a float32 one onto float64; the matrix and
        each moment are checked."""
        matrix = rng.normal(size=(4, 2))
        cases = [
            (matrix, FakeAdam((4, 2)), np.float32, np.float32, "'matrix'"),
            (matrix.astype(np.float32), FakeAdam((4, 2)), np.float32, np.float32, "'adam_m'"),
            (
                matrix.astype(np.float32), FakeAdam((4, 2), dtype=np.float32),
                np.float64, np.float64, "'matrix'",
            ),
        ]
        for saved, saved_adam, live_dtype, adam_dtype, key in cases:
            arrays, meta = pack_state(saved, saved_adam)
            live = np.zeros((4, 2), dtype=live_dtype)
            live_adam = FakeAdam((4, 2), t=5, dtype=adam_dtype)
            with pytest.raises(ArtifactError, match=key):
                unpack_state(arrays, meta, live, live_adam)
            assert not live.any() and not live_adam.m.any()
            assert live_adam.t.tolist() == [5, 5]
        float32 = matrix.astype(np.float32)
        arrays, meta = pack_state(float32, FakeAdam((4, 2), dtype=np.float32))
        live = np.zeros((4, 2), dtype=np.float32)
        unpack_state(arrays, meta, live, FakeAdam((4, 2), dtype=np.float32))
        assert live.tobytes() == float32.tobytes()

    def test_per_level_layout_rejected(self, rng):
        """Checkpoints from the per-level layout carry ``local_{l}`` arrays
        and no ``matrix``; they are rejected before anything is written."""
        legacy = {"local_0": rng.normal(size=(2, 2)), "local_1": rng.normal(size=(4, 2))}
        live = np.zeros((6, 2))
        with pytest.raises(ArtifactError, match="'matrix'"):
            unpack_state(legacy, {"num_levels": 2}, live)
        np.testing.assert_array_equal(live, np.zeros((6, 2)))

    def test_rollback_pair_restores_in_place(self, rng):
        matrix = rng.normal(size=(7, 2))
        adam = FakeAdam((7, 2), t=3)
        gen = np.random.default_rng(5)
        snapshot, restore = rollback_pair(matrix, adam, gen)
        snap = snapshot()
        before = matrix.copy()
        expected_draw = gen.normal(size=3)
        moments = adam.m
        matrix += 1.0
        adam.m[:] = 9.0
        adam.t[1] = 11
        restore(snap)
        np.testing.assert_array_equal(matrix, before)
        assert adam.m is moments
        np.testing.assert_array_equal(adam.m, np.zeros((7, 2)))
        assert adam.t.tolist() == [3, 3]
        np.testing.assert_array_equal(gen.normal(size=3), expected_draw)

    def test_rollback_pair_without_adam(self, rng):
        """SGD training has no optimiser state: the pair rolls back the
        matrix and the RNG only."""
        matrix = rng.normal(size=(7, 2))
        gen = np.random.default_rng(5)
        snapshot, restore = rollback_pair(matrix, None, gen)
        snap = snapshot()
        before = matrix.copy()
        expected_draw = gen.normal(size=3)
        matrix += 1.0
        restore(snap)
        np.testing.assert_array_equal(matrix, before)
        np.testing.assert_array_equal(gen.normal(size=3), expected_draw)

    def test_rng_state_roundtrip_is_json_safe(self):
        import json

        rng = np.random.default_rng(42)
        rng.normal(size=10)
        state = json.loads(json.dumps(rng_state(rng)))
        expected = rng.normal(size=5)
        replay = np.random.default_rng(0)
        restore_rng(replay, state)
        np.testing.assert_array_equal(replay.normal(size=5), expected)


class TestCheckpointManager:
    def test_save_load_roundtrip(self, tmp_path, rng):
        mgr = CheckpointManager(tmp_path)
        arrays, meta = pack_state(rng.normal(size=(4, 2)))
        meta["extra"] = [1, 2]
        mgr.save("vertex", arrays, meta, step=3)
        back, back_meta = mgr.load("vertex")
        np.testing.assert_array_equal(back["matrix"], arrays["matrix"])
        assert back_meta["step"] == 3
        assert back_meta["stage"] == "vertex"
        assert back_meta["extra"] == [1, 2]

    @pytest.mark.parametrize("stage", ["", ".hidden", "a/b"])
    def test_bad_stage_names_rejected(self, tmp_path, stage):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path).path_for(stage)

    def test_latest_picks_highest_step(self, tmp_path, rng):
        mgr = CheckpointManager(tmp_path)
        arrays, meta = pack_state(rng.normal(size=(2, 2)))
        mgr.save("early", arrays, meta, step=0)
        mgr.save("late", arrays, meta, step=1)
        stage, _, got_meta = mgr.latest()
        assert stage == "late"
        assert got_meta["step"] == 1

    def test_latest_skips_corrupt_and_falls_back(self, tmp_path, rng):
        mgr = CheckpointManager(tmp_path)
        arrays, meta = pack_state(rng.normal(size=(2, 2)))
        mgr.save("early", arrays, meta, step=0)
        mgr.save("late", arrays, meta, step=1)
        corrupt_file(mgr.path_for("late"), seed=1, nbytes=8)
        stage, _, _ = mgr.latest()
        assert stage == "early"
        assert len(mgr.skipped) == 1
        assert "late" in mgr.skipped[0][0]

    def test_latest_empty_directory(self, tmp_path):
        assert CheckpointManager(tmp_path).latest() is None

    def test_graph_binding(self, tmp_path, rng):
        g1 = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        g2 = Graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        arrays, meta = pack_state(rng.normal(size=(2, 2)))
        CheckpointManager(tmp_path, graph=g1).save("s", arrays, meta, step=0)
        other = CheckpointManager(tmp_path, graph=g2)
        assert other.latest() is None  # wrong-graph checkpoint is skipped
        assert len(other.skipped) == 1

    def test_clear(self, tmp_path, rng):
        mgr = CheckpointManager(tmp_path)
        arrays, meta = pack_state(rng.normal(size=(2, 2)))
        mgr.save("s", arrays, meta, step=0)
        mgr.clear()
        assert mgr.stages_on_disk() == []


class TestDivergenceDetection:
    def test_empty_and_short_histories_pass(self):
        assert not diverged([])
        assert not diverged([1.0])

    def test_nonfinite_always_diverges(self):
        assert diverged([1.0, float("nan")])
        assert diverged([float("inf")])

    def test_regression_beyond_factor(self):
        assert not diverged([1.0, 0.9, 0.8, 1.2])  # noise passes
        assert diverged([1.0, 0.5, 0.4, 10.0], regression_factor=5.0)

    def test_window_limits_lookback(self):
        # The ancient low value must fall outside the window.
        history = [0.01] + [1.0] * 6 + [3.0]
        assert not diverged(history, regression_factor=5.0, window=5)

    def test_abort_on_nonfinite_hook(self):
        hook = abort_on_nonfinite("stage-x")
        hook(0, 1.0, 0.5)  # fine
        with pytest.raises(TrainingDiverged, match="stage-x"):
            hook(1, float("nan"), 0.5)


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"lr_backoff": 0.0},
            {"lr_backoff": 1.0},
            {"regression_factor": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestRunWithRecovery:
    def test_clean_run_passes_through(self):
        state = {"value": 0}

        def attempt(scale):
            state["value"] = 10
            return type("R", (), {"mse": [1.0, 0.5]})()

        outcome = run_with_recovery(
            attempt, lambda: dict(state), lambda s: state.update(s)
        )
        assert outcome.attempts == 1
        assert outcome.lr_scale == 1.0
        assert outcome.notes == []
        assert state["value"] == 10

    def test_rollback_and_backoff_then_success(self):
        state = {"value": 0}
        calls = []

        def attempt(scale):
            calls.append((scale, state["value"]))
            state["value"] += 1
            if len(calls) == 1:
                raise TrainingDiverged("boom")
            return type("R", (), {"mse": [1.0, 0.5]})()

        outcome = run_with_recovery(
            attempt,
            lambda: dict(state),
            lambda s: (state.clear(), state.update(s)),
            policy=RetryPolicy(max_retries=2, lr_backoff=0.5),
            stage="unit",
        )
        # Second attempt starts from the restored snapshot at half the rate.
        assert calls == [(1.0, 0), (0.5, 0)]
        assert outcome.attempts == 2
        assert outcome.lr_scale == 0.5
        assert len(outcome.notes) == 1 and "unit" in outcome.notes[0]

    def test_history_divergence_triggers_retry(self):
        histories = [[1.0, 50.0], [1.0, 0.5]]

        def attempt(scale):
            return type("R", (), {"mse": histories.pop(0)})()

        outcome = run_with_recovery(
            attempt, lambda: None, lambda s: None,
            policy=RetryPolicy(regression_factor=5.0),
        )
        assert outcome.attempts == 2

    def test_exhausted_budget_raises_and_restores(self):
        state = {"value": 0}

        def attempt(scale):
            state["value"] += 1
            raise TrainingDiverged("always")

        with pytest.raises(TrainingDiverged, match="attempts"):
            run_with_recovery(
                attempt,
                lambda: dict(state),
                lambda s: (state.clear(), state.update(s)),
                policy=RetryPolicy(max_retries=1),
            )
        assert state["value"] == 0  # restored to the pre-stage snapshot

    def test_history_of_override(self):
        def attempt(scale):
            return type(
                "R", (), {"mse": [1.0], "mean_rel_errors": [1.0, 99.0]}
            )()

        with pytest.raises(TrainingDiverged):
            run_with_recovery(
                attempt, lambda: None, lambda s: None,
                policy=RetryPolicy(max_retries=0),
                history_of=lambda r: r.mean_rel_errors,
            )
