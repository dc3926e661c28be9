"""End-to-end crash/resume tests for the checkpointed build pipeline."""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core import RNE, build_rne
from repro.reliability import (
    ArtifactError,
    CheckpointManager,
    FaultInjector,
    InjectedFault,
    installed,
    load_artifact,
)
from repro.reliability.faults import corrupt_file


def _checkpoints(directory):
    return sorted(f for f in os.listdir(directory) if f.endswith(".ckpt.npz"))


@pytest.fixture(scope="module")
def boundary_count(rel_graph, rel_config, tmp_path_factory):
    """How many checkpoint saves a full build performs (recorded, no crash)."""
    ckpt = tmp_path_factory.mktemp("record")
    with installed(FaultInjector.recorder()) as inj:
        build_rne(rel_graph, rel_config, checkpoint_dir=str(ckpt))
    saves = inj.events().count("checkpoint.saved")
    assert saves >= 3  # at least one hierarchy level + vertex + joint
    return saves


class TestCheckpointedBuild:
    def test_checkpointing_does_not_change_the_result(
        self, rel_graph, rel_config, rel_rne, tmp_path
    ):
        with_ckpt = build_rne(rel_graph, rel_config, checkpoint_dir=str(tmp_path))
        np.testing.assert_array_equal(
            with_ckpt.model.matrix, rel_rne.model.matrix
        )
        assert _checkpoints(tmp_path)  # checkpoints were actually written

    def test_resume_with_empty_directory_is_a_fresh_build(
        self, rel_graph, rel_config, rel_rne, tmp_path
    ):
        rne = build_rne(
            rel_graph, rel_config, checkpoint_dir=str(tmp_path), resume=True
        )
        np.testing.assert_array_equal(rne.model.matrix, rel_rne.model.matrix)

    def test_crash_at_every_boundary_then_resume_is_bit_identical(
        self, rel_graph, rel_config, rel_rne, boundary_count, tmp_path
    ):
        """The acceptance criterion: kill the build at each checkpoint
        boundary in turn; on-disk artifacts must all stay valid and the
        resumed run must reproduce the uninterrupted result exactly."""
        for occurrence in range(1, boundary_count + 1):
            ckpt = tmp_path / f"crash_{occurrence}"
            inj = FaultInjector.crash_on("checkpoint.saved", occurrence)
            with installed(inj):
                with pytest.raises(InjectedFault):
                    build_rne(rel_graph, rel_config, checkpoint_dir=str(ckpt))
            # Every artifact the crashed run left behind is fully valid.
            for name in _checkpoints(ckpt):
                load_artifact(ckpt / name, expect_kind="checkpoint")
            resumed = build_rne(
                rel_graph, rel_config, checkpoint_dir=str(ckpt), resume=True
            )
            assert any("resumed from checkpoint" in n for n in resumed.history.notes)
            np.testing.assert_array_equal(
                resumed.model.matrix, rel_rne.model.matrix
            )
            assert resumed.history.phase_errors == rel_rne.history.phase_errors
            assert resumed.history.phase_pairs == rel_rne.history.phase_pairs

    def test_crash_mid_artifact_write_leaves_no_torn_checkpoint(
        self, rel_graph, rel_config, rel_rne, tmp_path
    ):
        inj = FaultInjector.crash_on("artifact.pre_replace", 1)
        with installed(inj):
            with pytest.raises(InjectedFault):
                build_rne(rel_graph, rel_config, checkpoint_dir=str(tmp_path))
        assert _checkpoints(tmp_path) == []  # nothing half-written
        resumed = build_rne(
            rel_graph, rel_config, checkpoint_dir=str(tmp_path), resume=True
        )
        np.testing.assert_array_equal(resumed.model.matrix, rel_rne.model.matrix)

    def test_corrupt_latest_checkpoint_degrades_to_previous(
        self, rel_graph, rel_config, rel_rne, tmp_path
    ):
        build_rne(rel_graph, rel_config, checkpoint_dir=str(tmp_path))
        names = _checkpoints(tmp_path)
        assert len(names) >= 2
        # Find the highest-step checkpoint and corrupt it.
        steps = {
            name: load_artifact(tmp_path / name)[1]["meta"]["step"]
            for name in names
        }
        latest = max(steps, key=lambda name: steps[name])
        corrupt_file(tmp_path / latest, seed=3, nbytes=8)
        resumed = build_rne(
            rel_graph, rel_config, checkpoint_dir=str(tmp_path), resume=True
        )
        assert any("skipped corrupt checkpoint" in n for n in resumed.history.notes)
        np.testing.assert_array_equal(resumed.model.matrix, rel_rne.model.matrix)


def _assert_resumes_at_every_boundary(graph, config, baseline, tmp_path):
    """Crash at each checkpoint save in turn; every resume must reproduce
    ``baseline`` exactly (matrix and phase errors)."""
    with installed(FaultInjector.recorder()) as inj:
        build_rne(graph, config, checkpoint_dir=str(tmp_path / "record"))
    saves = inj.events().count("checkpoint.saved")
    assert saves >= 2
    for occurrence in range(1, saves + 1):
        ckpt = tmp_path / f"crash_{occurrence}"
        with installed(FaultInjector.crash_on("checkpoint.saved", occurrence)):
            with pytest.raises(InjectedFault):
                build_rne(graph, config, checkpoint_dir=str(ckpt))
        resumed = build_rne(graph, config, checkpoint_dir=str(ckpt), resume=True)
        assert any("resumed from checkpoint" in n for n in resumed.history.notes)
        np.testing.assert_array_equal(resumed.model.matrix, baseline.model.matrix)
        assert resumed.history.phase_errors == baseline.history.phase_errors
        assert resumed.history.phase_pairs == baseline.history.phase_pairs


class TestFlatResume:
    def test_crash_and_resume_flat_build(self, rel_graph, rel_config, tmp_path):
        config = replace(rel_config, hierarchical=False)
        baseline = build_rne(rel_graph, config)
        _assert_resumes_at_every_boundary(rel_graph, config, baseline, tmp_path)

    def test_flat_checkpoint_without_adam_state_starts_fresh(
        self, rel_graph, rel_config, tmp_path
    ):
        """Flat checkpoints written before the flat arm carried Adam moments
        are rejected as unusable, and the build equals a fresh one."""
        config = replace(rel_config, hierarchical=False)
        baseline = build_rne(rel_graph, config)
        manager = CheckpointManager(tmp_path, graph=rel_graph)
        build_rne(rel_graph, config, checkpoint_dir=str(tmp_path))
        arrays, meta = manager.load("flat")
        manager.clear()
        legacy = {k: v for k, v in arrays.items() if not k.startswith("adam_")}
        meta = {k: v for k, v in meta.items() if k not in ("adam_t", "stage", "step")}
        manager.save("flat", legacy, meta, step=0)

        resumed = build_rne(
            rel_graph, config, checkpoint_dir=str(tmp_path), resume=True
        )
        assert any(
            "checkpoint 'flat' unusable" in n and "starting fresh" in n
            for n in resumed.history.notes
        )
        assert not any("resumed from" in n for n in resumed.history.notes)
        np.testing.assert_array_equal(resumed.model.matrix, baseline.model.matrix)
        assert resumed.history.phase_errors == baseline.history.phase_errors
        assert resumed.history.phase_pairs == baseline.history.phase_pairs


class TestLegacyCheckpoint:
    def test_per_level_checkpoint_starts_fresh(
        self, rel_graph, rel_config, rel_rne, tmp_path
    ):
        """Checkpoints in the per-level layout (``local_{l}``,
        ``adam_m_{l}``, ``adam_v_{l}``) are rejected as unusable, and the
        build equals a fresh one."""
        manager = CheckpointManager(tmp_path, graph=rel_graph)
        build_rne(rel_graph, rel_config, checkpoint_dir=str(tmp_path))
        arrays, meta = manager.load("vertex")
        manager.clear()
        hierarchy = rel_rne.hierarchy
        sizes = [hierarchy.level_size(l) for l in range(hierarchy.num_levels)]
        bounds = np.cumsum([0] + sizes)
        legacy = {}
        for key, prefix in (("matrix", "local"), ("adam_m", "adam_m"), ("adam_v", "adam_v")):
            for level in range(len(sizes)):
                legacy[f"{prefix}_{level}"] = arrays[key][bounds[level] : bounds[level + 1]]
        step = meta["step"]
        meta = {k: v for k, v in meta.items() if k not in ("stage", "step")}
        meta["num_levels"] = len(sizes)
        manager.save("vertex", legacy, meta, step=step)

        resumed = build_rne(
            rel_graph, rel_config, checkpoint_dir=str(tmp_path), resume=True
        )
        assert any(
            "checkpoint 'vertex' unusable" in n and "starting fresh" in n
            for n in resumed.history.notes
        )
        assert not any("resumed from" in n for n in resumed.history.notes)
        np.testing.assert_array_equal(resumed.model.matrix, rel_rne.model.matrix)
        assert resumed.history.phase_errors == rel_rne.history.phase_errors
        assert resumed.history.phase_pairs == rel_rne.history.phase_pairs


    def test_float64_checkpoint_starts_fresh(
        self, rel_graph, rel_config, rel_rne, tmp_path
    ):
        """A checkpoint whose block and Adam moments are float64 (written
        before training ran in float32) is rejected as unusable rather than
        cast onto the float32 state, and the build equals a fresh one."""
        manager = CheckpointManager(tmp_path, graph=rel_graph)
        build_rne(rel_graph, rel_config, checkpoint_dir=str(tmp_path))
        arrays, meta = manager.load("vertex")
        manager.clear()
        assert sorted(arrays) == ["adam_m", "adam_v", "matrix"]
        assert {a.dtype for a in arrays.values()} == {np.dtype(np.float32)}
        legacy = {key: value.astype(np.float64) for key, value in arrays.items()}
        step = meta["step"]
        meta = {k: v for k, v in meta.items() if k not in ("stage", "step")}
        manager.save("vertex", legacy, meta, step=step)

        resumed = build_rne(
            rel_graph, rel_config, checkpoint_dir=str(tmp_path), resume=True
        )
        assert any(
            "checkpoint 'vertex' unusable" in n and "float64" in n
            and "starting fresh" in n
            for n in resumed.history.notes
        )
        assert not any("resumed from" in n for n in resumed.history.notes)
        np.testing.assert_array_equal(resumed.model.matrix, rel_rne.model.matrix)
        assert resumed.history.phase_errors == rel_rne.history.phase_errors
        assert resumed.history.phase_pairs == rel_rne.history.phase_pairs


    def test_checkpoint_with_retired_labelling_key_resumes(
        self, rel_graph, rel_config, rel_rne, tmp_path
    ):
        """Older checkpoints also recorded the labelling settings (worker
        count, background sampling flag) under a key the build no longer
        reads.  Those settings were never part of the trained state, so such
        a checkpoint still resumes, and the build equals an uninterrupted
        one."""
        manager = CheckpointManager(tmp_path, graph=rel_graph)
        build_rne(rel_graph, rel_config, checkpoint_dir=str(tmp_path))
        arrays, meta = manager.load("vertex")
        manager.clear()
        step = meta["step"]
        meta = {k: v for k, v in meta.items() if k not in ("stage", "step")}
        meta["worker_config"] = {"workers": 2, "prefetch": True}
        manager.save("vertex", arrays, meta, step=step)

        resumed = build_rne(
            rel_graph, rel_config, checkpoint_dir=str(tmp_path), resume=True
        )
        assert "resumed from checkpoint 'vertex'" in resumed.history.notes
        np.testing.assert_array_equal(resumed.model.matrix, rel_rne.model.matrix)
        assert resumed.history.phase_errors == rel_rne.history.phase_errors
        assert resumed.history.phase_pairs == rel_rne.history.phase_pairs


class TestNoJointResume:
    def test_crash_and_resume_without_joint_stage(
        self, rel_graph, rel_config, tmp_path
    ):
        config = replace(rel_config, joint_epochs=0)
        baseline = build_rne(rel_graph, config)
        assert "after_joint" not in baseline.history.phase_errors
        _assert_resumes_at_every_boundary(rel_graph, config, baseline, tmp_path)


class TestSavedRneValidation:
    def test_corrupt_rne_artifact_raises(self, rel_rne, rel_graph, tmp_path):
        path = tmp_path / "rne.npz"
        rel_rne.save(str(path))
        corrupt_file(path, seed=9, nbytes=8)
        with pytest.raises(ArtifactError):
            RNE.load(str(path), rel_graph)

    def test_wrong_graph_raises(self, rel_rne, tmp_path):
        from repro.graph.generators import grid_city

        path = tmp_path / "rne.npz"
        rel_rne.save(str(path))
        other = grid_city(6, 6, seed=4)  # same size, different weights
        with pytest.raises(ArtifactError, match="different graph"):
            RNE.load(str(path), other)
