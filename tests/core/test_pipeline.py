"""End-to-end tests for the RNE construction pipeline (Algorithm 1)."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import pair_distances
from repro.core import (
    DistanceLabeler,
    RNEConfig,
    RNEModel,
    build_rne,
    error_report,
    validation_set,
)
from repro.graph import Graph, grid_city
from repro.reliability import (
    CheckpointManager,
    FaultInjector,
    InjectedFault,
    installed,
)


FAST = RNEConfig(
    d=16,
    lr=0.05,
    hier_samples_per_level=3000,
    hier_epochs=3,
    vertex_samples=10_000,
    vertex_epochs=8,
    num_landmarks=24,
    finetune_rounds=3,
    finetune_samples=2000,
    validation_size=500,
    seed=0,
)


#: ``sha256(rne.model.matrix.tobytes())[:16]`` of FAST-config builds on
#: ``medium_grid``, recorded when the served matrix became float32 (the
#: float64 ancestor sums of the float32 training block, rounded once).  A
#: change that keeps embeddings byte-identical leaves every digest alone,
#: with and without ``REPRO_WORKERS=2``; one that changes them on purpose
#: records the new digests here and documents the change.
GOLDEN_MATRIX_DIGESTS = {
    "hierarchical": (FAST, "7a899f2549cddf8f"),
    "flat": (replace(FAST, hierarchical=False), "b0a3d374ed05481e"),
    "sgd": (replace(FAST, optimizer="sgd", lr=0.002), "7b7bcda827f860e1"),
}


@pytest.fixture(scope="module")
def rne(medium_grid):
    return build_rne(medium_grid, FAST)


@pytest.mark.parametrize("variant", sorted(GOLDEN_MATRIX_DIGESTS))
def test_golden_embedding_digest(medium_grid, rne, variant):
    config, expected = GOLDEN_MATRIX_DIGESTS[variant]
    built = rne if config is FAST else build_rne(medium_grid, config)
    digest = hashlib.sha256(built.model.matrix.tobytes()).hexdigest()[:16]
    assert digest == expected


def test_served_dtype_is_float32(rne):
    """One place fixes the served dtype; matrix and tree geometry follow."""
    snap = rne.index.snapshot
    assert rne.model.matrix.dtype == np.float32
    assert snap.matrix is rne.model.matrix
    assert snap.centres.dtype == np.float32
    assert snap.radii.dtype == np.float32
    assert rne.query_pairs(np.array([[0, 5]])).dtype == np.float32


class TestBuild:
    def test_reasonable_error(self, rne):
        # Tiny config on a tiny graph: just require single-digit % error.
        assert rne.history.phase_errors["final"] < 0.10

    def test_phases_recorded(self, rne):
        keys = rne.history.phase_errors
        assert "after_hierarchy" in keys
        assert "after_vertex" in keys
        assert "final" in keys

    def test_finetune_ran(self, rne):
        assert rne.history.finetune is not None

    def test_build_time_recorded(self, rne):
        assert rne.history.build_seconds > 0

    def test_default_config(self, small_grid):
        # build_rne() must work with no config at all.
        result = build_rne(
            small_grid,
            RNEConfig(
                d=8, hier_samples_per_level=1000, hier_epochs=1,
                vertex_samples=2000, vertex_epochs=2, num_landmarks=8,
                finetune_rounds=1, finetune_samples=500, validation_size=200,
            ),
        )
        assert result.model.n == small_grid.n


class TestQueries:
    def test_query_matches_model(self, rne):
        assert rne.query(0, 5) == pytest.approx(rne.model.query(0, 5))

    def test_query_pairs_vectorised(self, rne, rng, medium_grid):
        pairs = rng.integers(medium_grid.n, size=(10, 2))
        batch = rne.query_pairs(pairs)
        singles = [rne.query(int(s), int(t)) for s, t in pairs]
        np.testing.assert_allclose(batch, singles)

    def test_query_accuracy_spot_check(self, rne, medium_grid, rng):
        pairs = rng.integers(medium_grid.n, size=(50, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        truth = pair_distances(medium_grid, pairs)
        pred = rne.query_pairs(pairs)
        rel = np.abs(pred - truth) / truth
        assert np.median(rel) < 0.12

    def test_knn_against_embedding_bruteforce(self, rne, medium_grid, rng):
        targets = rng.choice(medium_grid.n, size=25, replace=False)
        got = rne.knn(0, targets, 5)
        brute = rne.model.knn_brute(0, targets, 5)
        got_d = np.sort(rne.model.distances_from(0, got))
        brute_d = np.sort(rne.model.distances_from(0, brute))
        np.testing.assert_allclose(got_d, brute_d)

    def test_range_query(self, rne, medium_grid, rng):
        targets = rng.choice(medium_grid.n, size=25, replace=False)
        dists = rne.model.distances_from(0, targets)
        tau = float(np.median(dists))
        got = rne.range_query(0, targets, tau)
        expected = np.sort(targets[dists <= tau])
        np.testing.assert_array_equal(got, expected)

    def test_index_bytes(self, rne, medium_grid):
        """A float32 matrix (4-byte entries) plus the tree geometry."""
        matrix_bytes = medium_grid.n * 16 * 4
        assert rne.model.index_bytes() == matrix_bytes
        assert rne.index_bytes() == matrix_bytes + rne.index.index_bytes()


class TestNaiveArm:
    def test_flat_pipeline(self, medium_grid):
        config = RNEConfig(
            d=16, hier_samples_per_level=3000, hier_epochs=2,
            vertex_samples=8000, vertex_epochs=4,
            finetune_rounds=2, finetune_samples=1500,
            validation_size=500, hierarchical=False, seed=0,
        )
        rne = build_rne(medium_grid, config)
        assert rne.hierarchy is None
        assert rne.index is None
        assert "after_flat" in rne.history.phase_errors
        assert rne.history.phase_errors["final"] < 0.5

    def test_flat_build_keeps_its_finetuning(self, medium_grid, tmp_path):
        """Fine-tuning trains the flat block itself, not a copy: the served
        model is the fine-tuned one and differs from the ``flat`` stage's.

        ``after_finetune`` is measured in float64 on the trained block and
        ``final`` on the served float32 matrix, so each is compared with
        its own recomputation on the build's validation set; the flat
        block is float32 already, so widening the served matrix gives the
        block back exactly."""
        config = replace(FAST, hierarchical=False)
        rne = build_rne(medium_grid, config, checkpoint_dir=str(tmp_path))
        errors = rne.history.phase_errors
        val_pairs, val_phi = validation_set(
            medium_grid, config.validation_size, DistanceLabeler(medium_grid),
            seed=np.random.default_rng(config.seed + 99),
        )
        widened = RNEModel(rne.model.matrix.astype(np.float64))
        assert errors["after_finetune"] == (
            error_report(widened.query_pairs(val_pairs), val_phi).mean_rel
        )
        assert errors["final"] == rne.validate(val_pairs, val_phi).mean_rel
        manager = CheckpointManager(tmp_path, graph=medium_grid)
        before = manager.load("flat")[0]["matrix"].astype(np.float64)
        after = manager.load("finetune")[0]["matrix"].astype(np.float64)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, rne.model.matrix)

    def test_flat_knn_fallback(self, medium_grid):
        config = RNEConfig(
            d=8, hier_samples_per_level=500, hier_epochs=1,
            vertex_samples=1000, vertex_epochs=1, active=False,
            validation_size=100, hierarchical=False, seed=0,
        )
        rne = build_rne(medium_grid, config)
        got = rne.knn(0, np.arange(20), 3)
        assert got.shape == (3,)


class TestNoCoords:
    @pytest.mark.parametrize("hierarchical", [True, False])
    def test_finetune_skipped_gracefully(self, hierarchical):
        edges = [(i, i + 1, 1.0) for i in range(30)]
        g = Graph(31, edges)  # no coordinates
        config = RNEConfig(
            d=8, hier_samples_per_level=500, hier_epochs=1,
            vertex_samples=1000, vertex_epochs=2, num_landmarks=8,
            validation_size=100, hierarchical=hierarchical, seed=0,
        )
        rne = build_rne(g, config)
        assert rne.history.finetune is None
        assert "after_finetune" not in rne.history.phase_errors
        assert any("fine-tuning skipped" in note for note in rne.history.notes)


class TestSgdBuild:
    def test_checkpoints_carry_no_adam_state_and_resume_bit_identical(
        self, medium_grid, tmp_path
    ):
        """An ``optimizer="sgd"`` build allocates no Adam state, so its
        checkpoints hold the block alone; crashing at every checkpoint and
        resuming still reproduces the uninterrupted build."""
        config = GOLDEN_MATRIX_DIGESTS["sgd"][0]
        baseline = build_rne(medium_grid, config)
        record = tmp_path / "record"
        with installed(FaultInjector.recorder()) as inj:
            build_rne(medium_grid, config, checkpoint_dir=str(record))
        manager = CheckpointManager(record, graph=medium_grid)
        stages = manager.stages_on_disk()
        assert len(stages) == inj.events().count("checkpoint.saved") >= 4
        for stage in stages:
            arrays, meta = manager.load(stage)
            assert sorted(arrays) == ["matrix"]
            assert arrays["matrix"].dtype == np.float32
            assert "adam_t" not in meta
        for occurrence in range(1, len(stages) + 1):
            ckpt = tmp_path / f"crash_{occurrence}"
            with installed(FaultInjector.crash_on("checkpoint.saved", occurrence)):
                with pytest.raises(InjectedFault):
                    build_rne(medium_grid, config, checkpoint_dir=str(ckpt))
            resumed = build_rne(medium_grid, config, checkpoint_dir=str(ckpt), resume=True)
            assert any("resumed from checkpoint" in n for n in resumed.history.notes)
            np.testing.assert_array_equal(resumed.model.matrix, baseline.model.matrix)
            assert resumed.history.phase_errors == baseline.history.phase_errors
