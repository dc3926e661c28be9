"""Tests for RNE persistence and the vectorised kNN join."""

import numpy as np
import pytest

from repro.core import RNE, RNEConfig, build_rne
from repro.graph import PartitionHierarchy
from repro.reliability.artifacts import ArtifactError, save_artifact


@pytest.fixture(scope="module")
def rne(medium_grid):
    config = RNEConfig(
        d=16, lr=0.05, hier_samples_per_level=2000, hier_epochs=2,
        vertex_samples=6000, vertex_epochs=4, num_landmarks=16,
        joint_epochs=1, joint_samples=3000,
        finetune_rounds=1, finetune_samples=1000, validation_size=300, seed=0,
    )
    return build_rne(medium_grid, config)


class TestSaveLoad:
    def test_roundtrip_queries(self, rne, medium_grid, tmp_path, rng):
        path = tmp_path / "rne.npz"
        rne.save(path)
        back = RNE.load(path, medium_grid)
        pairs = rng.integers(medium_grid.n, size=(30, 2))
        np.testing.assert_allclose(back.query_pairs(pairs), rne.query_pairs(pairs))

    def test_roundtrip_index(self, rne, medium_grid, tmp_path, rng):
        path = tmp_path / "rne.npz"
        rne.save(path)
        back = RNE.load(path, medium_grid)
        assert back.index is not None
        targets = rng.choice(medium_grid.n, size=20, replace=False)
        got = back.knn(0, targets, 5)
        expected = rne.knn(0, targets, 5)
        got_d = np.sort(back.model.distances_from(0, got))
        exp_d = np.sort(rne.model.distances_from(0, expected))
        np.testing.assert_allclose(got_d, exp_d)

    def test_flat_model_roundtrip(self, medium_grid, tmp_path):
        config = RNEConfig(
            d=8, hier_samples_per_level=500, hier_epochs=1,
            vertex_samples=1000, vertex_epochs=1, joint_epochs=0,
            active=False, validation_size=100, hierarchical=False, seed=0,
        )
        flat = build_rne(medium_grid, config)
        path = tmp_path / "flat.npz"
        flat.save(path)
        back = RNE.load(path, medium_grid)
        assert back.hierarchy is None
        assert back.query(0, 5) == pytest.approx(flat.query(0, 5))


class TestHierarchyReconstruction:
    def test_from_ancestor_rows_roundtrip(self, medium_grid):
        original = PartitionHierarchy(medium_grid, fanout=4, leaf_size=16, seed=0)
        revived = PartitionHierarchy.from_ancestor_rows(
            medium_grid, original.anc_rows
        )
        revived.validate()
        np.testing.assert_array_equal(revived.anc_rows, original.anc_rows)
        assert revived.level_sizes() == original.level_sizes()

    def test_bad_shape_rejected(self, medium_grid):
        with pytest.raises(ValueError):
            PartitionHierarchy.from_ancestor_rows(
                medium_grid, np.zeros((3, 2), dtype=int)
            )

    def test_bad_vertex_column_rejected(self, medium_grid):
        rows = np.zeros((medium_grid.n, 2), dtype=int)
        with pytest.raises(ValueError):
            PartitionHierarchy.from_ancestor_rows(medium_grid, rows)

    def test_load_rejects_non_nested_hierarchy(self, rne, medium_grid, tmp_path):
        # One vertex of a level-1 cell gets another level-0 row: every
        # level stays contiguous, but the cells no longer nest.
        rows = rne.hierarchy.anc_rows.copy()
        assert rows.shape[1] >= 3
        cell = next(c for c in rne.hierarchy.cells(1) if c.size >= 2)
        v = int(cell[-1])
        rows[v, 0] = (rows[v, 0] + 1) % rne.hierarchy.level_size(0)
        path = tmp_path / "bad.npz"
        save_artifact(
            path,
            {"matrix": rne.model.matrix, "p": np.float64(rne.model.p), "anc_rows": rows},
            kind="rne",
            graph=medium_grid,
            meta={"version": 1},
        )
        with pytest.raises(ArtifactError, match="not nested"):
            RNE.load(path, medium_grid)


class TestKnnJoin:
    def test_matches_per_source_knn(self, rne, medium_grid, rng):
        sources = rng.choice(medium_grid.n, size=8, replace=False)
        targets = rng.choice(medium_grid.n, size=30, replace=False)
        joined = rne.knn_join(sources, targets, 4)
        assert joined.shape == (8, 4)
        for row, s in zip(joined, sources):
            brute = rne.model.knn_brute(int(s), targets, 4)
            row_d = np.sort(rne.model.distances_from(int(s), row))
            brute_d = np.sort(rne.model.distances_from(int(s), brute))
            np.testing.assert_allclose(row_d, brute_d)

    def test_k_capped_at_targets(self, rne, rng, medium_grid):
        targets = rng.choice(medium_grid.n, size=3, replace=False)
        joined = rne.knn_join(np.array([0, 1]), targets, 10)
        assert joined.shape == (2, 3)

    def test_invalid_k(self, rne):
        with pytest.raises(ValueError):
            rne.knn_join(np.array([0]), np.array([1]), 0)

    def test_results_sorted_by_distance(self, rne, medium_grid, rng):
        targets = rng.choice(medium_grid.n, size=25, replace=False)
        joined = rne.knn_join(np.array([0]), targets, 6)
        dists = rne.model.distances_from(0, joined[0])
        assert (np.diff(dists) >= -1e-9).all()
