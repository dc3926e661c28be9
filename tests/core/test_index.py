"""Tests for the embedding tree index (Sec. VI range / kNN queries)."""

import numpy as np
import pytest

from repro.core import EmbeddingTreeIndex, RNEModel
from repro.core.model import lp_distance
from repro.graph import PartitionHierarchy


@pytest.fixture(scope="module")
def setup(small_grid):
    hierarchy = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(small_grid.n, 6))
    index = EmbeddingTreeIndex(hierarchy, matrix, p=1.0)
    model = RNEModel(matrix, p=1.0)
    return hierarchy, matrix, index, model


class TestConstruction:
    def test_matrix_size_checked(self, small_grid):
        hierarchy = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        with pytest.raises(ValueError):
            EmbeddingTreeIndex(hierarchy, np.zeros((3, 2)))

    def test_radii_cover_members(self, setup):
        hierarchy, matrix, index, _ = setup
        for node_id, centre in index._centres.items():
            node = hierarchy.nodes[node_id]
            dists = lp_distance(matrix[node.vertices] - centre, 1.0)
            assert dists.max() <= index._radii[node_id] + 1e-9

    def test_index_bytes(self, setup):
        _, _, index, _ = setup
        assert index.index_bytes() > 0


class TestRange:
    def test_matches_bruteforce(self, setup, small_grid, rng):
        _, _, index, model = setup
        targets = rng.choice(small_grid.n, size=30, replace=False)
        for s in [0, 7, 23]:
            dists = model.distances_from(s, targets)
            for tau in [np.percentile(dists, 30), np.percentile(dists, 70)]:
                expected = np.sort(targets[dists <= tau])
                got = index.range_query(s, targets, float(tau))
                np.testing.assert_array_equal(got, expected)

    def test_zero_tau_self_only(self, setup, small_grid):
        _, _, index, _ = setup
        targets = np.arange(small_grid.n)
        got = index.range_query(5, targets, 0.0)
        assert 5 in got  # distance 0 to itself

    def test_negative_tau_rejected(self, setup):
        _, _, index, _ = setup
        with pytest.raises(ValueError):
            index.range_query(0, np.array([1]), -1.0)

    def test_nan_tau_rejected(self, setup):
        _, _, index, _ = setup
        prepared = index.prepare(np.array([1, 2], dtype=np.int64))
        with pytest.raises(ValueError, match="tau must be >= 0"):
            index.range_prepared(0, prepared, float("nan"))
        assert index.range_prepared(0, prepared, np.inf).tolist() == [1, 2]

    def test_targets_restricted(self, setup, small_grid):
        _, _, index, _ = setup
        got = index.range_query(0, np.array([3, 9]), 1e12)
        assert set(got.tolist()) == {3, 9}


class TestKnn:
    def test_matches_bruteforce(self, setup, small_grid, rng):
        _, _, index, model = setup
        targets = rng.choice(small_grid.n, size=25, replace=False)
        for s in [1, 13, 40]:
            for k in [1, 5, 10]:
                got = index.knn_query(s, targets, k)
                got_d = model.distances_from(s, got)
                brute_d = np.sort(model.distances_from(s, targets))[:k]
                np.testing.assert_allclose(np.sort(got_d), brute_d, atol=1e-9)

    def test_k_exceeds_targets(self, setup):
        _, _, index, _ = setup
        got = index.knn_query(0, np.array([1, 2]), 10)
        assert set(got.tolist()) == {1, 2}

    def test_invalid_k(self, setup):
        _, _, index, _ = setup
        with pytest.raises(ValueError):
            index.knn_query(0, np.array([1]), 0)

    def test_results_unique(self, setup, small_grid, rng):
        _, _, index, _ = setup
        targets = rng.choice(small_grid.n, size=20, replace=False)
        got = index.knn_query(2, targets, 8)
        assert len(set(got.tolist())) == len(got)


class TestPreparedPaths:
    def test_prepared_matches_one_shot(self, setup, small_grid, rng):
        """prepare()-then-query is identical to the one-shot wrappers."""
        _, _, index, _ = setup
        targets = rng.choice(small_grid.n, size=20, replace=False)
        prepared = index.prepare(targets)
        for s in [0, 9, 31]:
            np.testing.assert_array_equal(
                index.knn_prepared(s, prepared, 4),
                index.knn_query(s, targets, 4),
            )
            np.testing.assert_array_equal(
                index.range_prepared(s, prepared, 3.0),
                index.range_query(s, targets, 3.0),
            )

    def test_prepared_reusable_across_queries(self, setup, small_grid):
        _, _, index, _ = setup
        prepared = index.prepare(np.arange(0, small_grid.n, 2))
        first = index.knn_prepared(3, prepared, 5)
        second = index.knn_prepared(3, prepared, 5)
        np.testing.assert_array_equal(first, second)

    def test_duplicate_targets_treated_as_set(self, setup):
        _, _, index, _ = setup
        got = index.knn_query(0, np.array([7, 3, 7, 7, 3]), 10)
        assert got.size == 2  # min(k, #unique targets)
        assert len(set(got.tolist())) == 2

    def test_empty_targets(self, setup):
        _, _, index, _ = setup
        empty = np.array([], dtype=np.int64)
        assert index.knn_query(0, empty, 3).size == 0
        assert index.range_query(0, empty, 5.0).size == 0


class TestOrderingContract:
    def test_knn_sorted_by_distance_then_id(self, setup, small_grid, rng):
        _, _, index, model = setup
        targets = rng.choice(small_grid.n, size=30, replace=False)
        for s in [2, 19]:
            got = index.knn_query(s, targets, 12)
            d = model.distances_from(s, got)
            keys = list(zip(d.tolist(), got.tolist()))
            assert keys == sorted(keys)

    def test_range_returns_sorted_ids(self, setup, small_grid, rng):
        _, _, index, _ = setup
        targets = rng.choice(small_grid.n, size=30, replace=False)
        got = index.range_query(4, targets, 5.0)
        np.testing.assert_array_equal(got, np.sort(got))

    def test_exact_ties_break_by_id(self, small_grid):
        """All-equal embeddings: every distance ties, ids decide the order."""
        hierarchy = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        index = EmbeddingTreeIndex(hierarchy, np.zeros((small_grid.n, 4)))
        targets = np.array([9, 3, 17, 5], dtype=np.int64)
        np.testing.assert_array_equal(
            index.knn_query(0, targets, 3), [3, 5, 9]
        )
        np.testing.assert_array_equal(
            index.range_query(0, targets, 0.0), [3, 5, 9, 17]
        )
