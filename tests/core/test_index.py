"""Tests for the embedding tree index (Sec. VI range / kNN queries).

Queries run through ``RNE.knn`` / ``RNE.range_query`` and the index's
batched kernels; ``RNEModel.knn_brute`` and a brute range filter are the
reference.
"""

import numpy as np
import pytest

from repro.core import RNE, EmbeddingTreeIndex, RNEModel
from repro.core.index import knn_frontier, prune_slack, range_frontier
from repro.core.model import lp_distance
from repro.core.pipeline import BuildHistory
from repro.graph import PartitionHierarchy


def _setup(graph, dtype):
    hierarchy = PartitionHierarchy(graph, fanout=4, leaf_size=8, seed=0)
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(graph.n, 6)).astype(dtype)
    model = RNEModel(matrix, p=1.0)
    rne = RNE(graph, model, hierarchy, BuildHistory())
    return hierarchy, matrix, rne, model


@pytest.fixture(scope="class")
def setup(small_grid, request):
    """:func:`_setup` in the test class's ``dtype`` (float64 by default)."""
    return _setup(small_grid, getattr(request.cls, "dtype", np.float64))


def _brute_range(model, source, targets, tau):
    """Brute range filter in the model's dtype, ``tau`` as given."""
    ids = np.unique(np.asarray(targets, dtype=np.int64))
    return ids[model.distances_from(source, ids) <= tau]


def _knn_prepared(index, prepared, source, k):
    sources = np.array([source], dtype=np.int64)
    return knn_frontier(
        index.snapshot, prepared, sources, min(k, prepared.m), index.p, index
    )[0]


def _range_prepared(index, prepared, source, tau):
    sources = np.array([source], dtype=np.int64)
    return range_frontier(index.snapshot, prepared, sources, tau, index.p, index)[0]


class TestConstruction:
    def test_matrix_size_checked(self, small_grid):
        hierarchy = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        with pytest.raises(ValueError):
            EmbeddingTreeIndex(hierarchy, np.zeros((3, 2)))

    def test_radii_cover_members(self, setup):
        hierarchy, matrix, rne, _ = setup
        snap = rne.index.snapshot
        for node in hierarchy.nodes:
            if node.level > rne.index.leaf_level:
                continue
            dists = lp_distance(matrix[node.vertices] - snap.centres[node.id], 1.0)
            assert dists.max() <= snap.radii[node.id] + 1e-9

    def test_index_bytes(self, small_grid):
        """One centre and one radius per node at levels <= the leaf level."""
        hierarchy = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        d = 5
        index = EmbeddingTreeIndex(hierarchy, np.ones((small_grid.n, d)))
        nodes = sum(1 for node in hierarchy.nodes if node.level <= index.leaf_level)
        assert nodes < len(hierarchy.nodes)  # per-vertex nodes are not indexed
        assert index.index_bytes() == nodes * (8 * d + 8)
        half = EmbeddingTreeIndex(hierarchy, np.ones((small_grid.n, d), dtype=np.float32))
        assert half.index_bytes() == nodes * (4 * d + 4)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_geometry_keeps_the_matrix_dtype(self, small_grid, dtype):
        hierarchy, matrix, rne, model = _setup(small_grid, dtype)
        snap = rne.index.snapshot
        assert model.matrix is matrix and snap.matrix is matrix
        assert snap.centres.dtype == snap.radii.dtype == np.dtype(dtype)
        with pytest.raises(ValueError, match="dtype|float"):
            other = np.float32 if dtype is np.float64 else np.float64
            rne.index.refresh_rows(matrix.astype(other), np.array([0]))

    def test_integer_matrix_widens_to_float64(self, small_grid):
        hierarchy = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        ints = np.ones((small_grid.n, 3), dtype=np.int64)
        assert RNEModel(ints).matrix.dtype == np.float64
        assert EmbeddingTreeIndex(hierarchy, ints).snapshot.centres.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_radii_cover_members_exactly(self, small_grid, dtype):
        """Radii cover every member in exact (float64) arithmetic against
        the stored centre; a float32 radius is the smallest float32 that
        does, a float64 one is the plain float64 maximum."""
        hierarchy, matrix, rne, _ = _setup(small_grid, dtype)
        snap = rne.index.snapshot
        for node in hierarchy.nodes:
            if node.level > rne.index.leaf_level:
                continue
            exact = lp_distance(
                matrix[node.vertices].astype(np.float64)
                - snap.centres[node.id].astype(np.float64),
                1.0,
            ).max()
            radius = snap.radii[node.id]
            assert exact <= radius
            assert np.nextafter(radius, -np.inf) < exact or radius == exact

    def test_prune_slack(self):
        """float64 keeps the historical 1e-9; float32 derives from eps."""
        assert prune_slack(np.dtype(np.float64), 32) == 1e-9
        eps = float(np.finfo(np.float32).eps)
        assert prune_slack(np.dtype(np.float32), 32) == 4 * 34 * eps
        assert prune_slack(np.dtype(np.float32), 0) == 8 * eps


class TestRange:
    def test_matches_bruteforce(self, setup, small_grid, rng):
        _, _, rne, model = setup
        targets = rng.choice(small_grid.n, size=30, replace=False)
        for s in [0, 7, 23]:
            dists = model.distances_from(s, targets)
            for tau in [np.percentile(dists, 30), np.percentile(dists, 70)]:
                expected = np.sort(targets[dists <= tau])
                got = rne.range_query(s, targets, float(tau))
                np.testing.assert_array_equal(got, expected)

    def test_zero_tau_self_only(self, setup, small_grid):
        _, _, rne, _ = setup
        targets = np.arange(small_grid.n)
        got = rne.range_query(5, targets, 0.0)
        assert 5 in got  # distance 0 to itself

    def test_negative_tau_rejected(self, setup):
        _, _, rne, _ = setup
        with pytest.raises(ValueError):
            rne.range_query(0, np.array([1]), -1.0)

    def test_nan_tau_rejected(self, setup):
        _, _, rne, _ = setup
        targets = np.array([1, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="tau must be >= 0"):
            rne.range_query(0, targets, float("nan"))
        assert rne.range_query(0, targets, np.inf).tolist() == [1, 2]

    def test_targets_restricted(self, setup, small_grid):
        _, _, rne, _ = setup
        got = rne.range_query(0, np.array([3, 9]), 1e12)
        assert set(got.tolist()) == {3, 9}


class TestKnn:
    def test_matches_bruteforce(self, setup, small_grid, rng):
        _, _, rne, model = setup
        targets = rng.choice(small_grid.n, size=25, replace=False)
        for s in [1, 13, 40]:
            for k in [1, 5, 10]:
                got = rne.knn(s, targets, k)
                np.testing.assert_array_equal(got, model.knn_brute(s, targets, k))

    def test_k_exceeds_targets(self, setup):
        _, _, rne, _ = setup
        got = rne.knn(0, np.array([1, 2]), 10)
        assert set(got.tolist()) == {1, 2}

    def test_invalid_k(self, setup):
        _, _, rne, _ = setup
        with pytest.raises(ValueError):
            rne.knn(0, np.array([1]), 0)

    def test_results_unique(self, setup, small_grid, rng):
        _, _, rne, _ = setup
        targets = rng.choice(small_grid.n, size=20, replace=False)
        got = rne.knn(2, targets, 8)
        assert len(set(got.tolist())) == len(got)


class TestPreparedPaths:
    def test_prepared_matches_one_shot(self, setup, small_grid, rng):
        """prepare()-then-kernel equals the one-shot RNE calls and brute force."""
        _, _, rne, model = setup
        targets = rng.choice(small_grid.n, size=20, replace=False)
        prepared = rne.index.prepare(targets)
        for s in [0, 9, 31]:
            knn = _knn_prepared(rne.index, prepared, s, 4)
            np.testing.assert_array_equal(knn, rne.knn(s, targets, 4))
            np.testing.assert_array_equal(knn, model.knn_brute(s, targets, 4))
            within = _range_prepared(rne.index, prepared, s, 3.0)
            np.testing.assert_array_equal(within, rne.range_query(s, targets, 3.0))
            np.testing.assert_array_equal(
                within, _brute_range(model, s, targets, 3.0)
            )

    def test_prepared_reusable_across_queries(self, setup, small_grid):
        _, _, rne, _ = setup
        prepared = rne.index.prepare(np.arange(0, small_grid.n, 2))
        first = _knn_prepared(rne.index, prepared, 3, 5)
        second = _knn_prepared(rne.index, prepared, 3, 5)
        np.testing.assert_array_equal(first, second)

    def test_duplicate_targets_treated_as_set(self, setup):
        _, _, rne, _ = setup
        got = rne.knn(0, np.array([7, 3, 7, 7, 3]), 10)
        assert got.size == 2  # min(k, #unique targets)
        assert len(set(got.tolist())) == 2

    def test_empty_targets(self, setup):
        _, _, rne, _ = setup
        empty = np.array([], dtype=np.int64)
        assert rne.knn(0, empty, 3).size == 0
        assert rne.range_query(0, empty, 5.0).size == 0


class TestOrderingContract:
    def test_knn_sorted_by_distance_then_id(self, setup, small_grid, rng):
        _, _, rne, model = setup
        targets = rng.choice(small_grid.n, size=30, replace=False)
        for s in [2, 19]:
            got = rne.knn(s, targets, 12)
            d = model.distances_from(s, got)
            keys = list(zip(d.tolist(), got.tolist()))
            assert keys == sorted(keys)

    def test_range_returns_sorted_ids(self, setup, small_grid, rng):
        _, _, rne, model = setup
        targets = rng.choice(small_grid.n, size=30, replace=False)
        got = rne.range_query(4, targets, 5.0)
        np.testing.assert_array_equal(got, _brute_range(model, 4, targets, 5.0))
        np.testing.assert_array_equal(got, np.sort(got))

    def test_exact_ties_break_by_id(self, small_grid):
        """All-equal embeddings: every distance ties, ids decide the order."""
        hierarchy = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        model = RNEModel(np.zeros((small_grid.n, 4)))
        rne = RNE(small_grid, model, hierarchy, BuildHistory())
        targets = np.array([9, 3, 17, 5], dtype=np.int64)
        np.testing.assert_array_equal(rne.knn(0, targets, 3), [3, 5, 9])
        np.testing.assert_array_equal(rne.range_query(0, targets, 0.0), [3, 5, 9, 17])


# The same comparisons on a float32 snapshot: ``knn_brute`` and
# :func:`_brute_range` follow the model's dtype, so both sides run in it.
class TestRangeFloat32(TestRange):
    dtype = np.float32


class TestKnnFloat32(TestKnn):
    dtype = np.float32


class TestPreparedPathsFloat32(TestPreparedPaths):
    dtype = np.float32


class TestOrderingContractFloat32(TestOrderingContract):
    dtype = np.float32


@pytest.mark.parametrize("step", [1.0, 1e-4])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_range_boundary_on_a_tight_lower_bound(small_grid, dtype, step):
    """Leaves whose lower bound meets a member's distance exactly.

    All members of a leaf but one sit at ``a``, the last at ``a + u`` and
    the source at ``a + (1 + step)·u``: the triangle inequality holds with
    equality, so ``centre distance - radius`` equals the served distance
    ``tau`` in exact arithmetic and rounding puts it either side.  With a
    small ``step`` the radius dwarfs ``tau``, so the centre distance's
    rounding dwarfs ``tau``'s.  The node test's margin must keep every
    such leaf.
    """
    hierarchy = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
    leaf_level = hierarchy.num_subgraph_levels - 1
    leaves = [
        node.vertices for node in hierarchy.nodes
        if node.level == leaf_level and len(node.vertices) >= 3
    ]
    rng = np.random.default_rng(9)
    for members in leaves:
        members = np.asarray(members, dtype=np.int64)
        source = int(np.setdiff1d(np.arange(small_grid.n), members)[0])
        matrix = rng.normal(size=(small_grid.n, 6)) * 1e5
        a = rng.normal(size=6) * 1e3
        u = rng.uniform(10.0, 300.0, size=6)
        matrix[members] = a
        matrix[members[-1]] = a + u
        matrix[source] = a + (1 + step) * u
        model = RNEModel(matrix.astype(dtype), p=1.0)
        rne = RNE(small_grid, model, hierarchy, BuildHistory())
        tau = float(model.distances_from(source, members[-1:])[0])
        got = rne.range_query(source, members, tau)
        assert members[-1] in got
        np.testing.assert_array_equal(got, _brute_range(model, source, members, tau))
