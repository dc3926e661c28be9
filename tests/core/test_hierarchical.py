"""Tests for the hierarchical RNE model."""

import numpy as np
import pytest

from repro.core import HierarchicalRNE
from repro.graph import PartitionHierarchy


@pytest.fixture(scope="module")
def hierarchy(small_grid):
    return PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)


@pytest.fixture()
def hmodel(hierarchy):
    return HierarchicalRNE(hierarchy, d=6, seed=0)


class TestAssembly:
    def test_global_matrix_shape(self, hmodel, small_grid):
        assert hmodel.global_matrix().shape == (small_grid.n, 6)

    def test_global_is_ancestor_sum(self, hmodel, hierarchy):
        v = 11
        expected = np.zeros(6)
        for level in range(hierarchy.num_levels):
            expected += hmodel.locals[level][hierarchy.anc_rows[v, level]]
        np.testing.assert_allclose(hmodel.global_vectors(np.array([v]))[0], expected)

    def test_query_consistency_with_model(self, hmodel):
        model = hmodel.to_model()
        for s, t in [(0, 1), (3, 9), (10, 10)]:
            assert hmodel.query(s, t) == pytest.approx(model.query(s, t))

    def test_query_pairs_matches_query(self, hmodel, rng, small_grid):
        pairs = rng.integers(small_grid.n, size=(12, 2))
        batch = hmodel.query_pairs(pairs)
        singles = [hmodel.query(int(s), int(t)) for s, t in pairs]
        np.testing.assert_allclose(batch, singles)

    def test_shared_coarse_shift_invariance(self, hmodel, hierarchy):
        """Shifting a level-0 local embedding must not change distances
        between vertices under that same cell (shared ancestor cancels)."""
        cell = hierarchy.cells(0)[0]
        if cell.size < 2:
            pytest.skip("need a cell with two vertices")
        s, t = int(cell[0]), int(cell[1])
        before = hmodel.query(s, t)
        hmodel.block[0] += 123.0  # level 0's first row
        assert hmodel.query(s, t) == pytest.approx(before)


class TestInit:
    def test_init_scale_decays_per_level(self, hierarchy):
        hm = HierarchicalRNE(hierarchy, d=8, init_scale=4.0, seed=0)
        stds = [m.std() for m in hm.locals]
        for upper, lower in zip(stds[:-1], stds[1:]):
            assert lower < upper

    def test_deterministic(self, hierarchy):
        a = HierarchicalRNE(hierarchy, d=4, seed=3)
        b = HierarchicalRNE(hierarchy, d=4, seed=3)
        for ma, mb in zip(a.locals, b.locals):
            np.testing.assert_allclose(ma, mb)

    def test_invalid_d(self, hierarchy):
        with pytest.raises(ValueError):
            HierarchicalRNE(hierarchy, d=0)

    def test_flat_table_without_hierarchy(self, small_grid):
        """``hierarchy=None`` draws the one-level flat table: ``n`` rows
        holding the float32-rounded ``rng.normal`` draw."""
        hm = HierarchicalRNE(None, d=4, n=small_grid.n, init_scale=2.0, seed=7)
        draw = np.random.default_rng(7).normal(scale=2.0, size=(small_grid.n, 4))
        assert hm.hierarchy is None and hm.num_levels == 1
        assert hm.block.tobytes() == draw.astype(np.float32).tobytes()
        np.testing.assert_array_equal(hm.block_rows[:, 0], np.arange(small_grid.n))

    def test_vertex_count_required_without_hierarchy_and_checked_with_one(
        self, hierarchy, small_grid
    ):
        with pytest.raises(ValueError, match="needs n"):
            HierarchicalRNE(None, d=4)
        with pytest.raises(ValueError, match="vertices"):
            HierarchicalRNE(hierarchy, d=4, n=small_grid.n + 1)
        assert HierarchicalRNE(hierarchy, d=4, n=small_grid.n).n == small_grid.n

    def test_level_matrix_shapes(self, hierarchy):
        hm = HierarchicalRNE(hierarchy, d=5, seed=0)
        for level, matrix in enumerate(hm.locals):
            assert matrix.shape == (hierarchy.level_size(level), 5)

    def test_levels_drawn_in_order_into_one_block(self, hierarchy):
        """Each level's ``rng.normal`` draw, in level order, at half the
        previous scale, lands rounded to float32 in its slice of the block."""
        hm = HierarchicalRNE(hierarchy, d=4, init_scale=2.0, seed=7)
        rng = np.random.default_rng(7)
        draws = [
            rng.normal(scale=2.0 * 0.5**level, size=(hierarchy.level_size(level), 4))
            for level in range(hierarchy.num_levels)
        ]
        draws = [draw.astype(np.float32) for draw in draws]
        assert hm.block.dtype == HierarchicalRNE.PARAM_DTYPE == np.float32
        assert hm.block.tobytes() == np.concatenate(draws).tobytes()
        for view, draw in zip(hm.locals, draws):
            assert view.base is hm.block
            np.testing.assert_array_equal(view, draw)


class TestBlock:
    def test_locals_are_read_only_views(self, hmodel):
        with pytest.raises(TypeError):
            hmodel.locals[0] = np.zeros_like(hmodel.locals[0])
        with pytest.raises(ValueError):
            hmodel.locals[0][0] = 1.0
        assert hmodel.block.flags.writeable

    def test_locals_follow_a_rebound_block(self, hmodel):
        hmodel.block = hmodel.block + 1.0
        for level, view in enumerate(hmodel.locals):
            assert view.base is hmodel.block
            rows = slice(hmodel.offsets[level], hmodel.offsets[level + 1])
            np.testing.assert_array_equal(view, hmodel.block[rows])

    def test_block_rows_offset_ancestor_rows(self, hmodel, hierarchy):
        np.testing.assert_array_equal(
            hmodel.block_rows, hierarchy.anc_rows + hmodel.offsets[:-1]
        )
        assert hmodel.offsets[-1] == hmodel.block.shape[0]

    def test_flat_block_is_the_matrix(self, rng):
        matrix = rng.normal(size=(9, 3))
        flat = HierarchicalRNE.flat(matrix)
        assert flat.block is matrix
        assert flat.num_levels == 1 and flat.hierarchy is None
        np.testing.assert_array_equal(flat.global_matrix(), matrix)


class TestClone:
    def test_clone_independent(self, hmodel):
        clone = hmodel.clone()
        clone.block[:] = 0.0
        assert not np.allclose(hmodel.block, 0.0)

    def test_clone_shares_hierarchy(self, hmodel):
        clone = hmodel.clone()
        assert clone.hierarchy is hmodel.hierarchy

    def test_clone_same_queries(self, hmodel):
        clone = hmodel.clone()
        assert clone.query(1, 7) == pytest.approx(hmodel.query(1, 7))
