"""Tests for the partition hierarchy (the hierarchical RNE's backbone)."""

import numpy as np
import pytest

from repro.graph import Graph, PartitionHierarchy, grid_city


class TestConstruction:
    def test_validate_passes(self, small_grid):
        h = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        h.validate()

    def test_level_count(self):
        g = grid_city(16, 16, seed=0)  # ~256 vertices
        h = PartitionHierarchy(g, fanout=4, leaf_size=16, seed=0)
        # ceil(log4(256/16)) = 2 sub-graph levels + vertex level.
        assert h.num_subgraph_levels == 2
        assert h.num_levels == 3

    def test_vertex_level_rows_are_ids(self, small_grid):
        h = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        last = h.num_subgraph_levels
        np.testing.assert_array_equal(
            h.anc_rows[:, last], np.arange(small_grid.n)
        )

    def test_anc_rows_shape(self, small_grid):
        h = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        assert h.anc_rows.shape == (small_grid.n, h.num_levels)

    def test_levels_cover_all_vertices(self, small_grid):
        h = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        for level in range(h.num_levels):
            total = sum(len(c) for c in h.cells(level))
            assert total == small_grid.n

    def test_fanout_bounds_children(self, small_grid):
        h = PartitionHierarchy(small_grid, fanout=3, leaf_size=8, seed=0)
        for node in h.nodes:
            if node.level < h.num_subgraph_levels - 1:
                assert len(node.children) <= 3

    def test_max_levels_cap(self, small_grid):
        h = PartitionHierarchy(
            small_grid, fanout=2, leaf_size=2, max_levels=2, seed=0
        )
        assert h.num_subgraph_levels == 2

    def test_tiny_graph_single_level(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        h = PartitionHierarchy(g, fanout=4, leaf_size=8, seed=0)
        h.validate()
        assert h.num_subgraph_levels == 1

    def test_invalid_fanout(self, small_grid):
        with pytest.raises(ValueError):
            PartitionHierarchy(small_grid, fanout=1)

    def test_invalid_leaf_size(self, small_grid):
        with pytest.raises(ValueError):
            PartitionHierarchy(small_grid, leaf_size=0)


class TestStructure:
    def test_parent_child_consistency(self, small_grid):
        h = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        for node in h.nodes:
            for child_id in node.children:
                assert h.nodes[child_id].parent == node.id

    def test_ancestor_chain_matches_anc_rows(self, small_grid):
        h = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        depth = h.num_subgraph_levels
        for v in range(0, small_grid.n, 7):
            node = h.nodes[h.levels[depth][v]]
            level = depth
            while node is not None:
                assert h.anc_rows[v, level] == node.row
                node = h.nodes[node.parent] if node.parent is not None else None
                level -= 1

    def test_vertex_labels_match_cells(self, small_grid):
        h = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        labels = h.vertex_labels(0)
        for row, cell in enumerate(h.cells(0)):
            assert (labels[cell] == row).all()

    def test_deterministic(self, small_grid):
        a = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=5)
        b = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=5)
        np.testing.assert_array_equal(a.anc_rows, b.anc_rows)

    def test_cells_shrink_down_levels(self):
        g = grid_city(16, 16, seed=1)
        h = PartitionHierarchy(g, fanout=4, leaf_size=16, seed=0)
        for level in range(h.num_subgraph_levels - 1):
            mean_upper = np.mean([c.size for c in h.cells(level)])
            mean_lower = np.mean([c.size for c in h.cells(level + 1)])
            assert mean_lower < mean_upper

    def test_root_ids_are_level0(self, small_grid):
        h = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        assert h.root_ids() == h.levels[0]
        for node_id in h.root_ids():
            assert h.nodes[node_id].parent is None


def _non_nested_rows(h: PartitionHierarchy) -> np.ndarray:
    """``h.anc_rows`` with one vertex of a level-1 cell moved to another
    level-0 cell, keeping every level's rows contiguous."""
    rows = h.anc_rows.copy()
    cell = next(c for c in h.cells(1) if c.size >= 2)
    v = int(cell[-1])
    rows[v, 0] = (rows[v, 0] + 1) % h.level_size(0)
    return rows


class TestFromAncestorRows:
    @pytest.mark.parametrize(
        "kwargs", [dict(fanout=4, leaf_size=8, seed=0), dict(fanout=3, leaf_size=4, seed=2)]
    )
    def test_nodes_identical_to_built_tree(self, small_grid, kwargs):
        built = PartitionHierarchy(small_grid, **kwargs)
        revived = PartitionHierarchy.from_ancestor_rows(small_grid, built.anc_rows)
        assert revived.levels == built.levels
        assert len(revived.nodes) == len(built.nodes)
        for a, b in zip(revived.nodes, built.nodes):
            assert (a.id, a.level, a.row, a.parent, a.children) == (
                b.id, b.level, b.row, b.parent, b.children
            )
            np.testing.assert_array_equal(a.vertices, b.vertices)
        np.testing.assert_array_equal(revived.anc_rows, built.anc_rows)

    def test_single_level(self, line_graph):
        rows = np.column_stack([np.zeros(5, dtype=int), np.arange(5)])
        h = PartitionHierarchy.from_ancestor_rows(line_graph, rows)
        h.validate()
        assert h.level_sizes() == [1, 5]
        assert h.nodes[0].children == list(range(1, 6))

    def test_non_nested_rows_rejected(self, small_grid):
        h = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        assert h.num_subgraph_levels >= 2
        with pytest.raises(ValueError, match="not nested"):
            PartitionHierarchy.from_ancestor_rows(small_grid, _non_nested_rows(h))

    def test_gap_in_rows_rejected(self, small_grid):
        h = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        rows = h.anc_rows.copy()
        rows[:, 0] *= 2
        with pytest.raises(ValueError, match="not contiguous"):
            PartitionHierarchy.from_ancestor_rows(small_grid, rows)
