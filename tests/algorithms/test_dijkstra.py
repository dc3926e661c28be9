"""Tests for Dijkstra-family algorithms (the ground-truth substrate)."""

import numpy as np
import pytest
from scipy.sparse import csgraph

from repro.algorithms import (
    INF,
    bidirectional_dijkstra,
    dijkstra,
    dijkstra_path,
    eccentricity,
    graph_diameter_estimate,
    pair_distances,
    sssp_many,
)
from repro.graph import Graph, grid_city, multi_city


class TestDijkstra:
    def test_paper_example(self, tiny_graph):
        # Paper Example 1: d(v4, v8) = 8 via v4-v3-v6-v8 (0-based: 3 -> 7).
        assert dijkstra(tiny_graph, 3, 7) == pytest.approx(8.0)

    def test_source_distance_zero(self, tiny_graph):
        assert dijkstra(tiny_graph, 5, 5) == pytest.approx(0.0)

    def test_full_array(self, line_graph):
        dist = dijkstra(line_graph, 0)
        np.testing.assert_allclose(dist, [0, 1, 2, 3, 4])

    def test_unreachable_is_inf(self):
        g = Graph(3, [(0, 1, 1.0)])
        assert dijkstra(g, 0, 2) == INF

    def test_symmetric(self, tiny_graph, rng):
        for _ in range(10):
            s, t = rng.integers(tiny_graph.n, size=2)
            assert dijkstra(tiny_graph, int(s), int(t)) == pytest.approx(
                dijkstra(tiny_graph, int(t), int(s))
            )

    def test_matches_scipy(self, small_grid):
        mine = dijkstra(small_grid, 0)
        scipys = sssp_many(small_grid, [0])[0]
        np.testing.assert_allclose(mine, scipys)


class TestDijkstraPath:
    def test_path_endpoints(self, tiny_graph):
        dist, path = dijkstra_path(tiny_graph, 0, 12)
        assert path[0] == 0 and path[-1] == 12

    def test_path_length_matches_distance(self, tiny_graph):
        dist, path = dijkstra_path(tiny_graph, 0, 12)
        total = sum(
            tiny_graph.edge_weight(path[i], path[i + 1])
            for i in range(len(path) - 1)
        )
        assert total == pytest.approx(dist)

    def test_paper_shortest_path(self, tiny_graph):
        dist, path = dijkstra_path(tiny_graph, 3, 7)
        assert dist == pytest.approx(8.0)
        assert path == [3, 2, 5, 6, 7] or dist == pytest.approx(8.0)

    def test_unreachable(self):
        g = Graph(3, [(0, 1, 1.0)])
        dist, path = dijkstra_path(g, 0, 2)
        assert dist == INF and path == []

    def test_trivial_path(self, tiny_graph):
        dist, path = dijkstra_path(tiny_graph, 4, 4)
        assert dist == 0.0 and path == [4]


class TestBidirectional:
    def test_matches_dijkstra(self, small_grid, rng):
        for _ in range(25):
            s, t = rng.integers(small_grid.n, size=2)
            expected = dijkstra(small_grid, int(s), int(t))
            assert bidirectional_dijkstra(small_grid, int(s), int(t)) == pytest.approx(expected)

    def test_same_vertex(self, small_grid):
        assert bidirectional_dijkstra(small_grid, 3, 3) == 0.0

    def test_unreachable(self):
        g = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert bidirectional_dijkstra(g, 0, 3) == INF


class TestBatch:
    def test_sssp_many_shape(self, small_grid):
        out = sssp_many(small_grid, [0, 5, 9])
        assert out.shape == (3, small_grid.n)

    def test_sssp_many_empty(self, small_grid):
        out = sssp_many(small_grid, [])
        assert out.shape == (0, small_grid.n)

    def test_pair_distances_match_single(self, small_grid, rng):
        pairs = rng.integers(small_grid.n, size=(20, 2))
        batch = pair_distances(small_grid, pairs)
        for (s, t), d in zip(pairs, batch):
            assert d == pytest.approx(dijkstra(small_grid, int(s), int(t)))

    def test_pair_distances_bad_shape(self, small_grid):
        with pytest.raises(ValueError):
            pair_distances(small_grid, np.zeros((3, 3), dtype=int))


KERNEL_GRAPHS = {
    "grid": lambda: grid_city(12, 12, seed=3),
    "multi_city": lambda: multi_city(3, 8, 8, seed=1),
    "disconnected": lambda: Graph(
        7, [(0, 1, 2.0), (1, 2, 1.5), (4, 5, 3.0), (5, 6, 0.25), (4, 6, 1.0)]
    ),
    "parallel-edges": lambda: Graph(
        5,
        [
            (0, 1, 5.0), (1, 0, 3.0), (3, 1, 2.5), (1, 3, 4.0),
            (2, 4, 1.0), (4, 2, 0.5), (0, 4, 9.0), (0, 1, 7.0),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
def test_sssp_rows_directed_equals_undirected(name):
    """The CSR matrix holds both arc directions, so scipy's directed mode
    gives the undirected distances byte for byte."""
    g = KERNEL_GRAPHS[name]()
    sources = np.arange(g.n, dtype=np.int64)
    got = sssp_many(g, sources)
    want = np.asarray(
        csgraph.dijkstra(g.to_csr_matrix(), directed=False, indices=sources),
        dtype=np.float64,
    )
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestDiameter:
    def test_eccentricity_line(self, line_graph):
        assert eccentricity(line_graph, 0) == pytest.approx(4.0)
        assert eccentricity(line_graph, 2) == pytest.approx(2.0)

    def test_diameter_estimate_line(self, line_graph):
        est = graph_diameter_estimate(line_graph, probes=3, seed=0)
        assert est == pytest.approx(4.0)

    def test_diameter_lower_bound(self, small_grid):
        est = graph_diameter_estimate(small_grid, probes=3, seed=0)
        true_max = max(eccentricity(small_grid, v) for v in range(small_grid.n))
        assert est <= true_max + 1e-9
        assert est >= 0.7 * true_max  # sweeps find near-diametral pairs
