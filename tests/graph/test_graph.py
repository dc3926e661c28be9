"""Unit tests for the CSR graph core."""

import numpy as np
import pytest

from repro.graph import Edge, Graph, GraphError, grid_city, multi_city


class TestConstruction:
    def test_basic_counts(self, tiny_graph):
        assert tiny_graph.n == 13
        assert tiny_graph.m == 15

    def test_zero_vertices_rejected(self):
        with pytest.raises(GraphError):
            Graph(0, [])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            Graph(-3, [])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 2, 1.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(1, 1, 1.0)])

    def test_zero_weight_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1, 0.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1, -2.0)])

    def test_nan_weight_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1, float("nan"))])

    def test_inf_weight_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1, float("inf"))])

    def test_parallel_edges_collapse_to_min(self):
        g = Graph(2, [(0, 1, 5.0), (1, 0, 3.0), (0, 1, 7.0)])
        assert g.m == 1
        assert g.edge_weight(0, 1) == 3.0

    def test_coords_shape_validated(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1, 1.0)], coords=np.zeros((2, 2)))

    def test_isolated_vertices_allowed(self):
        g = Graph(4, [(0, 1, 1.0)])
        assert g.degree(2) == 0
        assert g.degree(3) == 0

    def test_edges_must_be_triples(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 2), (2, 0)])

    def test_array_edges_match_tuple_edges(self):
        triples = [(2, 0, 1.5), (0, 1, 2.0), (1, 2, 0.5), (1, 0, 1.0)]
        a = Graph(3, triples)
        b = Graph(3, np.array(triples))
        for x, y in zip(a.csr_arrays(), b.csr_arrays()):
            np.testing.assert_array_equal(x, y)


class TestErrorMessages:
    """With several bad edges, the error names the first in input order."""

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1, 1.0), (1, 1, 2.0), (0, 5, 1.0), (0, 2, -1.0)],
             "self-loop at vertex 1 is not allowed"),
            ([(0, 1, 1.0), (0, 9, 1.0), (1, 1, 2.0)],
             "edge (0, 9) out of range for n=3"),
            ([(0, 2, -1.0), (0, 9, 1.0), (2, 2, 1.0)],
             "edge (0, 2) has non-positive weight -1.0"),
            ([(0, 1, 1.0), (1, 2, float("nan")), (0, 0, 1.0)],
             "edge (1, 2) has non-positive weight nan"),
            ([(0, 1, float("inf")), (-1, 2, 1.0)],
             "edge (0, 1) has non-positive weight inf"),
            ([(0, 1, 1.0), (-1, 2, 1.0), (0, 1, 0.0)],
             "edge (-1, 2) out of range for n=3"),
            # Range is checked before the self-loop and the weight.
            ([(4, 4, -1.0)], "edge (4, 4) out of range for n=3"),
            ([(2, 2, 0.0)], "self-loop at vertex 2 is not allowed"),
        ],
    )
    def test_first_offending_edge_named(self, edges, message):
        with pytest.raises(GraphError) as info:
            Graph(3, edges)
        assert str(info.value) == message


class TestAccessors:
    def test_neighbors_symmetric(self, tiny_graph):
        for e in tiny_graph.edges():
            assert e.v in tiny_graph.neighbors(e.u)
            assert e.u in tiny_graph.neighbors(e.v)

    def test_neighbor_weights_aligned(self, tiny_graph):
        nbrs = tiny_graph.neighbors(7)
        wgts = tiny_graph.neighbor_weights(7)
        assert len(nbrs) == len(wgts)
        lookup = dict(zip(nbrs.tolist(), wgts.tolist()))
        assert lookup[8] == 2.0
        assert lookup[9] == 4.0

    def test_degree_matches_neighbors(self, tiny_graph):
        for v in range(tiny_graph.n):
            assert tiny_graph.degree(v) == len(tiny_graph.neighbors(v))

    def test_degrees_array(self, tiny_graph):
        degs = tiny_graph.degrees()
        assert degs.sum() == 2 * tiny_graph.m
        assert degs[7] == 4  # v8 in the paper's figure has four roads

    def test_edges_iterates_once_per_edge(self, tiny_graph):
        edges = list(tiny_graph.edges())
        assert len(edges) == tiny_graph.m
        assert all(isinstance(e, Edge) for e in edges)

    def test_edge_array_shapes(self, tiny_graph):
        us, vs, ws = tiny_graph.edge_array()
        assert len(us) == len(vs) == len(ws) == tiny_graph.m
        assert (ws > 0).all()

    def test_edge_array_empty_graph(self):
        g = Graph(3, [])
        us, vs, ws = g.edge_array()
        assert us.size == vs.size == ws.size == 0

    def test_edge_array_sorted_upper_triangle(self):
        g = Graph(4, [(3, 0, 1.0), (2, 1, 2.0), (0, 1, 3.0), (1, 3, 4.0)])
        us, vs, ws = g.edge_array()
        assert list(zip(us.tolist(), vs.tolist(), ws.tolist())) == [
            (0, 1, 3.0), (0, 3, 1.0), (1, 2, 2.0), (1, 3, 4.0)
        ]
        assert [tuple(vars(e).values()) for e in g.edges()] == [
            (0, 1, 3.0), (0, 3, 1.0), (1, 2, 2.0), (1, 3, 4.0)
        ]

    def test_edge_array_is_a_fresh_copy(self, tiny_graph):
        us, vs, ws = tiny_graph.edge_array()
        us[:] = 0
        ws *= 10.0
        us2, _, ws2 = tiny_graph.edge_array()
        assert us2[-1] == 10
        assert tiny_graph.edge_weight(0, 1) == 3.0
        assert ws2[0] == 3.0

    def test_has_edge(self, tiny_graph):
        assert tiny_graph.has_edge(0, 1)
        assert tiny_graph.has_edge(1, 0)
        assert not tiny_graph.has_edge(0, 12)

    def test_edge_weight_missing_raises(self, tiny_graph):
        with pytest.raises(KeyError):
            tiny_graph.edge_weight(0, 12)

    def test_total_weight(self, line_graph):
        assert line_graph.total_weight() == pytest.approx(4.0)


class TestConversions:
    def test_csr_matrix_symmetric(self, tiny_graph):
        m = tiny_graph.to_csr_matrix()
        assert (m != m.T).nnz == 0

    def test_csr_matrix_weights(self, tiny_graph):
        m = tiny_graph.to_csr_matrix()
        assert m[0, 1] == 3.0
        assert m[1, 0] == 3.0

    def test_networkx_roundtrip(self, tiny_graph):
        nx_g = tiny_graph.to_networkx()
        back = Graph.from_networkx(nx_g)
        assert back.n == tiny_graph.n
        assert back.m == tiny_graph.m
        assert back.edge_weight(0, 2) == tiny_graph.edge_weight(0, 2)
        np.testing.assert_allclose(back.coords, tiny_graph.coords)

    def test_subgraph_relabels(self, tiny_graph):
        sub, mapping = tiny_graph.subgraph([0, 1, 2, 3])
        assert sub.n == 4
        # Edges among {0,1,2,3}: (0,1), (0,2), (1,3), (2,3).
        assert sub.m == 4
        np.testing.assert_array_equal(mapping, [0, 1, 2, 3])

    def test_subgraph_keeps_coords(self, tiny_graph):
        sub, mapping = tiny_graph.subgraph([5, 7, 9])
        np.testing.assert_allclose(sub.coords, tiny_graph.coords[[5, 7, 9]])

    def test_subgraph_duplicate_rejected(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.subgraph([1, 1])

    def test_subgraph_empty_rejected(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.subgraph([])

    def test_subgraph_negative_id_rejected(self, tiny_graph):
        with pytest.raises(GraphError, match="out of range"):
            tiny_graph.subgraph([0, 1, -1])

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_subgraph_out_of_range_rejected_without_coords(self, bad):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(GraphError, match="out of range"):
            g.subgraph([0, 1, bad])

    def test_subgraph_unsorted_order(self, tiny_graph):
        sub, mapping = tiny_graph.subgraph([3, 0, 2, 1])
        np.testing.assert_array_equal(mapping, [3, 0, 2, 1])
        assert sub.m == 4
        for u, v, w in zip(*sub.edge_array()):
            assert w == tiny_graph.edge_weight(int(mapping[u]), int(mapping[v]))


SUBGRAPH_SOURCES = {
    "grid": lambda: grid_city(10, 10, seed=2),
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


@pytest.mark.parametrize("name", sorted(SUBGRAPH_SOURCES))
def test_subgraph_matches_constructor(name):
    """``subgraph`` builds its CSR directly; it must equal the constructor
    run on the induced edges, array for array and byte for byte."""
    g = SUBGRAPH_SOURCES[name]()
    rng = np.random.default_rng(4)
    selections = [np.arange(g.n), np.arange(g.n)[::-1], np.array([g.n - 1])]
    selections += [
        rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False)
        for _ in range(20)
    ]
    for vertices in selections:
        sub, mapping = g.subgraph(vertices)
        local = {int(v): i for i, v in enumerate(vertices)}
        induced = [
            (local[u], local[v], w)
            for u, v, w in zip(*(a.tolist() for a in g.edge_array()))
            if u in local and v in local
        ]
        coords = g.coords[vertices] if g.coords is not None else None
        ref = Graph(len(vertices), induced, coords=coords)
        np.testing.assert_array_equal(mapping, vertices)
        for got, want in [
            *zip(sub.csr_arrays(), ref.csr_arrays()),
            *zip(sub.edge_array(), ref.edge_array()),
        ]:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert sub.n == ref.n and sub.m == ref.m
        if coords is None:
            assert sub.coords is None
        else:
            assert sub.coords.tobytes() == coords.tobytes()


class TestStructure:
    def test_connected(self, tiny_graph):
        assert tiny_graph.is_connected()

    def test_disconnected_components(self):
        g = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        labels = g.connected_components()
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]
        assert not g.is_connected()

    def test_largest_component(self):
        g = Graph(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
        sub, mapping = g.largest_component()
        assert sub.n == 3
        np.testing.assert_array_equal(mapping, [0, 1, 2])
