"""Tests for the multilevel partitioner."""

import numpy as np
import pytest

from repro.graph import Graph, balance, bisect, cut_weight, grid_city, partition_kway


class TestBisect:
    def test_two_sides_present(self, small_grid):
        side = bisect(small_grid, seed=0)
        assert set(np.unique(side)) == {0, 1}

    def test_roughly_balanced(self, small_grid):
        side = bisect(small_grid, seed=0)
        frac = side.mean()
        assert 0.3 <= frac <= 0.7

    def test_target_frac_respected(self):
        g = grid_city(12, 12, seed=1)
        side = bisect(g, target_frac=0.25, seed=0)
        frac0 = (side == 0).mean()
        assert 0.13 <= frac0 <= 0.38

    def test_single_vertex(self):
        g = Graph(1, [])
        side = bisect(g)
        assert side.tolist() == [0]

    def test_cut_is_small_on_grid(self):
        # A 12x12 grid has a ~12-edge minimum bisection; the multilevel
        # partitioner should land within a small factor of it.
        g = grid_city(12, 12, seed=5, removal=0.0, diagonal=0.0, jitter=0.0,
                      weight_noise=0.0)
        side = bisect(g, seed=0)
        us, vs, _ = g.edge_array()
        cut_edges = int((side[us] != side[vs]).sum())
        assert cut_edges <= 40

    def test_deterministic(self, small_grid):
        a = bisect(small_grid, seed=3)
        b = bisect(small_grid, seed=3)
        np.testing.assert_array_equal(a, b)


class TestKway:
    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_all_parts_nonempty(self, small_grid, k):
        labels = partition_kway(small_grid, k, seed=0)
        assert set(np.unique(labels)) == set(range(k))

    def test_k1_trivial(self, small_grid):
        labels = partition_kway(small_grid, 1)
        assert (labels == 0).all()

    def test_k_invalid(self, small_grid):
        with pytest.raises(ValueError):
            partition_kway(small_grid, 0)

    def test_balance_reasonable(self):
        g = grid_city(16, 16, seed=2)
        labels = partition_kway(g, 4, seed=0)
        assert balance(labels, 4) <= 1.5

    def test_k_exceeding_n(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        labels = partition_kway(g, 3, seed=0)
        assert set(np.unique(labels)) == {0, 1, 2}

    def test_cut_weight_matches_manual(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 5.0), (2, 3, 1.0)])
        labels = np.array([0, 0, 1, 1])
        assert cut_weight(g, labels) == pytest.approx(5.0)

    def test_partition_beats_random_cut(self):
        g = grid_city(14, 14, seed=9)
        rng = np.random.default_rng(1)
        smart = cut_weight(g, partition_kway(g, 4, seed=0))
        random_cut = cut_weight(g, rng.integers(4, size=g.n))
        assert smart < 0.5 * random_cut

    def test_disconnected_graph_handled(self):
        g = Graph(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
        labels = partition_kway(g, 2, seed=0)
        assert set(np.unique(labels)) == {0, 1}


# ----------------------------------------------------------------------
# Dict-of-dicts reference: the partitioner's kernels as plain loops over
# insertion-ordered adjacency dicts.  The array kernels must reproduce
# them exactly (same matches, same coarse rows and sums, same sides).
# ----------------------------------------------------------------------
def _dict_adj(wg):
    return [
        dict(zip(wg.adj[wg.indptr[u]:wg.indptr[u + 1]].tolist(),
                 wg.adjw[wg.indptr[u]:wg.indptr[u + 1]].tolist()))
        for u in range(wg.n)
    ]


def _ref_matching(adj, rng):
    match = np.full(len(adj), -1, dtype=np.int64)
    for u in rng.permutation(len(adj)):
        if match[u] != -1:
            continue
        best, best_w = -1, -1.0
        for v, w in adj[u].items():
            if match[v] == -1 and w > best_w:
                best, best_w = v, w
        match[u] = u if best == -1 else best
        if best != -1:
            match[best] = u
    return match


def _ref_contract(adj, match):
    f2c = np.full(len(adj), -1, dtype=np.int64)
    nxt = 0
    for u in range(len(adj)):
        if f2c[u] == -1:
            f2c[u] = f2c[match[u]] = nxt
            nxt += 1
    coarse = [dict() for _ in range(nxt)]
    for u in range(len(adj)):
        for v, w in adj[u].items():
            cu, cv = f2c[u], f2c[v]
            if cu != cv and u < v:
                coarse[cu][cv] = coarse[cu].get(cv, 0.0) + w
                coarse[cv][cu] = coarse[cv].get(cu, 0.0) + w
    return coarse, f2c


def _ref_refine(adj, vwgt, side, target_frac, passes=4, imbalance=0.1):
    total = float(vwgt.sum())
    low0 = target_frac * total * (1.0 - imbalance)
    high0 = target_frac * total * (1.0 + imbalance)
    weight0 = float(vwgt[side == 0].sum())
    for _ in range(passes):
        locked = np.zeros(len(adj), dtype=bool)
        moved_any = False
        while True:
            best_u, best_gain = -1, 0.0
            for u in range(len(adj)):
                if locked[u]:
                    continue
                internal = external = 0.0
                for v, w in adj[u].items():
                    if side[v] == side[u]:
                        internal += w
                    else:
                        external += w
                new_w0 = weight0 - vwgt[u] if side[u] == 0 else weight0 + vwgt[u]
                gain = external - internal
                if external != 0.0 and low0 <= new_w0 <= high0 and gain > best_gain:
                    best_u, best_gain = u, gain
            if best_u == -1:
                break
            weight0 += -vwgt[best_u] if side[best_u] == 0 else vwgt[best_u]
            side[best_u] = 1 - side[best_u]
            locked[best_u] = moved_any = True
        if not moved_any:
            break
    return side


def _tie_heavy_graphs():
    rng = np.random.default_rng(5)
    for i in range(12):
        n = int(rng.integers(20, 160))
        m = 4 * n
        u, v = rng.integers(0, n, m), rng.integers(0, n, m)
        w = rng.choice([0.1, 0.2, 0.3, 1.0 / 3.0, 1.0], m)
        keep = u != v
        yield Graph(n, zip(u[keep], v[keep], w[keep]))
    yield grid_city(14, 14, seed=3)


class TestArrayKernelsMatchDictReference:
    def test_matching_contract_and_refine(self):
        from repro.graph.partition import (
            _WeightedGraph,
            _contract,
            _heavy_edge_matching,
            _refine,
        )

        for g in _tie_heavy_graphs():
            wg = _WeightedGraph.from_graph(g)
            for _ in range(3):  # walk down the coarsening levels
                adj = _dict_adj(wg)
                match = _heavy_edge_matching(wg, np.random.default_rng(wg.n))
                np.testing.assert_array_equal(
                    match, _ref_matching(adj, np.random.default_rng(wg.n))
                )
                for frac in (0.5, 0.3):
                    side = (np.arange(wg.n) % 3 == 0).astype(np.int8)
                    expected = _ref_refine(adj, wg.vwgt, side.copy(), frac)
                    np.testing.assert_array_equal(_refine(wg, side, frac), expected)
                level = _contract(wg, match)
                coarse, f2c = _ref_contract(adj, match)
                np.testing.assert_array_equal(level.fine_to_coarse, f2c)
                got = _dict_adj(level.graph)
                assert [list(r.items()) for r in got] == [list(r.items()) for r in coarse]
                wg = level.graph
