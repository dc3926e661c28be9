"""Tests for incremental updates after edge-weight changes."""

import numpy as np
import pytest

from repro.core import RNEConfig, build_rne
from repro.core.update import affected_region, update_rne
from repro.graph import Graph, grid_city


@pytest.fixture(scope="module")
def trained():
    graph = grid_city(14, 14, seed=7)
    config = RNEConfig(
        d=16, lr=0.05, hier_samples_per_level=3000, hier_epochs=3,
        vertex_samples=10_000, vertex_epochs=8, num_landmarks=24,
        joint_epochs=2, joint_samples=5000,
        finetune_rounds=2, finetune_samples=2000, validation_size=500, seed=0,
    )
    return graph, build_rne(graph, config)


def _perturb(graph: Graph, factor: float, count: int, seed: int = 0):
    """Scale the weight of ``count`` random edges by ``factor``."""
    rng = np.random.default_rng(seed)
    edges = list(graph.edges())
    picks = rng.choice(len(edges), size=count, replace=False)
    changed = []
    new_edges = []
    for i, e in enumerate(edges):
        w = e.weight * factor if i in set(picks.tolist()) else e.weight
        new_edges.append((e.u, e.v, w))
        if i in set(picks.tolist()):
            changed.append((e.u, e.v))
    return Graph(graph.n, new_edges, coords=graph.coords), np.array(changed)


class TestAffectedRegion:
    def test_contains_endpoints(self, trained):
        graph, _ = trained
        region = affected_region(graph, np.array([[0, 1]]), hops=0)
        assert set(region.tolist()) == {0, 1}

    def test_grows_with_hops(self, trained):
        graph, _ = trained
        r0 = affected_region(graph, np.array([[0, 1]]), hops=0)
        r2 = affected_region(graph, np.array([[0, 1]]), hops=2)
        assert r2.size > r0.size
        assert set(r0.tolist()) <= set(r2.tolist())


class TestUpdate:
    def test_recovers_after_perturbation(self, trained):
        graph, rne = trained
        new_graph, changed = _perturb(graph, factor=4.0, count=12, seed=1)
        hmodel = _vertex_view_of(rne)
        before = hmodel.block
        result = update_rne(
            hmodel, new_graph, changed, samples=4000, rounds=4, seed=0
        )
        assert result.affected_vertices > 0
        assert result.error_after <= result.error_before + 1e-9
        # The publish rebinds the block; its frozen coarse rows are the old
        # ones and ``changed_rows`` are exactly the moved vertex rows.
        assert result.published and hmodel.block is not before
        coarse = hmodel.offsets[-2]
        np.testing.assert_array_equal(hmodel.block[:coarse], before[:coarse])
        moved = np.any(hmodel.block[coarse:] != before[coarse:], axis=1)
        np.testing.assert_array_equal(result.changed_rows, np.flatnonzero(moved))

    def test_rejects_mismatched_graph(self, trained):
        graph, rne = trained
        from repro.core.hierarchical import HierarchicalRNE

        hmodel = HierarchicalRNE(rne.hierarchy, 4, seed=0)
        small = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValueError):
            update_rne(hmodel, small, np.array([[0, 1]]))

    def test_noop_when_nothing_changed(self, trained):
        """Updating against the same graph must never hurt (keep-best)."""
        graph, rne = trained
        hmodel = _vertex_view_of(rne)
        result = update_rne(
            hmodel, graph, np.array([[0, 1]]), samples=1000, rounds=2, seed=0
        )
        assert result.error_after <= result.error_before * 1.05


def _vertex_view_of(rne):
    """Trainable hierarchical view over the trained global matrix: zero
    coarse levels and the matrix as the vertex level, an equivalent
    parameterisation of the same model."""
    from repro.core.hierarchical import HierarchicalRNE

    hmodel = HierarchicalRNE(rne.hierarchy, rne.model.d, seed=0)
    hmodel.block[: hmodel.offsets[-2]] = 0.0
    hmodel.block[hmodel.offsets[-2] :] = rne.model.matrix
    return hmodel


class TestVectorisedRegion:
    def test_matches_set_based_reference(self, trained):
        graph, _ = trained
        rng = np.random.default_rng(3)
        edges = list(graph.edges())
        picks = rng.choice(len(edges), size=6, replace=False)
        changed = np.array([[edges[i].u, edges[i].v] for i in picks])
        adjacency = {v: set() for v in range(graph.n)}
        for e in edges:
            adjacency[e.u].add(e.v)
            adjacency[e.v].add(e.u)
        for hops in (0, 1, 2, 3):
            frontier = set(changed.ravel().tolist())
            seen = set(frontier)
            for _ in range(hops):
                frontier = {
                    nbr for v in frontier for nbr in adjacency[v]
                } - seen
                seen |= frontier
            region = affected_region(graph, changed, hops=hops)
            assert region.tolist() == sorted(seen)
            assert region.dtype == np.int64

    def test_duplicate_changed_edges_are_harmless(self, trained):
        graph, _ = trained
        once = affected_region(graph, np.array([[0, 1]]), hops=2)
        twice = affected_region(graph, np.array([[0, 1], [1, 0], [0, 1]]), hops=2)
        assert np.array_equal(once, twice)


class TestSamplingBudget:
    def test_rounds_hit_exact_sample_counts(self, trained):
        graph, rne = trained
        new_graph, changed = _perturb(graph, factor=4.0, count=8, seed=2)
        result = update_rne(
            _vertex_view_of(rne), new_graph, changed,
            samples=700, rounds=3, validation_size=200, seed=1,
        )
        assert result.rounds_run == 3
        assert result.samples_per_round == [700, 700, 700]


class TestSeedThreading:
    def test_same_seed_bit_identical(self, trained):
        graph, rne = trained
        new_graph, changed = _perturb(graph, factor=4.0, count=8, seed=2)
        results = [
            update_rne(
                _vertex_view_of(rne), new_graph, changed,
                samples=800, rounds=2, validation_size=200, seed=5,
            )
            for _ in range(2)
        ]
        assert results[0].round_errors == results[1].round_errors
        assert results[0].error_before == results[1].error_before

    def test_different_seeds_differ(self, trained):
        """The validation RNG derives from ``seed`` (no hard-coded stream):
        different seeds must produce different validation sets and hence
        different measured errors."""
        graph, rne = trained
        new_graph, changed = _perturb(graph, factor=4.0, count=8, seed=2)
        errs = {
            update_rne(
                _vertex_view_of(rne), new_graph, changed,
                samples=800, rounds=1, validation_size=200, seed=s,
            ).error_before
            for s in (0, 1, 2)
        }
        assert len(errs) == 3
