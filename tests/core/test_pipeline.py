"""End-to-end tests for the RNE construction pipeline (Algorithm 1)."""

import numpy as np
import pytest

from repro.algorithms import pair_distances
from repro.core import RNEConfig, build_rne
from repro.graph import Graph, grid_city


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


@pytest.fixture(scope="module")
def rne(medium_grid):
    return build_rne(medium_grid, FAST)


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
        assert rne.index_bytes() >= medium_grid.n * 16 * 8


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
