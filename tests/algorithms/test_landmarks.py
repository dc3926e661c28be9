"""Tests for landmark selection and the LT estimator."""

import numpy as np
import pytest

from repro.algorithms import LTEstimator, pair_distances, select_landmarks
from repro.core import DistanceLabeler, landmark_samples
from repro.graph import Graph


class TestSelection:
    @pytest.mark.parametrize("strategy", ["farthest", "random", "degree"])
    def test_count_and_uniqueness(self, small_grid, strategy):
        lm = select_landmarks(small_grid, 8, strategy=strategy, seed=0)
        assert lm.size == 8
        assert np.unique(lm).size == 8

    def test_invalid_k(self, small_grid):
        with pytest.raises(ValueError):
            select_landmarks(small_grid, 0)
        with pytest.raises(ValueError):
            select_landmarks(small_grid, small_grid.n + 1)

    def test_unknown_strategy(self, small_grid):
        with pytest.raises(ValueError):
            select_landmarks(small_grid, 4, strategy="nope")

    def test_degree_picks_high_degree(self, small_grid):
        lm = select_landmarks(small_grid, 4, strategy="degree")
        degs = small_grid.degrees()
        assert degs[lm].min() >= np.sort(degs)[-8]

    def test_farthest_spreads(self, line_graph):
        lm = select_landmarks(line_graph, 2, strategy="farthest", seed=0)
        # On a path, the second landmark must be an endpoint far from first.
        assert abs(int(lm[0]) - int(lm[1])) >= 2

    def test_farthest_all_vertices(self, line_graph):
        lm = select_landmarks(line_graph, 5, strategy="farthest", seed=0)
        assert sorted(lm.tolist()) == [0, 1, 2, 3, 4]

    def test_deterministic(self, small_grid):
        a = select_landmarks(small_grid, 6, seed=9)
        b = select_landmarks(small_grid, 6, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_farthest_rows_through_labeler_cache(self, small_grid, rng):
        """Rows fetched through a labeler pick the same landmarks, one SSSP
        each, and the landmark samples that follow reuse them."""
        labeler = DistanceLabeler(small_grid)
        lm = select_landmarks(small_grid, 10, seed=9, sssp_row=labeler.row)
        np.testing.assert_array_equal(lm, select_landmarks(small_grid, 10, seed=9))
        assert labeler.sssp_runs == 10
        landmark_samples(small_grid, lm, 500, labeler, rng)
        assert labeler.sssp_runs == 10


class TestLTEstimator:
    @pytest.fixture(scope="class")
    def lt(self, small_grid):
        return LTEstimator(small_grid, 12, seed=0)

    @pytest.mark.parametrize("strategy", ["farthest", "random"])
    def test_one_sssp_per_landmark(self, small_grid, monkeypatch, strategy):
        import repro.algorithms.landmarks as landmarks

        runs = []
        real = landmarks.sssp_many
        monkeypatch.setattr(
            landmarks, "sssp_many", lambda g, s: runs.append(len(s)) or real(g, s)
        )
        est = LTEstimator(small_grid, 8, strategy=strategy, seed=0)
        assert sum(runs) == 8
        np.testing.assert_array_equal(est.table, real(small_grid, est.landmarks))

    def test_table_shape(self, lt, small_grid):
        assert lt.table.shape == (12, small_grid.n)
        assert lt.num_landmarks == 12

    def test_lower_bound_admissible(self, lt, small_grid, rng):
        pairs = rng.integers(small_grid.n, size=(40, 2))
        truth = pair_distances(small_grid, pairs)
        est = lt.estimate_pairs(pairs)
        assert (est <= truth + 1e-9).all()

    def test_upper_bound_valid(self, lt, small_grid, rng):
        pairs = rng.integers(small_grid.n, size=(40, 2))
        truth = pair_distances(small_grid, pairs)
        for (s, t), d in zip(pairs, truth):
            assert lt.upper_bound(int(s), int(t)) >= d - 1e-9

    def test_landmark_pairs_exact(self, lt, small_grid):
        # For a pair (landmark, v) the triangle bound is tight.
        lm = int(lt.landmarks[0])
        for v in range(0, small_grid.n, 5):
            assert lt.estimate(lm, v) == pytest.approx(float(lt.table[0, v]))

    def test_scalar_matches_batch(self, lt, rng, small_grid):
        pairs = rng.integers(small_grid.n, size=(10, 2))
        batch = lt.estimate_pairs(pairs)
        singles = [lt.estimate(int(s), int(t)) for s, t in pairs]
        np.testing.assert_allclose(batch, singles)

    def test_heuristic_admissible(self, lt, small_grid):
        t = 7
        h = lt.heuristic_to(t)
        dist = pair_distances(
            small_grid, np.column_stack([np.arange(small_grid.n), np.full(small_grid.n, t)])
        )
        assert (h <= dist + 1e-9).all()

    def test_index_bytes_positive(self, lt):
        assert lt.index_bytes() == lt.table.nbytes

    def test_more_landmarks_tighter(self, small_grid, rng):
        pairs = rng.integers(small_grid.n, size=(60, 2))
        lt4 = LTEstimator(small_grid, 4, seed=1)
        lt16 = LTEstimator(small_grid, 16, seed=1)
        # Lower bounds only tighten with extra landmarks (on average).
        assert lt16.estimate_pairs(pairs).mean() >= lt4.estimate_pairs(pairs).mean() - 1e-9

    def test_disconnected_graph(self):
        g = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        lt = LTEstimator(g, 2, strategy="random", seed=0)
        assert lt.table.shape == (2, 4)
