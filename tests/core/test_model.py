"""Tests for the flat RNE model and Lp metric math."""

import numpy as np
import pytest

from repro.core import RNEModel, lp_distance, lp_gradient
from repro.core.model import _topk_rows


def _lexsort_topk(rows, ids, k):
    """Reference top-k: a full ``(distance, id)`` lexsort of every row."""
    # perf: loop-ok (test-only reference implementation)
    top = [ids[np.lexsort((ids, row))[:k]] for row in rows]
    return np.array(top, dtype=np.int64).reshape(rows.shape[0], -1)


def _tied_rows(rng, s, m):
    """Distances drawn from {0, 1, 2, 3}: most k-th places are ties."""
    rows = rng.integers(0, 4, size=(s, m)).astype(np.float64)
    ids = np.sort(rng.choice(10 * m, size=m, replace=False)).astype(np.int64)
    return rows, ids


class TestLpDistance:
    def test_l1(self):
        assert lp_distance(np.array([1.0, -2.0, 3.0]), 1.0) == pytest.approx(6.0)

    def test_l2(self):
        assert lp_distance(np.array([3.0, 4.0]), 2.0) == pytest.approx(5.0)

    def test_fractional_p(self):
        d = lp_distance(np.array([1.0, 1.0]), 0.5)
        assert d == pytest.approx((1 + 1) ** 2)  # (sum |x|^0.5)^(1/0.5)

    def test_batched(self):
        diffs = np.array([[1.0, 1.0], [2.0, -2.0]])
        np.testing.assert_allclose(lp_distance(diffs, 1.0), [2.0, 4.0])

    def test_invalid_p(self):
        for p in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                lp_distance(np.array([1.0]), p)

    def test_zero_vector(self):
        assert lp_distance(np.zeros(4), 1.0) == 0.0
        assert lp_distance(np.zeros(4), 3.0) == 0.0


class TestLpGradient:
    def test_l1_is_sign(self):
        g = lp_gradient(np.array([2.0, -3.0, 0.0]), 1.0)
        np.testing.assert_allclose(g, [1.0, -1.0, 0.0])

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_numerical_gradient(self, p):
        rng = np.random.default_rng(0)
        x = rng.normal(size=6) + 0.5  # keep away from the singularity at 0
        analytic = lp_gradient(x, p)
        eps = 1e-6
        for i in range(6):
            xp = x.copy()
            xp[i] += eps
            xm = x.copy()
            xm[i] -= eps
            num = (lp_distance(xp, p) - lp_distance(xm, p)) / (2 * eps)
            assert analytic[i] == pytest.approx(num, rel=1e-4)

    def test_batched_shape(self):
        g = lp_gradient(np.ones((5, 3)), 2.0)
        assert g.shape == (5, 3)


class TestRNEModel:
    @pytest.fixture()
    def model(self):
        matrix = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
        return RNEModel(matrix, p=1.0)

    def test_query(self, model):
        assert model.query(0, 1) == pytest.approx(3.0)
        assert model.query(1, 2) == pytest.approx(5.0)

    def test_query_symmetric(self, model):
        assert model.query(0, 2) == model.query(2, 0)

    def test_query_pairs(self, model):
        got = model.query_pairs(np.array([[0, 1], [1, 2], [0, 0]]))
        np.testing.assert_allclose(got, [3.0, 5.0, 0.0])

    def test_distances_from(self, model):
        np.testing.assert_allclose(model.distances_from(0), [0.0, 3.0, 4.0])

    def test_distances_from_targets(self, model):
        np.testing.assert_allclose(
            model.distances_from(0, np.array([2])), [4.0]
        )

    def test_knn_brute(self, model):
        got = model.knn_brute(0, np.array([1, 2]), 1)
        np.testing.assert_array_equal(got, [1])

    def test_triangle_inequality_l1(self):
        rng = np.random.default_rng(1)
        model = RNEModel(rng.normal(size=(10, 5)), p=1.0)
        for _ in range(30):
            a, b, c = rng.integers(10, size=3)
            assert model.query(a, c) <= model.query(a, b) + model.query(b, c) + 1e-9

    def test_random_factory(self):
        m = RNEModel.random(20, 8, seed=0)
        assert m.matrix.shape == (20, 8)
        assert m.n == 20 and m.d == 8

    def test_random_deterministic(self):
        a = RNEModel.random(5, 3, seed=4)
        b = RNEModel.random(5, 3, seed=4)
        np.testing.assert_allclose(a.matrix, b.matrix)

    def test_copy_is_independent(self, model):
        clone = model.copy()
        clone.matrix[0, 0] = 99.0
        assert model.matrix[0, 0] == 0.0

    def test_save_load(self, model, tmp_path):
        path = tmp_path / "m.npz"
        model.save(path)
        back = RNEModel.load(path)
        np.testing.assert_allclose(back.matrix, model.matrix)
        assert back.p == model.p

    def test_index_bytes(self, model):
        assert model.index_bytes() == model.matrix.nbytes

    def test_invalid_matrix(self):
        with pytest.raises(ValueError):
            RNEModel(np.zeros(3))

    def test_invalid_p(self):
        for p in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                RNEModel(np.zeros((2, 2)), p=p)


class TestTopkRows:
    """The shared top-k must equal a per-row full lexsort, ties included."""

    def _assert_matches(self, rows, ids, k):
        got = _topk_rows(rows, ids, k)
        want = _lexsort_topk(rows, ids, k)
        assert got.dtype == np.int64
        assert got.shape == want.shape == (rows.shape[0], min(k, ids.size))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 5, 12, 30])
    def test_heavy_ties(self, rng, k):
        rows, ids = _tied_rows(rng, 7, 12)
        self._assert_matches(rows, ids, k)  # 12 is k = m, 30 is k > m

    def test_single_row(self, rng):
        rows, ids = _tied_rows(rng, 1, 20)
        for k in (1, 3, 20, 25):
            self._assert_matches(rows, ids, k)

    def test_boundary_tie_breaks_towards_smaller_id(self):
        rows = np.array([[2.0, 1.0, 1.0, 1.0, 0.0]])
        ids = np.array([3, 9, 7, 8, 5], dtype=np.int64)
        np.testing.assert_array_equal(_topk_rows(rows, ids, 3), [[5, 7, 8]])

    def test_randomised_ties_nan_and_inf(self, rng):
        # perf: loop-ok (randomised differential trials)
        for trial in range(300):
            s, m = int(rng.integers(1, 6)), int(rng.integers(1, 30))
            rows, ids = _tied_rows(rng, s, m)
            if trial % 3 == 0:
                rows[rng.random(rows.shape) < 0.2] = np.inf
            if trial % 5 == 0:
                rows[rng.random(rows.shape) < 0.2] = np.nan
            self._assert_matches(rows, ids, int(rng.integers(1, 35)))

    def test_no_targets(self):
        rows = np.empty((3, 0), dtype=np.float64)
        out = _topk_rows(rows, np.empty(0, dtype=np.int64), 4)
        assert out.shape == (3, 0)
        assert out.dtype == np.int64
