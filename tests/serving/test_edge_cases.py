"""Satellite edge-case matrix: every kNN/range implementation must agree.

The same degenerate inputs — empty target sets, ``tau == 0``, the source
being a target, ``k > #targets``, duplicated target ids — are pushed
through every implementation pair that shares a metric:

* embedding metric: ``RNEModel.knn_brute`` and a brute range filter (the
  reference), ``RNE.knn``/``range_query``,
  ``BatchQueryEngine.knn``/``range_query``, healthy ``ResilientOracle``;
* network metric: ``knn_true``/``range_true``, ``BatchQueryEngine.exact_*``,
  degraded ``ResilientOracle``.

Results must be identical arrays (same ids, same order, same dtype).
"""

import numpy as np
import pytest

from repro.algorithms.knn import knn_true, range_true
from repro.core import RNEModel
from repro.core.pipeline import RNE, BuildHistory
from repro.reliability import ResilientOracle
from repro.reliability.faults import truncate_file
from repro.serving import BatchQueryEngine

EMPTY = np.array([], dtype=np.int64)


@pytest.fixture(scope="class")
def rne(stack, small_grid):
    model, index = stack
    return RNE(small_grid, model, index.hierarchy, BuildHistory())


@pytest.fixture(scope="class")
def healthy_oracle(small_grid, rne):
    return ResilientOracle(small_grid, rne=rne)


@pytest.fixture(scope="class")
def degraded_oracle(small_grid, rne, tmp_path_factory):
    path = tmp_path_factory.mktemp("serving") / "rne.npz"
    rne.save(str(path))
    truncate_file(path, fraction=0.5)
    oracle = ResilientOracle(small_grid, str(path))
    assert not oracle.healthy
    return oracle


def _brute_range(model, source, targets, tau):
    ids = np.unique(np.asarray(targets, dtype=np.int64))
    return ids[model.distances_from(source, ids) <= tau]


def _target_cases(source, n):
    return {
        "empty": EMPTY,
        "duplicates": np.array([9, 3, 9, 9, 3, 17], dtype=np.int64),
        "source_in_targets": np.array([source, 5, 11], dtype=np.int64),
        "all_vertices": np.arange(n, dtype=np.int64),
    }


class TestEmbeddingImplementationsAgree:
    SOURCE = 7

    @pytest.mark.parametrize("case", ["empty", "duplicates", "source_in_targets", "all_vertices"])
    @pytest.mark.parametrize("k", [1, 2, 99])  # 99 > every target set
    def test_knn(self, case, k, stack, rne, engine, healthy_oracle, small_grid):
        model, _ = stack
        targets = _target_cases(self.SOURCE, small_grid.n)[case]
        reference = model.knn_brute(self.SOURCE, targets, k)
        assert reference.size == min(k, np.unique(targets).size)
        np.testing.assert_array_equal(rne.knn(self.SOURCE, targets, k), reference)
        batch = engine.knn(np.array([self.SOURCE], dtype=np.int64), targets, k)[0]
        np.testing.assert_array_equal(batch, reference)
        oracle_out = healthy_oracle.knn(self.SOURCE, targets, k)
        np.testing.assert_array_equal(oracle_out, reference)

    @pytest.mark.parametrize("case", ["empty", "duplicates", "source_in_targets", "all_vertices"])
    @pytest.mark.parametrize("tau", [0.0, 3.0])
    def test_range(self, case, tau, stack, rne, engine, healthy_oracle, small_grid):
        model, _ = stack
        targets = _target_cases(self.SOURCE, small_grid.n)[case]
        reference = _brute_range(model, self.SOURCE, targets, tau)
        assert np.array_equal(reference, np.sort(reference))  # sorted-ids
        np.testing.assert_array_equal(
            rne.range_query(self.SOURCE, targets, tau), reference
        )
        batch = engine.range_query(
            np.array([self.SOURCE], dtype=np.int64), targets, tau
        )[0]
        np.testing.assert_array_equal(batch, reference)
        oracle_out = healthy_oracle.range_query(self.SOURCE, targets, tau)
        np.testing.assert_array_equal(oracle_out, reference)

    def test_tau_zero_with_source_in_targets(self, stack, engine, small_grid):
        """Embedding distance to itself is exactly 0 -> always within tau=0."""
        model, _ = stack
        targets = np.array([self.SOURCE, 5, 11], dtype=np.int64)
        out = engine.range_query(
            np.array([self.SOURCE], dtype=np.int64), targets, 0.0
        )[0]
        assert self.SOURCE in out
        np.testing.assert_array_equal(
            out, _brute_range(model, self.SOURCE, targets, 0.0)
        )


class TestExactImplementationsAgree:
    SOURCE = 12

    @pytest.mark.parametrize("case", ["empty", "duplicates", "source_in_targets", "all_vertices"])
    @pytest.mark.parametrize("k", [1, 2, 99])
    def test_knn(self, case, k, engine, degraded_oracle, small_grid):
        targets = _target_cases(self.SOURCE, small_grid.n)[case]
        reference = knn_true(small_grid, self.SOURCE, targets, k)
        batch = engine.exact_knn(
            np.array([self.SOURCE], dtype=np.int64), targets, k
        )[0]
        np.testing.assert_array_equal(batch, reference)
        oracle_out = degraded_oracle.knn(self.SOURCE, targets, k)
        np.testing.assert_array_equal(oracle_out, reference)

    @pytest.mark.parametrize("case", ["empty", "duplicates", "source_in_targets", "all_vertices"])
    @pytest.mark.parametrize("tau", [0.0, 4.0])
    def test_range(self, case, tau, engine, degraded_oracle, small_grid):
        targets = _target_cases(self.SOURCE, small_grid.n)[case]
        reference = range_true(small_grid, self.SOURCE, targets, tau)
        batch = engine.exact_range(
            np.array([self.SOURCE], dtype=np.int64), targets, tau
        )[0]
        np.testing.assert_array_equal(batch, reference)
        oracle_out = degraded_oracle.range_query(self.SOURCE, targets, tau)
        np.testing.assert_array_equal(oracle_out, reference)

    def test_tau_zero_returns_only_the_source(self, engine, small_grid):
        """Positive edge weights: nothing but the source is at distance 0."""
        targets = np.array([self.SOURCE, 5, 11], dtype=np.int64)
        out = engine.exact_range(
            np.array([self.SOURCE], dtype=np.int64), targets, 0.0
        )[0]
        np.testing.assert_array_equal(out, [self.SOURCE])

    def test_k_exceeds_targets_returns_all(self, engine, small_grid):
        targets = np.array([9, 3, 9, 9, 3, 17], dtype=np.int64)  # 3 unique
        out = engine.exact_knn(
            np.array([self.SOURCE], dtype=np.int64), targets, 99
        )[0]
        assert out.size == 3
        assert set(out.tolist()) == {3, 9, 17}
