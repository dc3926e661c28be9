"""Tests for the batched query engine: bit-identity, caching, fallbacks."""

import time

import numpy as np
import pytest

from repro.algorithms.dijkstra import pair_distances
from repro.algorithms.knn import knn_true, range_true
from repro.core import RNE, EmbeddingTreeIndex, RNEModel
from repro.core.index import PreparedTargets
from repro.core.pipeline import BuildHistory
from repro.graph import PartitionHierarchy
from repro.serving import BatchQueryEngine
from repro.serving import engine as engine_module


def _random_targets(rng, n, size, with_duplicates=True):
    targets = rng.integers(0, n, size=size).astype(np.int64)
    if with_duplicates and size >= 2:
        targets[0] = targets[-1]  # force at least one duplicate id
    return targets


class TestConstruction:
    def test_needs_model_or_graph(self):
        with pytest.raises(ValueError):
            BatchQueryEngine()

    def test_mismatched_index_rejected(self, stack, small_grid):
        from repro.core import RNEModel

        _, index = stack
        other = RNEModel(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            BatchQueryEngine(model=other, index=index)

    def test_prepare_passes_through_prepared(self, engine, rng):
        prepared = engine.prepare(np.arange(10, dtype=np.int64))
        assert engine.prepare(prepared) is prepared

    def test_invalid_args(self, engine, rng):
        targets = np.arange(8, dtype=np.int64)
        sources = np.array([0, 1], dtype=np.int64)
        with pytest.raises(ValueError):
            engine.knn(sources, targets, 0)
        with pytest.raises(ValueError):
            engine.range_query(sources, targets, -1.0)
        with pytest.raises(ValueError):
            engine.exact_knn(sources, targets, 0)
        with pytest.raises(ValueError):
            engine.exact_range(sources, targets, -0.5)


    @pytest.mark.parametrize("tau", [float("nan"), np.float64("nan")])
    def test_range_query_rejects_nan_tau(self, engine, tau):
        sources = np.array([0, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="tau must be >= 0"):
            engine.range_query(sources, np.arange(8, dtype=np.int64), tau)

    @pytest.mark.parametrize("tau", [float("nan"), np.float64("nan")])
    def test_exact_range_rejects_nan_tau(self, engine, tau):
        sources = np.array([0, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="tau must be >= 0"):
            engine.exact_range(sources, np.arange(8, dtype=np.int64), tau)

    def test_infinite_tau_returns_every_target(self, engine):
        targets = np.arange(8, dtype=np.int64)
        sources = np.array([0, 1], dtype=np.int64)
        for out in (
            engine.range_query(sources, targets, np.inf),
            engine.exact_range(sources, targets, np.inf),
        ):
            for ids in out:
                np.testing.assert_array_equal(ids, targets)


class TestDistances:
    def test_matches_per_pair_loop(self, engine, stack, rng, small_grid):
        model, _ = stack
        pairs = rng.integers(0, small_grid.n, size=(50, 2)).astype(np.int64)
        batch = engine.distances(pairs)
        # perf: loop-ok (the per-pair baseline the batch path must match)
        loop = np.array([model.query(int(s), int(t)) for s, t in pairs])
        np.testing.assert_array_equal(batch, loop)

    def test_exact_matches_dijkstra(self, engine, rng, small_grid):
        pairs = rng.integers(0, small_grid.n, size=(30, 2)).astype(np.int64)
        np.testing.assert_allclose(
            engine.exact_distances(pairs), pair_distances(small_grid, pairs)
        )

    def test_no_model_raises(self, small_grid):
        exact_only = BatchQueryEngine(graph=small_grid)
        with pytest.raises(ValueError):
            exact_only.distances(np.zeros((1, 2), dtype=np.int64))

    def test_no_graph_raises(self, stack):
        model, index = stack
        learned_only = BatchQueryEngine(model=model, index=index)
        with pytest.raises(ValueError):
            learned_only.exact_distances(np.zeros((1, 2), dtype=np.int64))


class TestBatchedBitIdentity:
    """Batched kNN/range must be bit-identical to the per-query index walk."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_knn_matches_per_query(self, engine, stack, small_grid, seed):
        _, index = stack
        rng = np.random.default_rng(seed)
        targets = _random_targets(rng, small_grid.n, 20)
        sources = rng.integers(0, small_grid.n, size=12).astype(np.int64)
        prepared = engine.prepare(targets)
        for k in (1, 3, 7, 100):
            batch = engine.knn(sources, prepared, k)
            for s, ids in zip(sources, batch):
                np.testing.assert_array_equal(
                    ids, index.knn_prepared(int(s), prepared, k)
                )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_range_matches_per_query(self, engine, stack, small_grid, seed):
        _, index = stack
        rng = np.random.default_rng(seed)
        targets = _random_targets(rng, small_grid.n, 20)
        sources = rng.integers(0, small_grid.n, size=12).astype(np.int64)
        prepared = engine.prepare(targets)
        for tau in (0.0, 1.0, 5.0, 50.0):
            batch = engine.range_query(sources, prepared, tau)
            for s, ids in zip(sources, batch):
                np.testing.assert_array_equal(
                    ids, index.range_prepared(int(s), prepared, tau)
                )

    def test_identity_survives_cache_promotion(self, engine, stack, small_grid):
        """Hot sources answered from cached rows give the same bits."""
        _, index = stack
        rng = np.random.default_rng(7)
        targets = _random_targets(rng, small_grid.n, 25)
        sources = rng.integers(0, small_grid.n, size=10).astype(np.int64)
        prepared = engine.prepare(targets)
        for _ in range(3):  # 1st touch, promotion, hit
            knn_out = engine.knn(sources, prepared, 5)
            range_out = engine.range_query(sources, prepared, 4.0)
            for s, k_ids, r_ids in zip(sources, knn_out, range_out):
                np.testing.assert_array_equal(
                    k_ids, index.knn_prepared(int(s), prepared, 5)
                )
                np.testing.assert_array_equal(
                    r_ids, index.range_prepared(int(s), prepared, 4.0)
                )
        assert engine.hot_rows.hits > 0

    def test_flat_engine_matches_brute(self, stack, small_grid):
        """Without an index the engine still honours the ordering contract."""
        model, _ = stack
        flat = BatchQueryEngine(model=model, graph=small_grid)
        rng = np.random.default_rng(11)
        targets = _random_targets(rng, small_grid.n, 15)
        sources = rng.integers(0, small_grid.n, size=6).astype(np.int64)
        for s, ids in zip(sources, flat.knn(sources, targets, 4)):
            np.testing.assert_array_equal(
                ids, model.knn_brute(int(s), targets, 4)
            )
        unique = np.unique(targets)
        for s, ids in zip(sources, flat.range_query(sources, targets, 3.0)):
            d = model.query_pairs(
                np.stack([np.full_like(unique, s), unique], axis=1)
            )
            np.testing.assert_array_equal(ids, unique[d <= 3.0])


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype == np.int64
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def tied_stack(small_grid):
    """(model, index) whose rows repeat in fours: distances tie everywhere.

    Duplicated rows give bit-equal distances, so most k-th places are ties
    that only the id tie-break can resolve.
    """
    hierarchy = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
    base = np.random.default_rng(3).normal(size=(small_grid.n // 4, 6))
    matrix = base[np.arange(small_grid.n) % base.shape[0]]
    return RNEModel(matrix, p=1.0), EmbeddingTreeIndex(hierarchy, matrix, p=1.0)


class TestTiedAnswers:
    """Hit, miss and fallback kNN answers agree byte for byte under ties."""

    K_VALUES = (1, 2, 3, 5, 8, 40)

    @pytest.fixture()
    def tied_engine(self, tied_stack, small_grid):
        model, index = tied_stack
        return BatchQueryEngine(model=model, index=index, graph=small_grid)

    def _check(self, engine, tied_stack, sources, prepared, k):
        model, index = tied_stack
        out = engine.knn(sources, prepared, k)
        assert len(out) == sources.size
        for s, ids in zip(sources, out):
            _assert_same_bytes(ids, index.knn_prepared(int(s), prepared, k))
            _assert_same_bytes(ids, model.knn_brute(int(s), prepared.ids, k))

    def test_embedding_ties_at_the_kth_place(self, tied_stack, small_grid):
        model, _ = tied_stack
        targets = np.arange(0, small_grid.n, 2, dtype=np.int64)
        d = np.sort(model.distances_from(5, targets))
        # Distances are bit-equal within each group of duplicated rows.
        assert any(d[k - 1] == d[k] for k in self.K_VALUES if k < d.size)

    def test_all_hits(self, tied_engine, tied_stack, small_grid, rng):
        prepared = tied_engine.prepare(np.arange(0, small_grid.n, 2))
        sources = rng.choice(small_grid.n, size=12, replace=False)
        tied_engine.knn(sources, prepared, 1)  # first touch
        tied_engine.knn(sources, prepared, 1)  # promotion
        for k in self.K_VALUES:
            hits = tied_engine.hot_rows.hits
            self._check(tied_engine, tied_stack, sources, prepared, k)
            assert tied_engine.hot_rows.hits - hits == sources.size

    def test_hits_mixed_with_frontier_misses(
        self, tied_engine, tied_stack, small_grid, rng
    ):
        prepared = tied_engine.prepare(np.arange(1, small_grid.n, 3))
        order = rng.permutation(small_grid.n)
        warm, cold = order[:6], order[6:30]
        tied_engine.knn(warm, prepared, 1)
        tied_engine.knn(warm, prepared, 1)  # warm sources are now hot rows
        # Every pass pairs the hot sources with first-touch ones, which the
        # frontier answers.
        for k, fresh in zip(self.K_VALUES, np.split(cold, len(self.K_VALUES))):
            hits, misses = tied_engine.hot_rows.hits, tied_engine.hot_rows.misses
            batch = rng.permutation(np.concatenate([warm, fresh]))
            self._check(tied_engine, tied_stack, batch, prepared, k)
            assert tied_engine.hot_rows.hits - hits == warm.size
            assert tied_engine.hot_rows.misses - misses == fresh.size

    def test_duplicate_sources(self, tied_engine, tied_stack, small_grid):
        prepared = tied_engine.prepare(np.arange(small_grid.n))
        sources = np.array([9, 4, 9, 9, 17, 4, 30, 9], dtype=np.int64)
        for k in self.K_VALUES:  # first touch, in-batch promotion, hits
            self._check(tied_engine, tied_stack, sources, prepared, k)
        assert tied_engine.hot_rows.hits > 0

    def test_stacked_hits_span_several_chunks(
        self, tied_engine, tied_stack, small_grid, monkeypatch
    ):
        prepared = tied_engine.prepare(np.arange(0, small_grid.n, 2))
        sources = np.arange(0, small_grid.n, 3, dtype=np.int64)
        tied_engine.knn(sources, prepared, 1)
        tied_engine.knn(sources, prepared, 1)
        # Two hit rows per chunk: the 22 stacked hit rows need 11 chunks.
        monkeypatch.setattr(engine_module, "_CHUNK_ELEMS", 2 * prepared.m)
        for k in self.K_VALUES:
            hits = tied_engine.hot_rows.hits
            self._check(tied_engine, tied_stack, sources, prepared, k)
            assert tied_engine.hot_rows.hits - hits == sources.size

    def test_no_index_fallback(self, tied_stack, small_grid, monkeypatch):
        model, _ = tied_stack
        flat = BatchQueryEngine(model=model, graph=small_grid, row_cache_size=0)
        targets = np.arange(3, small_grid.n, 2, dtype=np.int64)
        sources = np.arange(0, small_grid.n, 5, dtype=np.int64)
        monkeypatch.setattr(engine_module, "_CHUNK_ELEMS", 3 * targets.size * model.d)
        for k in self.K_VALUES:
            for s, ids in zip(sources, flat.knn(sources, targets, k)):
                _assert_same_bytes(ids, model.knn_brute(int(s), targets, k))

    def test_knn_join_matches_brute(self, tied_stack, small_grid):
        model, index = tied_stack
        rne = RNE(small_grid, model, index.hierarchy, BuildHistory())
        targets = np.arange(0, small_grid.n, 2, dtype=np.int64)
        sources = np.arange(small_grid.n, dtype=np.int64)
        for k in self.K_VALUES:
            joined = rne.knn_join(sources, targets, k)
            assert joined.shape == (sources.size, min(k, targets.size))
            for s, ids in zip(sources, joined):
                _assert_same_bytes(ids, model.knn_brute(int(s), targets, k))


class TestExactServing:
    def test_exact_knn_matches_knn_true(self, engine, rng, small_grid):
        targets = _random_targets(rng, small_grid.n, 18)
        sources = np.array([0, 17, 33], dtype=np.int64)
        for k in (1, 4, 50):
            for s, ids in zip(sources, engine.exact_knn(sources, targets, k)):
                np.testing.assert_array_equal(
                    ids, knn_true(small_grid, int(s), targets, k)
                )

    def test_exact_range_matches_range_true(self, engine, rng, small_grid):
        targets = _random_targets(rng, small_grid.n, 18)
        sources = np.array([2, 40], dtype=np.int64)
        for tau in (0.0, 2.5, 100.0):
            for s, ids in zip(
                sources, engine.exact_range(sources, targets, tau)
            ):
                np.testing.assert_array_equal(
                    ids, range_true(small_grid, int(s), targets, tau)
                )

    def test_sssp_row_cached(self, engine, small_grid):
        row1 = engine.sssp_row(5)
        row2 = engine.sssp_row(5)
        assert row1 is row2  # second call served from the LRU
        assert engine.sssp.hits == 1
        assert row1.shape == (small_grid.n,)


class TestCachingBehaviour:
    def test_promote_on_second_touch(self, engine, small_grid):
        targets = np.arange(16, dtype=np.int64)
        prepared = engine.prepare(targets)
        sources = np.array([3], dtype=np.int64)
        engine.knn(sources, prepared, 2)  # first touch: not admitted
        assert len(engine.hot_rows) == 0
        engine.knn(sources, prepared, 2)  # second touch: promoted
        assert len(engine.hot_rows) == 1
        engine.knn(sources, prepared, 2)  # third: cache hit
        assert engine.hot_rows.hits >= 1

    def test_cache_disabled(self, stack, small_grid):
        model, index = stack
        engine = BatchQueryEngine(
            model=model, index=index, graph=small_grid, row_cache_size=0
        )
        targets = np.arange(16, dtype=np.int64)
        sources = np.array([3], dtype=np.int64)
        for _ in range(4):
            engine.knn(sources, targets, 2)
        assert len(engine.hot_rows) == 0
        assert engine.hot_rows.hits == 0

    def test_prepared_sets_do_not_alias(self, engine, small_grid):
        """Same ids prepared twice -> distinct cache keys (token-based)."""
        targets = np.arange(10, dtype=np.int64)
        p1 = engine.prepare(targets)
        p2 = engine.prepare(targets)
        assert p1.token != p2.token

    def test_snapshot_and_report(self, engine, rng, small_grid):
        pairs = rng.integers(0, small_grid.n, size=(10, 2)).astype(np.int64)
        engine.distances(pairs)
        snap = engine.snapshot()
        assert snap["ops"]["distances"]["items"] == 10
        assert "hot_rows" in snap["caches"]
        assert "sssp" in snap["caches"]
        assert "distances" in engine.report()


class TestEmptyAndDegenerate:
    def test_empty_sources(self, engine):
        targets = np.arange(8, dtype=np.int64)
        assert engine.knn(np.array([], dtype=np.int64), targets, 3) == []
        assert engine.range_query(np.array([], dtype=np.int64), targets, 1.0) == []

    def test_empty_targets(self, engine):
        empty = np.array([], dtype=np.int64)
        sources = np.array([0, 1], dtype=np.int64)
        for out in (
            engine.knn(sources, empty, 3),
            engine.range_query(sources, empty, 1.0),
            engine.exact_knn(sources, empty, 3),
            engine.exact_range(sources, empty, 1.0),
        ):
            assert len(out) == 2
            for ids in out:
                assert ids.size == 0
                assert ids.dtype == np.int64


class TestThroughput:
    def test_batch_beats_per_pair_loop(self, engine, stack, rng, small_grid):
        """The vectorised pair path is far faster than the Python loop.

        The acceptance-grade >=10x measurement runs on a >=50k-vertex
        network in ``rne serving``; this guards the mechanism with a
        deliberately loose threshold so it cannot flake on slow CI.
        """
        model, _ = stack
        pairs = rng.integers(0, small_grid.n, size=(4000, 2)).astype(np.int64)

        def loop():
            # perf: loop-ok (the baseline under test)
            for s, t in pairs:
                model.query(int(s), int(t))

        t0 = time.perf_counter()
        loop()
        loop_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        engine.distances(pairs)
        batch_seconds = time.perf_counter() - t0
        assert loop_seconds / max(batch_seconds, 1e-9) > 3.0


class TestPreparedTargets:
    def test_flat_validates_range(self, small_grid):
        with pytest.raises(ValueError):
            PreparedTargets.flat(
                small_grid.n, np.array([small_grid.n], dtype=np.int64)
            )

    def test_flat_dedupes_and_masks(self, small_grid):
        prepared = PreparedTargets.flat(
            small_grid.n, np.array([5, 3, 5, 9], dtype=np.int64)
        )
        np.testing.assert_array_equal(prepared.ids, [3, 5, 9])
        assert prepared.m == 3
        assert prepared.mask.sum() == 3
        assert not prepared.has_tree


class TestVersionContract:
    def test_negative_version_rejected(self, stack, small_grid):
        model, index = stack
        with pytest.raises(ValueError):
            BatchQueryEngine(model=model, index=index, version=-1)

    def test_set_version_monotonic(self, engine):
        engine.set_version(3)
        assert engine.version == 3
        with pytest.raises(ValueError, match="regress"):
            engine.set_version(2)
        # Same version is a legal no-op adoption.
        counts = engine.set_version(3)
        assert counts["hot_rows_purged"] == 0

    def test_hot_row_keys_carry_version(self, engine, small_grid):
        targets = np.arange(16, dtype=np.int64)
        prepared = engine.prepare(targets)
        sources = np.array([1, 2], dtype=np.int64)
        for _ in range(3):  # promote-on-second-touch needs repeats
            engine.knn(sources, prepared, 3)
        assert len(engine.hot_rows) > 0
        assert all(key[0] == engine.version for key in engine.hot_rows._data)

    def test_bump_purges_stale_rows_keeps_sssp(self, engine, small_grid):
        targets = np.arange(16, dtype=np.int64)
        prepared = engine.prepare(targets)
        sources = np.array([1, 2], dtype=np.int64)
        for _ in range(3):
            engine.knn(sources, prepared, 3)
        engine.sssp_row(0)
        cached_rows = len(engine.hot_rows)
        assert cached_rows > 0
        counts = engine.set_version(engine.version + 1)
        assert counts["hot_rows_purged"] == cached_rows
        assert len(engine.hot_rows) == 0
        assert len(engine.sssp) == 1  # embedding moved, graph did not
        assert counts["sssp_dropped"] == 0

    def test_bump_with_graph_drops_sssp(self, engine, small_grid):
        engine.sssp_row(0)
        counts = engine.set_version(engine.version + 1, graph=small_grid)
        assert counts["sssp_dropped"] == 1
        assert len(engine.sssp) == 0

    def test_results_identical_after_version_bump(self, engine, small_grid, rng):
        targets = _random_targets(rng, small_grid.n, 20)
        sources = rng.integers(0, small_grid.n, size=8).astype(np.int64)
        before = engine.knn(sources, targets, 4)
        engine.set_version(engine.version + 1)
        after = engine.knn(sources, targets, 4)
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b, a)
