"""Staleness-matrix tests for the versioned live-update subsystem.

The invariant under test: after ``LiveUpdateManager.update`` publishes a
new embedding, every serving surface — engine distances/kNN/range, the
tree index, the resilient oracle, in-flight prepared target sets —
answers bit-identically to a stack built *fresh* from the updated state.
No cache, radius, or SSSP tree may keep serving the pre-update world.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

import repro.live.update as live_update_module
from repro.core import RNEModel, UpdateResult
from repro.core.index import EmbeddingTreeIndex
from repro.core.pipeline import RNE, BuildHistory
from repro.graph import Graph, PartitionHierarchy, grid_city
from repro.live import LiveUpdateManager, UpdateStats, perturb_weights
from repro.reliability.checkpoint import CheckpointManager, unpack_state
from repro.reliability.fallback import ResilientOracle
from repro.serving import BatchQueryEngine


def _apply_update(manager, rne, seed=0, count=6, **kw):
    new_graph, changed = perturb_weights(
        rne.graph, factor=4.0, count=count, seed=seed + 1
    )
    kw.setdefault("samples", 1500)
    kw.setdefault("rounds", 2)
    kw.setdefault("validation_size", 200)
    stats = manager.update(new_graph, changed, seed=seed, **kw)
    return new_graph, stats


class TestPerturbWeights:
    def test_topology_and_coords_preserved(self, live_graph):
        new_graph, changed = perturb_weights(live_graph, count=5, seed=2)
        assert new_graph.n == live_graph.n
        assert new_graph.m == live_graph.m
        assert np.array_equal(new_graph.coords, live_graph.coords)
        assert changed.shape == (5, 2)

    def test_factor_applied_to_exactly_count_edges(self, live_graph):
        new_graph, changed = perturb_weights(
            live_graph, factor=3.0, count=4, seed=5
        )
        _, _, old_ws = live_graph.edge_array()
        _, _, new_ws = new_graph.edge_array()
        scaled = np.flatnonzero(~np.isclose(new_ws, old_ws))
        assert scaled.size == 4
        assert np.allclose(new_ws[scaled], old_ws[scaled] * 3.0)

    def test_invalid_args(self, live_graph):
        with pytest.raises(ValueError):
            perturb_weights(live_graph, factor=0.0)
        with pytest.raises(ValueError):
            perturb_weights(live_graph, count=0)


class TestConstruction:
    def test_requires_hierarchy(self, live_graph):
        from repro.core.model import RNEModel
        from repro.core.pipeline import BuildHistory

        flat = RNE(
            live_graph,
            RNEModel.random(live_graph.n, 4, seed=0),
            None,
            BuildHistory(),
        )
        with pytest.raises(ValueError):
            LiveUpdateManager(flat)

    def test_rejects_engine_on_foreign_model(self, clone_rne, base_rne):
        foreign = BatchQueryEngine.from_rne(base_rne)
        with pytest.raises(ValueError, match="different model"):
            LiveUpdateManager(clone_rne, engines=(foreign,))

    def test_rejects_engine_ahead_of_model(self, clone_rne):
        engine = BatchQueryEngine.from_rne(clone_rne)
        engine.set_version(clone_rne.version + 3)
        with pytest.raises(ValueError, match="ahead"):
            LiveUpdateManager(clone_rne, engines=(engine,))

    def test_rejects_oracle_on_foreign_rne(self, clone_rne, base_rne):
        foreign = ResilientOracle(base_rne.graph, rne=base_rne)
        with pytest.raises(ValueError, match="different RNE"):
            LiveUpdateManager(clone_rne, oracles=(foreign,))


class TestPublish:
    def test_version_advances_by_one_when_published(self, clone_rne):
        manager = LiveUpdateManager(clone_rne)
        before = clone_rne.version
        _, stats = _apply_update(manager, clone_rne)
        assert stats.graph_changed
        # The serving-visible swap is only part of the update's wall time.
        assert 0 <= stats.swap_seconds < stats.total_seconds
        if stats.published:
            assert clone_rne.version == before + 1
            assert stats.version_after == before + 1
            assert stats.changed_rows > 0
        else:
            assert clone_rne.version == before

    def test_index_refresh_bit_identical_to_full_rebuild(self, clone_rne):
        manager = LiveUpdateManager(clone_rne)
        _, stats = _apply_update(manager, clone_rne)
        assert stats.published, "perturbation should trigger a publish"
        index = clone_rne.index
        rebuilt = EmbeddingTreeIndex(
            clone_rne.hierarchy, clone_rne.model.matrix, clone_rne.model.p
        )
        snap, fresh = index.snapshot, rebuilt.snapshot
        assert snap.matrix is clone_rne.model.matrix
        assert snap.version == clone_rne.version
        assert np.array_equal(snap.centres, fresh.centres)
        assert np.array_equal(snap.radii, fresh.radii)
        assert 0 < stats.index_nodes_refreshed <= snap.radii.size

    def test_graph_swapped_when_changed(self, clone_rne):
        manager = LiveUpdateManager(clone_rne)
        new_graph, stats = _apply_update(manager, clone_rne)
        assert stats.graph_changed
        assert clone_rne.graph is new_graph

    def test_version_roundtrips_through_artifact(self, clone_rne, tmp_path):
        manager = LiveUpdateManager(clone_rne)
        new_graph, stats = _apply_update(manager, clone_rne)
        assert stats.published
        path = tmp_path / "updated.npz"
        clone_rne.save(str(path))
        loaded = RNE.load(str(path), new_graph)
        assert loaded.version == clone_rne.version == 1
        assert np.array_equal(loaded.model.matrix, clone_rne.model.matrix)


class TestStalenessMatrix:
    """Post-update serving must equal a stack built fresh from new state."""

    @pytest.fixture()
    def updated(self, clone_rne):
        engine = BatchQueryEngine.from_rne(clone_rne, graph=clone_rne.graph)
        oracle = ResilientOracle(clone_rne.graph, rne=clone_rne)
        manager = LiveUpdateManager(
            clone_rne, engines=(engine,), oracles=(oracle,)
        )
        rng = np.random.default_rng(9)
        targets = np.sort(
            rng.choice(clone_rne.graph.n, size=40, replace=False)
        ).astype(np.int64)
        sources = rng.choice(clone_rne.graph.n, size=16, replace=False).astype(
            np.int64
        )
        # Warm version-keyed hot rows (promote-on-second-touch needs 3 hits).
        prepared = engine.prepare(targets)
        for _ in range(3):
            engine.knn(sources, prepared, 5)
        new_graph, stats = _apply_update(manager, clone_rne)
        assert stats.published
        fresh_engine = BatchQueryEngine.from_rne(clone_rne, graph=new_graph)
        return engine, oracle, fresh_engine, sources, targets, prepared, stats

    def test_distances_match_fresh_engine(self, updated):
        engine, _, fresh, sources, targets, _, _ = updated
        pairs = np.column_stack([sources, targets[: sources.size]])
        assert np.array_equal(engine.distances(pairs), fresh.distances(pairs))

    def test_knn_matches_fresh_engine_and_brute_force(self, updated, clone_rne):
        engine, _, fresh, sources, targets, _, _ = updated
        got = engine.knn(sources, targets, 5)
        want = fresh.knn(sources, targets, 5)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        # Brute force over the updated embedding: lexsort (dist, id).
        matrix = clone_rne.model.matrix
        for s, g in zip(sources, got):
            dist = np.abs(matrix[targets] - matrix[s]).sum(axis=1)
            order = np.lexsort((targets, dist))[:5]
            assert np.array_equal(g, targets[order])

    def test_range_matches_fresh_engine(self, updated):
        engine, _, fresh, sources, targets, _, _ = updated
        tau = 6.0
        got = engine.range_query(sources, targets, tau)
        want = fresh.range_query(sources, targets, tau)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_prepared_targets_survive_the_swap(self, updated):
        engine, _, fresh, sources, targets, prepared, _ = updated
        got = engine.knn(sources, prepared, 5)  # prepared pre-update
        want = fresh.knn(sources, targets, 5)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_oracle_matches_fresh_engine(self, updated):
        _, oracle, fresh, sources, targets, _, _ = updated
        got = oracle.knn_batch(sources, targets, 5)
        want = fresh.knn(sources, targets, 5)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        got_r = oracle.range_batch(sources, targets, 6.0)
        want_r = fresh.range_query(sources, targets, 6.0)
        for g, w in zip(got_r, want_r):
            assert np.array_equal(g, w)

    def test_oracle_exact_fallback_uses_new_graph(self, updated, clone_rne):
        _, oracle, _, sources, _, _, _ = updated
        from repro.algorithms.dijkstra import dijkstra

        s = int(sources[0])
        row = oracle.engine.sssp_row(s)
        assert np.allclose(row, dijkstra(clone_rne.graph, s))

    def test_stale_hot_rows_purged_and_unreachable(self, updated):
        engine, _, _, _, _, _, stats = updated
        purge = stats.engine_invalidations[0]
        assert purge["hot_rows_purged"] > 0
        # Every surviving/new hot-row key carries the current version: a
        # stale hit is impossible by key construction.
        for key in engine.hot_rows._data:
            assert key[0] == engine.version

    def test_update_stats_surface_in_snapshot(self, updated):
        engine, oracle, _, _, _, _, stats = updated
        for snap_owner in (engine, oracle.engine):
            records = snap_owner.snapshot()["live_updates"]
            assert len(records) == 1
            assert records[0]["version_after"] == stats.version_after
            assert records[0]["published"] is True

    def test_report_mentions_versions(self, updated):
        *_, stats = updated
        text = stats.report()
        assert "version" in text
        assert "->" in text


class TestCheckpointJournal:
    def test_published_update_journals_versioned_matrix(
        self, clone_rne, tmp_path
    ):
        ckpts = CheckpointManager(str(tmp_path / "ckpts"))
        manager = LiveUpdateManager(clone_rne, checkpoints=ckpts)
        _, stats = _apply_update(manager, clone_rne)
        assert stats.published
        assert stats.checkpoint_path is not None
        arrays, meta = ckpts.load("live_update")
        restored = np.zeros_like(clone_rne.model.matrix)
        version = unpack_state(arrays, meta, restored)
        assert version == clone_rne.version == 1
        assert np.array_equal(restored, clone_rne.model.matrix)

    def test_unpublished_update_does_not_journal(self, clone_rne, tmp_path):
        ckpts = CheckpointManager(str(tmp_path / "ckpts"))
        manager = LiveUpdateManager(clone_rne, checkpoints=ckpts)
        # Same graph, no perturbation: keep-best declines to publish.
        stats = manager.update(
            clone_rne.graph,
            np.array([[0, 1]]),
            samples=500,
            rounds=1,
            validation_size=100,
            seed=0,
        )
        assert not stats.graph_changed
        if not stats.published:
            assert stats.checkpoint_path is None


class TestHistory:
    def test_sequential_updates_accumulate(self, clone_rne):
        manager = LiveUpdateManager(clone_rne)
        _apply_update(manager, clone_rne, seed=0)
        _apply_update(manager, clone_rne, seed=7)
        assert len(manager.history) == 2
        assert all(isinstance(s, UpdateStats) for s in manager.history)
        versions = [s.version_after for s in manager.history]
        assert versions == sorted(versions)


def _smooth_rne(seed):
    """A 20x20 street grid with a smooth (coordinate-like) embedding."""
    graph = grid_city(20, 20, seed=seed)
    rng = np.random.default_rng(seed)
    coords = graph.coords / 100.0
    matrix = np.column_stack([coords, coords @ rng.normal(size=(2, 2))])
    matrix += rng.normal(scale=0.05, size=matrix.shape)
    hierarchy = PartitionHierarchy(graph, fanout=4, leaf_size=16, seed=seed)
    return RNE(graph, RNEModel(matrix), hierarchy, BuildHistory())


def _contract_cells(rne, matrix, rng, factor):
    """Scale six random leaf cells' rows about their centres (radii shrink)."""
    hierarchy = rne.hierarchy
    leaf_cells = hierarchy.levels[rne.index.leaf_level]
    new = matrix.copy()
    changed = []
    for cell in rng.choice(len(leaf_cells), size=6, replace=False):
        members = np.asarray(hierarchy.nodes[leaf_cells[cell]].vertices)
        centre = new[members].mean(axis=0)
        new[members] = centre + factor * (new[members] - centre)
        changed.append(members)
    return new, np.sort(np.concatenate(changed))


def _publish_without_training(monkeypatch, plan):
    """Make ``update`` publish ``plan()``'s (matrix, changed rows) as retrained."""

    def fake_update_rne(view, *args, **kwargs):
        new, changed = plan()
        view.block[view.offsets[-2] + changed] = new[changed]
        return UpdateResult(published=True, changed_rows=changed)

    monkeypatch.setattr(live_update_module, "update_rne", fake_update_rne)


def _matches_a_version(matrices, sources, targets, k, tau, knn_out, range_out):
    """Per source: both answers equal brute force at one of ``matrices``."""
    for i, s in enumerate(sources):
        models = [RNEModel(m) for m in matrices]
        knn_ok = any(
            np.array_equal(knn_out[i], m.knn_brute(int(s), targets, k)) for m in models
        )
        range_ok = any(
            np.array_equal(
                range_out[i], targets[m.distances_from(int(s), targets) <= tau]
            )
            for m in models
        )
        if not (knn_ok and range_ok):
            return False
    return True


class TestConcurrentPublish:
    """Readers see one published version per batch, never a torn mix."""

    K, TAU = 5, 0.8

    def test_batches_right_after_refresh_see_one_version(self, monkeypatch):
        """Serve between the index refresh and the rest of the publish."""
        rne = _smooth_rne(seed=2)
        engine = BatchQueryEngine.from_rne(rne)
        old = rne.model.matrix
        new, changed = _contract_cells(rne, old, np.random.default_rng(2), 0.05)
        _publish_without_training(monkeypatch, lambda: (new, changed))
        sources = np.arange(rne.graph.n, dtype=np.int64)
        targets = np.arange(rne.graph.n, dtype=np.int64)
        served = {}
        refresh = rne.index.refresh_rows

        def refresh_then_serve(matrix, changed_vertices):
            refreshed = refresh(matrix, changed_vertices)
            served["knn"] = engine.knn(sources, targets, self.K)
            served["range"] = engine.range_query(sources, targets, self.TAU)
            return refreshed

        monkeypatch.setattr(rne.index, "refresh_rows", refresh_then_serve)
        stats = LiveUpdateManager(rne, engines=(engine,)).update(
            rne.graph, np.array([[0, 1]])
        )
        assert stats.published and rne.model.matrix is not old
        for i, s in enumerate(sources):
            assert _matches_a_version(
                (old, new), [s], targets, self.K, self.TAU,
                [served["knn"][i]], [served["range"][i]],
            ), f"source {s} mixes two versions"

    def test_reader_threads_during_updates(self, monkeypatch):
        rne = _smooth_rne(seed=0)
        engine = BatchQueryEngine.from_rne(rne, row_cache_size=32)
        manager = LiveUpdateManager(rne, engines=(engine,))
        rng = np.random.default_rng(0)
        matrices = {0: rne.model.matrix}

        def plan():
            factor = 0.05 if len(matrices) % 2 else 20.0
            new, changed = _contract_cells(rne, rne.model.matrix, rng, factor)
            matrices[rne.version + 1] = new
            return new, changed

        _publish_without_training(monkeypatch, plan)
        refresh = rne.index.refresh_rows

        def refresh_then_pause(matrix, changed_vertices):
            # Widen the gap between the index refresh and the rest of the
            # publish so readers land in it.
            refreshed = refresh(matrix, changed_vertices)
            time.sleep(0.005)
            return refreshed

        monkeypatch.setattr(rne.index, "refresh_rows", refresh_then_pause)
        targets = np.arange(0, rne.graph.n, 2, dtype=np.int64)
        prepared = engine.prepare(targets)
        stop = threading.Event()
        calls, errors = [], []

        def reader(seed):
            local = np.random.default_rng(seed)
            hot = local.choice(rne.graph.n, size=24, replace=False)
            try:
                while not stop.is_set():
                    # Repeated sources exercise promotion and hot-row hits.
                    sources = local.choice(hot, size=12).astype(np.int64)
                    lo = rne.index.snapshot.version
                    knn_out = engine.knn(sources, prepared, self.K)
                    range_out = engine.range_query(sources, prepared, self.TAU)
                    hi = rne.index.snapshot.version
                    calls.append((lo, hi, sources, knn_out, range_out))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        try:
            for thread in threads:
                thread.start()
            for _ in range(6):
                time.sleep(0.02)
                manager.update(rne.graph, np.array([[0, 1]]))
            time.sleep(0.02)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert rne.version == 6
        assert len({lo for lo, *_ in calls}) > 1, "readers never overlapped an update"
        for lo, hi, sources, knn_out, range_out in calls:
            versions = [matrices[v] for v in range(lo, hi + 1)]
            assert _matches_a_version(
                versions, sources, targets, self.K, self.TAU, knn_out, range_out
            ), f"answer at versions {lo}..{hi} matches none of them"
