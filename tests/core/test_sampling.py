"""Tests for training-sample selection and the distance labeler.

Run as a script, this file checks the labelling-source bound of a default
build at 50k vertices without running any Dijkstra::

    python tests/core/test_sampling.py

It draws every build stage's samples on ``grid_city(224, 224, seed=7)``
with a counting labeler and exits non-zero if a stage labels more distinct
sources than its structural cap, or the build more than
``|S| + landmarks + 64 + 16 + fallback grid sources``.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest
from scipy import stats

from repro.algorithms import pair_distances
from repro.core import (
    DistanceLabeler,
    GridBuckets,
    RNEConfig,
    build_rne,
    error_based_samples,
    landmark_samples,
    random_pair_samples,
    source_set,
    subgraph_level_samples,
    validation_set,
)
from repro.core.pipeline import _mean_distance_probe, _stage_table
from repro.core.sampling import stage_rng
from repro.graph import Graph, PartitionHierarchy
from repro.graph.generators import grid_city


@pytest.fixture()
def split_graph():
    """Two disconnected components with coordinates: most cross pairs are
    unreachable, so naive draw-once sampling would under-deliver badly."""
    edges = [(i, i + 1, 1.0) for i in range(9)]
    edges += [(i, i + 1, 1.0) for i in range(10, 19)]
    coords = np.column_stack([np.arange(20, dtype=float), np.zeros(20)])
    return Graph(20, edges, coords=coords)


class TestDistanceLabeler:
    def test_labels_exact(self, small_grid, rng):
        labeler = DistanceLabeler(small_grid)
        pairs = rng.integers(small_grid.n, size=(30, 2))
        got = labeler.label(pairs)
        np.testing.assert_allclose(got, pair_distances(small_grid, pairs))

    def test_cache_avoids_reruns(self, small_grid):
        labeler = DistanceLabeler(small_grid)
        pairs = np.array([[0, 1], [0, 2], [0, 3]])
        labeler.label(pairs)
        runs = labeler.sssp_runs
        labeler.label(np.array([[0, 5], [0, 6]]))
        assert labeler.sssp_runs == runs  # same source, cached

    def test_cache_eviction(self, small_grid):
        labeler = DistanceLabeler(small_grid, cache_size=2)
        labeler.label(np.array([[0, 1], [1, 2], [2, 3]]))
        assert len(labeler._cache) <= 2

    def test_row(self, small_grid):
        labeler = DistanceLabeler(small_grid)
        row = labeler.row(0)
        assert row.shape == (small_grid.n,)
        assert row[0] == 0.0

    def test_invalid_cache_size(self, small_grid):
        with pytest.raises(ValueError):
            DistanceLabeler(small_grid, cache_size=0)


class TestSubgraphLevelSamples:
    def test_samples_labelled_correctly(self, small_grid, rng):
        hierarchy = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        labeler = DistanceLabeler(small_grid)
        pairs, phi = subgraph_level_samples(hierarchy, 0, 300, labeler, rng)
        np.testing.assert_allclose(phi, pair_distances(small_grid, pairs))

    def test_no_self_pairs(self, small_grid, rng):
        hierarchy = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        labeler = DistanceLabeler(small_grid)
        pairs, _ = subgraph_level_samples(hierarchy, 0, 300, labeler, rng)
        assert (pairs[:, 0] != pairs[:, 1]).all()

    def test_cell_pairs_covered(self, small_grid, rng):
        """Uniform cell-pair selection should hit most cell pairs."""
        hierarchy = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        labeler = DistanceLabeler(small_grid)
        pairs, _ = subgraph_level_samples(hierarchy, 0, 600, labeler, rng)
        labels = hierarchy.vertex_labels(0)
        seen = {(labels[s], labels[t]) for s, t in pairs}
        k = hierarchy.level_size(0)
        assert len(seen) >= k * k * 0.5

    def test_labelling_cost_bounded(self, small_grid, rng):
        hierarchy = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
        labeler = DistanceLabeler(small_grid)
        subgraph_level_samples(
            hierarchy, 0, 2000, labeler, rng, sources_per_cell=3
        )
        assert labeler.sssp_runs <= 3 * hierarchy.level_size(0)


class TestLandmarkSamples:
    def test_sources_are_landmarks(self, small_grid, rng):
        labeler = DistanceLabeler(small_grid)
        landmarks = np.array([3, 17, 40])
        pairs, _ = landmark_samples(small_grid, landmarks, 200, labeler, rng)
        assert set(np.unique(pairs[:, 0])) <= {3, 17, 40}

    def test_labels_exact(self, small_grid, rng):
        labeler = DistanceLabeler(small_grid)
        pairs, phi = landmark_samples(
            small_grid, np.array([0, 1]), 100, labeler, rng
        )
        np.testing.assert_allclose(phi, pair_distances(small_grid, pairs))

    def test_every_landmark_used(self, small_grid, rng):
        labeler = DistanceLabeler(small_grid)
        landmarks = np.array([2, 9, 33, 50])
        pairs, _ = landmark_samples(small_grid, landmarks, 400, labeler, rng)
        assert set(np.unique(pairs[:, 0])) == {2, 9, 33, 50}


class TestRandomPairs:
    def test_source_pool_bounds_cost(self, small_grid, rng):
        labeler = DistanceLabeler(small_grid)
        random_pair_samples(small_grid, 1000, labeler, rng, source_pool_size=10)
        assert labeler.sssp_runs <= 10

    def test_unreachable_pairs_dropped(self, rng):
        g = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        labeler = DistanceLabeler(g)
        pairs, phi = random_pair_samples(g, 300, labeler, rng, source_pool_size=4)
        assert np.isfinite(phi).all()

    def test_validation_set_deterministic(self, small_grid):
        labeler = DistanceLabeler(small_grid)
        a = validation_set(small_grid, 100, labeler, seed=5)
        b = validation_set(small_grid, 100, labeler, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_allclose(a[1], b[1])


class TestGridBuckets:
    @pytest.fixture(scope="class")
    def buckets(self, small_grid):
        return GridBuckets(small_grid, k=4, seed=0)

    def test_requires_coords(self):
        g = Graph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            GridBuckets(g)

    def test_bucket_count(self, buckets):
        assert buckets.num_buckets == 2 * 4 - 1

    def test_every_vertex_in_a_grid(self, buckets, small_grid):
        assert buckets.vertex_grid.shape == (small_grid.n,)
        total = sum(v.size for v in buckets.grid_vertices.values())
        assert total == small_grid.n

    def test_bucket_weights_cover_all_pairs(self, buckets, small_grid):
        total = sum(buckets.bucket_weight(b) for b in range(buckets.num_buckets))
        assert total == pytest.approx(small_grid.n**2)

    def test_sample_respects_bucket(self, buckets, rng):
        for b in buckets.nonempty_buckets()[:3]:
            pairs = buckets.sample(int(b), 50, rng)
            if pairs.size == 0:
                continue
            got = buckets.bucket_of_pairs(pairs)
            assert (got == b).all()

    def test_bucket_of_pairs_zero_same_grid(self, buckets, small_grid):
        v = 0
        same = np.nonzero(buckets.vertex_grid == buckets.vertex_grid[v])[0]
        if same.size > 1:
            pairs = np.array([[same[0], same[1]]])
            assert buckets.bucket_of_pairs(pairs)[0] == 0

    def test_invalid_k(self, small_grid):
        with pytest.raises(ValueError):
            GridBuckets(small_grid, k=0)


class TestErrorBasedSamples:
    @pytest.fixture(scope="class")
    def setup(self, small_grid):
        buckets = GridBuckets(small_grid, k=4, seed=0)
        labeler = DistanceLabeler(small_grid)
        return buckets, labeler

    def test_local_mode_picks_worst_bucket(self, setup, rng):
        buckets, labeler = setup
        errors = np.zeros(buckets.num_buckets)
        worst = int(buckets.nonempty_buckets()[-1])
        errors[worst] = 1.0
        pairs, _ = error_based_samples(
            buckets, errors, 60, labeler, rng, mode="local"
        )
        got = buckets.bucket_of_pairs(pairs)
        assert (got == worst).all()

    def test_global_mode_spreads(self, setup, rng):
        buckets, labeler = setup
        errors = np.ones(buckets.num_buckets)
        pairs, _ = error_based_samples(
            buckets, errors, 300, labeler, rng, mode="global"
        )
        got = set(buckets.bucket_of_pairs(pairs).tolist())
        assert len(got) >= 3

    def test_all_zero_errors_fall_back_uniform(self, setup, rng):
        buckets, labeler = setup
        errors = np.zeros(buckets.num_buckets)
        pairs, phi = error_based_samples(
            buckets, errors, 100, labeler, rng, mode="global"
        )
        assert len(pairs) > 0
        assert len(pairs) == len(phi)

    def test_invalid_mode(self, setup, rng):
        buckets, labeler = setup
        with pytest.raises(ValueError):
            error_based_samples(
                buckets, np.ones(buckets.num_buckets), 10, labeler, rng, mode="x"
            )

    def test_wrong_error_shape(self, setup, rng):
        buckets, labeler = setup
        with pytest.raises(ValueError):
            error_based_samples(buckets, np.ones(3), 10, labeler, rng)


class TestExactBudgets:
    """Every strategy must deliver exactly ``count`` labelled pairs even on
    a graph with unreachable components (regression: the self-pair and
    finite filters used to silently shrink the returned sample set)."""

    def test_random_pairs_exact(self, split_graph, rng):
        labeler = DistanceLabeler(split_graph)
        pairs, phi = random_pair_samples(split_graph, 400, labeler, rng)
        assert pairs.shape == (400, 2)
        assert phi.shape == (400,)
        assert np.isfinite(phi).all()
        assert (pairs[:, 0] != pairs[:, 1]).all()

    def test_landmark_exact(self, split_graph, rng):
        labeler = DistanceLabeler(split_graph)
        landmarks = np.array([0, 4, 12])
        pairs, phi = landmark_samples(split_graph, landmarks, 350, labeler, rng)
        assert pairs.shape == (350, 2)
        assert np.isfinite(phi).all()

    def test_subgraph_level_exact(self, split_graph, rng):
        hierarchy = PartitionHierarchy(split_graph, fanout=2, leaf_size=4, seed=0)
        labeler = DistanceLabeler(split_graph)
        pairs, phi = subgraph_level_samples(hierarchy, 0, 250, labeler, rng)
        assert pairs.shape == (250, 2)
        assert np.isfinite(phi).all()

    def test_grid_bucket_exact(self, split_graph, rng):
        buckets = GridBuckets(split_graph, k=4, seed=0)
        for b in buckets.nonempty_buckets():
            pairs = buckets.sample(int(b), 120, rng)
            if pairs.shape[0]:  # degenerate buckets may hold nothing valid
                assert pairs.shape == (120, 2)
                assert (pairs[:, 0] != pairs[:, 1]).all()

    def test_error_based_exact(self, split_graph, rng):
        buckets = GridBuckets(split_graph, k=4, seed=0)
        labeler = DistanceLabeler(split_graph)
        pairs, phi = error_based_samples(
            buckets, np.ones(buckets.num_buckets), 300, labeler, rng
        )
        assert pairs.shape == (300, 2)
        assert np.isfinite(phi).all()

    def test_degenerate_bucket_returns_empty(self, rng):
        # One isolated-ish vertex per occupied grid cell: bucket 0 holds
        # only same-grid pairs over single-vertex grids.
        coords = np.array([[0.0, 0.0], [9.0, 9.0]])
        g = Graph(2, [(0, 1, 1.0)], coords=coords)
        buckets = GridBuckets(g, k=2, seed=0)
        assert buckets.sample(0, 50, rng).shape == (0, 2)

    def test_validation_set_exact(self, split_graph):
        labeler = DistanceLabeler(split_graph)
        pairs, phi = validation_set(split_graph, 200, labeler, seed=7)
        assert pairs.shape == (200, 2)
        assert np.isfinite(phi).all()


class TestVectorizedLabelGather:
    def test_many_sources_fast_and_exact(self):
        """~50k pairs over ~1k distinct sources: the vectorised gather must
        stay cheap (the old per-source boolean-mask loop was O(S * P)) and
        bit-identical to per-row lookups."""
        graph = grid_city(36, 36, seed=0)  # ~1.3k vertices
        rng = np.random.default_rng(1)
        sources = rng.choice(graph.n, size=1000, replace=False)
        pairs = np.column_stack(
            [
                sources[rng.integers(sources.size, size=50_000)],
                rng.integers(graph.n, size=50_000),
            ]
        ).astype(np.int64)

        labeler = DistanceLabeler(graph, cache_size=2048)
        labeler.label(pairs[:1])  # exclude any lazy one-time setup
        start = time.perf_counter()
        got = labeler.label(pairs)
        elapsed = time.perf_counter() - start
        # Generous bound: dominated by the ~1k SSSP runs, not the gather.
        assert elapsed < 30.0

        check = np.random.default_rng(2).integers(pairs.shape[0], size=200)
        for i in check:
            s, t = pairs[i]
            assert got[i] == labeler.row(int(s))[int(t)]

    def test_gather_bit_identical_to_pair_distances(self, medium_grid, rng):
        labeler = DistanceLabeler(medium_grid)
        pairs = rng.integers(medium_grid.n, size=(5000, 2)).astype(np.int64)
        np.testing.assert_array_equal(
            labeler.label(pairs), pair_distances(medium_grid, pairs)
        )


# ----------------------------------------------------------------------
# One labelling source set per build
# ----------------------------------------------------------------------
class CountingLabeler(DistanceLabeler):
    """Records the distinct sources it is asked to label and returns finite
    dummy distances (1 to every other vertex), running no Dijkstra."""

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        self.sources: set[int] = set()

    def label(self, pairs: np.ndarray) -> np.ndarray:
        pairs = np.asarray(pairs, dtype=np.int64)
        self.sources.update(pairs[:, 0].tolist())
        return np.ones(len(pairs), dtype=np.float64)

    def row(self, source: int) -> np.ndarray:
        self.sources.add(int(source))
        row = np.ones(self.graph.n, dtype=np.float64)
        row[int(source)] = 0.0
        return row


def _pool_cap(groups) -> int:
    """Most sources per-group pools of 4 can hold: the pre-source-set cap."""
    return int(sum(min(4, g.size) for g in groups))


def _fallback_grids(buckets: GridBuckets, sources: np.ndarray) -> list[np.ndarray]:
    """The grids that hold no member of ``sources``."""
    inside = np.zeros(buckets.graph.n, dtype=bool)
    inside[sources] = True
    return [v for v in buckets.grid_vertices.values() if not inside[v].any()]


def stage_source_report(graph: Graph, config: RNEConfig) -> dict:
    """Distinct sources each build stage labels, drawn the way
    :func:`build_rne` draws them but with a :class:`CountingLabeler`.

    Returns per-stage ``(distinct, cap, stray)`` rows and the build's
    structural bound ``|S| + landmarks + 64 + 16 + fallback grid sources``.
    ``cap`` is the most distinct sources the stage could label before the
    shared source set (per-cell and per-grid pools of 4, 512 random
    sources, a 512-source validation pool).  ``stray`` counts sources
    outside what the stage may draw from: ``S`` for the sub-graph levels,
    the joint and the flat stage, ``S`` plus the fallback grids for
    fine-tuning; validation, probe and landmarks are unrestricted (0).
    """
    labeler = CountingLabeler(graph)
    rng = np.random.default_rng(config.seed)
    stages: list[tuple[str, set[int], int, set[int] | None]] = []

    def stage(name: str, draw, cap: int, allowed: set[int] | None = None) -> None:
        labeler.sources = set()
        draw()
        stages.append((name, labeler.sources, cap, allowed))

    stage(
        "validation",
        lambda: validation_set(
            graph, config.validation_size, labeler,
            seed=np.random.default_rng(config.seed + 99),
        ),
        min(512, graph.n),
    )
    stage("probe", lambda: _mean_distance_probe(graph, labeler, rng), 16)
    hierarchy = None
    num_levels = 1
    if config.hierarchical:
        hierarchy = PartitionHierarchy(
            graph, fanout=config.fanout, leaf_size=config.leaf_size, seed=rng
        )
        num_levels = hierarchy.num_subgraph_levels + 1
    sources = source_set(graph, hierarchy, stage_rng(config.seed, "sources"))
    in_s = set(sources.tolist())
    landmarks = min(config.num_landmarks, graph.n) if config.hierarchical else 0
    for step in _stage_table(graph, config, hierarchy, num_levels, labeler, sources):
        if step.sample is None:
            continue
        if step.name == "vertex":
            stage(step.name, step.sample, landmarks)
            continue
        if step.name.startswith("hier_level_"):
            level = int(step.name.rsplit("_", 1)[1])
            cap = _pool_cap(hierarchy.cells(level))
        else:
            cap = min(512, graph.n)
        stage(step.name, step.sample, cap, in_s)
    fallback = 0
    if config.active and graph.coords is not None:
        buckets = GridBuckets(graph, config.grid_k, seed=rng, candidates=sources)
        fallback_grids = _fallback_grids(buckets, sources)
        fallback = _pool_cap(fallback_grids)
        allowed = in_s.union(*(set(v.tolist()) for v in fallback_grids))

        def finetune() -> None:
            for _ in range(config.finetune_rounds):
                error_based_samples(
                    buckets, np.ones(buckets.num_buckets), config.finetune_samples,
                    labeler, rng, mode=config.finetune_mode,
                )

        stage("finetune", finetune, _pool_cap(buckets.grid_vertices.values()), allowed)

    rows = {
        name: (len(got), cap, len(got - allowed) if allowed is not None else 0)
        for name, got, cap, allowed in stages
    }
    everything = set().union(*(got for _, got, _, _ in stages))
    return {
        "stages": rows,
        "source_set": int(sources.size),
        "distinct": len(everything),
        "bound": int(sources.size) + landmarks + 64 + 16 + fallback,
        "fallback": fallback,
    }


def _report_violations(report: dict) -> list[str]:
    bad = []
    for name, (got, cap, stray) in report["stages"].items():
        if got > cap:
            bad.append(f"{name}: {got} distinct sources > cap {cap}")
        if stray:
            bad.append(f"{name}: {stray} sources outside the source set")
    if report["distinct"] > report["bound"]:
        bad.append(f"build: {report['distinct']} distinct sources > bound {report['bound']}")
    return bad


class TestSourceSet:
    @pytest.fixture(scope="class")
    def setting(self):
        graph = grid_city(20, 20, seed=7)
        hierarchy = PartitionHierarchy(graph, fanout=4, leaf_size=8, seed=0)
        sources = source_set(graph, hierarchy, np.random.default_rng(3))
        return graph, hierarchy, sources

    def test_four_per_finest_cell(self, setting):
        graph, hierarchy, sources = setting
        assert np.array_equal(sources, np.unique(sources))
        labels = hierarchy.vertex_labels(hierarchy.num_subgraph_levels - 1)
        cells = hierarchy.cells(hierarchy.num_subgraph_levels - 1)
        per_cell = np.bincount(labels[sources], minlength=len(cells))
        np.testing.assert_array_equal(per_cell, [min(4, c.size) for c in cells])

    def test_flat_is_uniform_pool(self, small_grid):
        graph = grid_city(30, 30, seed=7)
        sources = source_set(graph, None, np.random.default_rng(0))
        assert sources.size == 512 == np.unique(sources).size
        everything = source_set(small_grid, None, np.random.default_rng(0))
        np.testing.assert_array_equal(everything, np.arange(small_grid.n))

    def test_subgraph_level_sources_in_set(self, setting):
        graph, hierarchy, sources = setting
        labeler = CountingLabeler(graph)
        for level in range(hierarchy.num_subgraph_levels):
            labeler.sources = set()
            subgraph_level_samples(
                hierarchy, level, 4000, labeler, np.random.default_rng(level),
                candidates=sources,
            )
            assert labeler.sources <= set(sources.tolist())
            # <= 4 per cell: never more than the cell's own pool.
            assert len(labeler.sources) <= _pool_cap(hierarchy.cells(level))

    def test_joint_sources_in_set(self, setting):
        graph, _, sources = setting
        labeler = CountingLabeler(graph)
        random_pair_samples(
            graph, 5000, labeler, np.random.default_rng(1),
            source_pool_size=40, candidates=sources,
        )
        assert labeler.sources <= set(sources.tolist())
        assert len(labeler.sources) <= 40

    def test_grid_sources_fall_back_only_where_set_is_absent(self, setting):
        graph, _, _ = setting
        # Candidates on the left half only: the right half's grids fall back.
        left = np.nonzero(graph.coords[:, 0] < np.median(graph.coords[:, 0]))[0]
        buckets = GridBuckets(graph, k=6, seed=0, candidates=left)
        labeler = CountingLabeler(graph)
        error_based_samples(
            buckets, np.ones(buckets.num_buckets), 6000, labeler,
            np.random.default_rng(2),
        )
        fallback = _fallback_grids(buckets, left)
        assert fallback  # the right half holds no candidate
        allowed = set(left.tolist()).union(*(set(v.tolist()) for v in fallback))
        assert labeler.sources <= allowed
        for vertices in fallback:
            drawn = labeler.sources & set(vertices.tolist())
            assert 0 < len(drawn) <= 4
        for vertices in buckets.grid_vertices.values():
            drawn = labeler.sources & set(vertices.tolist())
            assert len(drawn) <= 4

    def test_all_vertices_is_the_default(self, setting):
        """``candidates=None`` and every vertex draw identical samples."""
        graph, hierarchy, _ = setting

        def draws(**kwargs):
            labeler = CountingLabeler(graph)
            return (
                subgraph_level_samples(
                    hierarchy, 1, 500, labeler, np.random.default_rng(5), **kwargs
                )[0],
                random_pair_samples(
                    graph, 500, labeler, np.random.default_rng(6), **kwargs
                )[0],
                GridBuckets(graph, k=5, seed=7, **kwargs).sample(
                    3, 200, np.random.default_rng(8)
                ),
            )

        for a, b in zip(draws(), draws(candidates=np.arange(graph.n))):
            np.testing.assert_array_equal(a, b)

    def test_cell_pairs_stay_uniform(self, setting):
        """Sources from S keep Algorithm 2's uniform cell-pair draw."""
        graph, hierarchy, sources = setting
        level = 1
        cells = hierarchy.level_size(level)
        labeler = CountingLabeler(graph)
        pairs, _ = subgraph_level_samples(
            hierarchy, level, 60_000, labeler, np.random.default_rng(11),
            candidates=sources,
        )
        labels = hierarchy.vertex_labels(level)
        source_cells = np.bincount(labels[pairs[:, 0]], minlength=cells)
        target_cells = np.bincount(labels[pairs[:, 1]], minlength=cells)
        joint = np.bincount(
            labels[pairs[:, 0]] * cells + labels[pairs[:, 1]], minlength=cells**2
        )
        for counts in (source_cells, target_cells, joint):
            assert stats.chisquare(counts).pvalue > 1e-3

    @pytest.mark.parametrize(
        "name, graph, config",
        [
            ("default", grid_city(30, 30, seed=7), RNEConfig()),
            ("flat", grid_city(30, 30, seed=7), RNEConfig(hierarchical=False)),
            (
                "no-coords",
                Graph(900, np.column_stack(grid_city(30, 30, seed=7).edge_array())),
                RNEConfig(),
            ),
        ],
    )
    def test_stage_sources_within_caps(self, name, graph, config):
        report = stage_source_report(graph, config)
        assert not _report_violations(report), report
        assert report["stages"]["validation"][0] <= 64

    def test_default_build_sssp_bound(self, monkeypatch):
        import repro.algorithms.landmarks as landmarks

        outside = []
        real = landmarks.sssp_many
        monkeypatch.setattr(
            landmarks, "sssp_many", lambda g, s: outside.append(len(s)) or real(g, s)
        )
        graph = grid_city(24, 24, seed=7)
        config = RNEConfig()
        rne = build_rne(graph, config)
        # Landmark selection fetches its rows through the labeler's cache.
        assert not outside
        sources = source_set(
            graph, rne.hierarchy, stage_rng(config.seed, "sources")
        )
        buckets = GridBuckets(graph, config.grid_k, candidates=sources)
        fallback = _pool_cap(_fallback_grids(buckets, sources))
        bound = sources.size + config.num_landmarks + 64 + 16 + fallback
        assert rne.history.sssp_runs <= bound


def main() -> int:
    graph = grid_city(224, 224, seed=7)
    config = RNEConfig()
    start = time.perf_counter()
    report = stage_source_report(graph, config)
    print(f"labelling sources n={graph.n}: {time.perf_counter() - start:.2f} s")
    for name, (got, cap, stray) in report["stages"].items():
        print(f"  {name:<14} {got:>6} distinct (cap {cap}, stray {stray})")
    print(
        f"  build          {report['distinct']:>6} distinct "
        f"(|S| {report['source_set']}, fallback {report['fallback']}, "
        f"bound {report['bound']})"
    )
    bad = _report_violations(report)
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
