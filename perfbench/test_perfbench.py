"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They run a tiny workload through the same harness the named workloads use.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import harness, layers, oracle  # noqa: E402
from perfbench.inputs import WORKLOADS, make_inputs  # noqa: E402
from perfbench.tracing import Span, Tracer, coverage, covered, self_times  # noqa: E402

TINY = replace(
    WORKLOADS["city-live"], name="tiny", grid=12, pois=40, hot_set=60, dist_batch=64,
    knn_sources=4, range_sources=4, updates=2, heldout_sources=8, heldout_targets=8,
    dist_pool=4, knn_pool=8, range_pool=8, builds=2,
)
TINY_TAIL = replace(TINY, name="tiny-tail", hot_set=None, interleaved=False, updates=1)
SECONDS = 0.3


@pytest.fixture(scope="module")
def runs():
    first = harness.run(TINY, 5, SECONDS)
    second = harness.run(TINY, 5, SECONDS)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = harness.run(TINY, 5, SECONDS, tracer)
    finally:
        tracer.uninstall()
    return first, second, traced, tracer


# -- seeds -------------------------------------------------------------------
def test_same_seed_same_inputs_and_results(runs):
    first, second, _, _ = runs
    assert first.inputs.digest == second.inputs.digest
    for a, b in [(first.inputs.dist_batches, second.inputs.dist_batches),
                 (first.inputs.knn_batches, second.inputs.knn_batches),
                 (first.inputs.pois, second.inputs.pois)]:
        np.testing.assert_array_equal(a, b)
    assert first.mean_rel_err == second.mean_rel_err
    assert first.index_bytes == second.index_bytes


def test_other_seed_changes_streams(runs):
    first = runs[0]
    other = make_inputs(TINY, 6)
    assert other.digest != first.inputs.digest
    assert not np.array_equal(other.knn_batches, first.inputs.knn_batches)
    assert not np.array_equal(other.dist_batches, first.inputs.dist_batches)


def test_map_updates_are_the_same_for_every_seed():
    spec = replace(TINY_TAIL, map_updates=True)
    a, b = make_inputs(spec, 1), make_inputs(spec, 2)
    for ua, ub in zip(a.updates, b.updates):
        np.testing.assert_array_equal(ua.changed, ub.changed)
    assert not np.array_equal(a.knn_batches, b.knn_batches)


def test_tail_workload_runs_clean():
    result = harness.run(TINY_TAIL, 2, SECONDS)
    assert harness.is_correct(result)
    # the served model's tail update, and the same update on every rebuild
    assert len(result.update_times) == TINY_TAIL.updates + TINY_TAIL.builds - 1
    assert len(result.build_times) == TINY_TAIL.builds
    assert result.client.after_update == []
    assert all(result.client.latencies[k] for k in harness.KINDS)


def test_repeated_builds_are_timed_and_compared(runs, monkeypatch):
    first = runs[0]
    assert len(first.build_times) == TINY.builds
    assert first.build_mismatches == 0
    assert first.attempted == first.client.attempted + TINY.builds

    honest = harness.build_rne
    calls = []

    def drifting(graph, config):
        rne = honest(graph, config)
        calls.append(1)
        if len(calls) == 2:
            rne.model.matrix = rne.model.matrix + 1e-12
        return rne

    monkeypatch.setattr(harness, "build_rne", drifting)
    result = harness.run(TINY, 5, SECONDS)
    assert result.build_mismatches == 1
    assert result.failed >= 1
    assert not harness.is_correct(result)


def test_builds_are_spread_over_the_run():
    assert harness.build_points(3, 8) == [0, 4, 8]
    assert harness.build_points(3, 3) == [0, 2, 3]
    assert harness.build_points(2, 5) == [0, 5]
    assert harness.build_points(1, 5) == [0]


# -- oracle --------------------------------------------------------------------
def _matrix(n=50, d=6, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


def test_oracle_accepts_correct_and_catches_wrong_knn():
    m = _matrix()
    targets = np.arange(10, 40)
    sources = np.array([0, 1, 2])
    dists = oracle.embedding_distances(m, 1.0, sources, targets)
    good = [targets[np.lexsort((targets, row))[:5]] for row in dists]
    assert oracle.wrong_knn(m, 1.0, sources, targets, good, 5) == 0
    bad = [g.copy() for g in good]
    far = targets[np.argmax(dists[1])]
    bad[1][-1] = far
    assert oracle.wrong_knn(m, 1.0, sources, targets, bad, 5) == 1
    swapped = [g.copy() for g in good]
    swapped[0][[0, 1]] = swapped[0][[1, 0]]
    assert oracle.wrong_knn(m, 1.0, sources, targets, swapped, 5) == 1
    assert oracle.wrong_knn(m, 1.0, sources, targets, good[:2], 5) == 3


def test_oracle_tolerates_only_ties():
    m = np.zeros((4, 2))
    m[1] = [1.0, 0.0]
    m[2] = [0.0, 1.0]  # ties with vertex 1 from source 0
    m[3] = [3.0, 0.0]
    targets = np.array([1, 2, 3])
    assert oracle.wrong_knn(m, 1.0, np.array([0]), targets, [np.array([2, 1])], 2) == 0
    assert oracle.wrong_knn(m, 1.0, np.array([0]), targets, [np.array([1, 3])], 2) == 1
    # range boundary exactly at tau: either answer is accepted
    assert oracle.wrong_range(m, 1.0, np.array([0]), targets, [np.array([1, 2])], 1.0) == 0
    assert oracle.wrong_range(m, 1.0, np.array([0]), targets, [np.array([1])], 1.0) == 0
    assert oracle.wrong_range(m, 1.0, np.array([0]), targets, [np.array([1])], 2.0) == 1


def test_oracle_catches_wrong_range_and_distance():
    m = _matrix(seed=1)
    targets = np.arange(0, 50, 2)
    sources = np.array([1, 3])
    dists = oracle.embedding_distances(m, 1.0, sources, targets)
    tau = float(np.median(dists))
    good = [targets[row <= tau] for row in dists]
    assert oracle.wrong_range(m, 1.0, sources, targets, good, tau) == 0
    dropped = [good[0][1:], good[1]]
    assert oracle.wrong_range(m, 1.0, sources, targets, dropped, tau) == 1
    unsorted = [good[0][::-1], good[1]]
    assert oracle.wrong_range(m, 1.0, sources, targets, unsorted, tau) == 1
    pairs = np.array([[0, 1], [2, 3], [4, 5]])
    d = oracle.pair_distances(m, 1.0, pairs)
    assert oracle.wrong_distances(m, 1.0, pairs, d) == 0
    d[2] += 1e-6
    assert oracle.wrong_distances(m, 1.0, pairs, d) == 1


def test_client_counts_injected_wrong_answer(runs):
    result = runs[0]
    client = harness.Client(result.client.engine, result.inputs, TINY)
    engine = client.engine
    honest = engine.knn

    def corrupt(sources, targets, k):
        out = honest(sources, targets, k)
        out[0] = out[0][::-1].copy()
        return out

    engine.knn = corrupt
    try:
        for _ in range(harness.CHECK_EVERY + 1):
            client.serve("knn")
    finally:
        del engine.knn
    assert client.verify() == 2
    assert client.failed == 2


# -- tracing ---------------------------------------------------------------------
def _span(name, start, end, parent=-1, thread=1):
    return Span(name, thread, start, end, parent, "build")


def test_self_time_nested_and_overlapping_children():
    spans = [
        _span("outer", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),        # overlaps a
        _span("c", 9.0, 12.0, parent=0),       # runs past the parent's end
        _span("a.inner", 1.5, 2.5, parent=1),
        _span("other-thread", 0.0, 10.0, thread=2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(10.0)
    assert coverage(spans, 0) == pytest.approx(0.5)
    assert covered([(0, 1), (0.5, 2), (3, 4)], 0.0, 10.0) == pytest.approx(3.0)


def test_spans_on_another_thread_are_not_children():
    tracer = Tracer()
    started = threading.Event()

    def worker():
        with tracer.span("worker"):
            started.set()
            time.sleep(0.05)

    with tracer.span("main"):
        thread = threading.Thread(target=worker)
        thread.start()
        started.wait(timeout=5)
        with tracer.span("child"):
            time.sleep(0.01)
        thread.join(timeout=5)
    assert not thread.is_alive()
    by_name = {s.name: i for i, s in enumerate(tracer.spans)}
    assert tracer.spans[by_name["worker"]].parent == -1
    assert tracer.spans[by_name["child"]].parent == by_name["main"]
    selfs = self_times(tracer.spans)
    main = tracer.spans[by_name["main"]]
    child = tracer.spans[by_name["child"]]
    assert selfs[by_name["main"]] == pytest.approx(main.seconds - child.seconds)


def test_missing_names_are_absent_layers():
    tracer = Tracer()
    assert not tracer.wrap("repro.parallel:NoSuchPipeline.get", "prefetch.get")
    assert not tracer.wrap("repro.core.training:no_such_trainer", "training.sgd")
    assert not tracer.wrap("repro.no_such_module:f", "x")
    assert tracer.absent == ["prefetch.get", "training.sgd", "x"]
    tracer.uninstall()


def test_tracing_restores_originals_and_keeps_results(runs):
    first, _, traced, tracer = runs
    import repro.core.sampling as sampling

    assert not hasattr(sampling.sssp_many, "__wrapped__")
    assert tracer.absent == []
    assert traced.mean_rel_err == first.mean_rel_err
    assert coverage(tracer.spans, traced.build_span) >= 0.95


# -- names ---------------------------------------------------------------------
def test_emitted_names_match_benchmark_json(runs):
    first, _, traced, tracer = runs
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e = harness.end_to_end(first)
    layer = layers.per_layer(traced, tracer)
    assert {k: u for k, (_, u) in e2e.items()} == declared_e2e
    assert {k: u for k, (_, u) in layer.items()} == declared_layer
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    for name in [*e2e, *layer, *(w["name"] for w in spec["workloads"])]:
        assert pattern.fullmatch(name), name
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert all(np.isfinite(v) for v, _ in [*e2e.values(), *layer.values()])


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [*spec["command"], "--workload", "city-live", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
