"""Tests for the serving throughput/latency benchmark."""

import json

import pytest

from repro.bench.serving import _best_seconds, serving_benchmark
from repro.serving import engine as engine_module


def test_best_seconds_returns_minimum_positive():
    assert _best_seconds(lambda: None, repeats=2) > 0


@pytest.mark.slow
def test_fast_benchmark_schema_and_invariants(tmp_path):
    out = tmp_path / "BENCH_serving.json"
    results = serving_benchmark(fast=True, out_path=str(out))

    assert results["fast"] is True
    dist = results["distances"]
    assert dist["speedup"] > 1.0
    assert set(dist) >= {
        "pairs", "loop_queries_per_second", "batch_queries_per_second",
        "speedup", "meets_10x",
    }
    for op in ("knn", "range"):
        assert results[op]["bit_identical"] is True
        assert results[op]["sources"] > 0
    assert 0.0 <= results["hot_row_hit_rate"] <= 1.0
    assert "distances" in results["ops"]
    assert "hot_rows" in results["caches"]
    assert "report" in results

    on_disk = json.loads(out.read_text())
    assert on_disk["graph"]["vertices"] == results["graph"]["vertices"]


@pytest.mark.slow
def test_warm_pass_mismatch_raises(tmp_path, monkeypatch):
    """A wrong hot-row kNN answer fails the run, not just its report."""
    topk = engine_module._topk_rows
    monkeypatch.setattr(
        engine_module, "_topk_rows", lambda rows, ids, k: topk(rows, ids, k)[:, ::-1]
    )
    with pytest.raises(RuntimeError, match="batched knn differs"):
        serving_benchmark(fast=True, out_path=str(tmp_path / "BENCH_serving.json"))
