"""Tests for the crash-safe, self-validating artifact layer."""

import os

import numpy as np
import pytest

from repro.core import RNE
from repro.graph import Graph
from repro.reliability import (
    ArtifactError,
    FaultInjector,
    InjectedFault,
    graph_fingerprint,
    installed,
    load_artifact,
    save_artifact,
)
from repro.reliability.artifacts import SCHEMA_VERSION, validate_embedding_payload
from repro.reliability.faults import corrupt_file, truncate_file


@pytest.fixture
def arrays(rng):
    return {
        "matrix": rng.normal(size=(6, 3)),
        "p": np.float64(1.0),
        "ids": np.arange(4, dtype=np.int64),
    }


class TestRoundtrip:
    def test_arrays_and_manifest(self, arrays, tmp_path):
        path = tmp_path / "a.npz"
        save_artifact(path, arrays, kind="embedding", meta={"note": "hi"})
        back, manifest = load_artifact(path, expect_kind="embedding")
        assert set(back) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(back[name], np.asarray(arrays[name]))
            assert back[name].dtype == np.asarray(arrays[name]).dtype
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["meta"] == {"note": "hi"}

    def test_scalar_roundtrips_as_0d(self, tmp_path):
        path = tmp_path / "a.npz"
        save_artifact(path, {"p": np.float64(2.5)}, kind="embedding")
        back, _ = load_artifact(path)
        assert back["p"].ndim == 0
        assert float(back["p"]) == 2.5

    def test_reserved_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_artifact(
                tmp_path / "a.npz", {"__manifest__": np.zeros(1)}, kind="x"
            )


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_artifact(tmp_path / "nope.npz")

    def test_kind_mismatch(self, arrays, tmp_path):
        path = tmp_path / "a.npz"
        save_artifact(path, arrays, kind="embedding")
        with pytest.raises(ArtifactError, match="kind"):
            load_artifact(path, expect_kind="rne")

    def test_legacy_npz_without_manifest(self, tmp_path):
        path = tmp_path / "legacy.npz"
        np.savez(path, matrix=np.zeros((2, 2)))
        with pytest.raises(ArtifactError, match="manifest"):
            load_artifact(path)

    def test_truncated(self, arrays, tmp_path):
        path = tmp_path / "a.npz"
        save_artifact(path, arrays, kind="embedding")
        truncate_file(path, fraction=0.5)
        with pytest.raises(ArtifactError):
            load_artifact(path)

    def test_bit_flipped(self, arrays, tmp_path):
        path = tmp_path / "a.npz"
        save_artifact(path, arrays, kind="embedding")
        corrupt_file(path, seed=5, nbytes=8)
        with pytest.raises(ArtifactError):
            load_artifact(path)

    def test_not_a_zip(self, tmp_path):
        path = tmp_path / "a.npz"
        path.write_bytes(b"this is not an archive")
        with pytest.raises(ArtifactError):
            load_artifact(path)


class TestGraphBinding:
    def test_fingerprint_changes_with_weight(self):
        g1 = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        g2 = Graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        f1, f2 = graph_fingerprint(g1), graph_fingerprint(g2)
        assert f1["n"] == f2["n"] and f1["m"] == f2["m"]
        assert f1["weight_hash"] != f2["weight_hash"]

    def test_wrong_graph_rejected(self, arrays, tmp_path):
        g1 = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        g2 = Graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        path = tmp_path / "a.npz"
        save_artifact(path, arrays, kind="rne", graph=g1)
        load_artifact(path, graph=g1)  # same graph passes
        with pytest.raises(ArtifactError, match="different graph"):
            load_artifact(path, graph=g2)

    def test_unbound_artifact_rejected_when_binding_requested(
        self, arrays, tmp_path
    ):
        g = Graph(2, [(0, 1, 1.0)])
        path = tmp_path / "a.npz"
        save_artifact(path, arrays, kind="rne")
        with pytest.raises(ArtifactError, match="fingerprint"):
            load_artifact(path, graph=g)


class TestAtomicity:
    def test_crash_before_replace_leaves_no_file(self, arrays, tmp_path):
        path = tmp_path / "a.npz"
        with installed(FaultInjector.crash_on("artifact.pre_replace")):
            with pytest.raises(InjectedFault):
                save_artifact(path, arrays, kind="embedding")
        assert not path.exists()
        assert os.listdir(tmp_path) == []  # temp file cleaned up too

    def test_crash_before_write_leaves_no_file(self, arrays, tmp_path):
        path = tmp_path / "a.npz"
        with installed(FaultInjector.crash_on("artifact.pre_write")):
            with pytest.raises(InjectedFault):
                save_artifact(path, arrays, kind="embedding")
        assert os.listdir(tmp_path) == []

    def test_crash_during_overwrite_keeps_old_artifact(self, arrays, tmp_path):
        path = tmp_path / "a.npz"
        save_artifact(path, {"v": np.arange(3)}, kind="embedding")
        with installed(FaultInjector.crash_on("artifact.pre_replace")):
            with pytest.raises(InjectedFault):
                save_artifact(path, arrays, kind="embedding")
        back, _ = load_artifact(path, expect_kind="embedding")
        np.testing.assert_array_equal(back["v"], np.arange(3))

    def test_crash_after_replace_leaves_new_artifact(self, arrays, tmp_path):
        path = tmp_path / "a.npz"
        with installed(FaultInjector.crash_on("artifact.post_replace")):
            with pytest.raises(InjectedFault):
                save_artifact(path, arrays, kind="embedding")
        back, _ = load_artifact(path, expect_kind="embedding")
        assert set(back) == set(arrays)


class TestEmbeddingPayload:
    def test_valid_payload(self):
        matrix, p = validate_embedding_payload(
            "x.npz", np.ones((4, 2)), np.float64(2.0), expect_n=4
        )
        assert matrix.dtype == np.float64
        assert p == 2.0

    def test_float32_payload_keeps_its_dtype(self):
        stored = np.arange(8, dtype=np.float32).reshape(4, 2) / 3
        matrix, _ = validate_embedding_payload("x.npz", stored, 1.0)
        assert matrix.dtype == np.float32
        assert matrix.tobytes() == stored.tobytes()

    @pytest.mark.parametrize("dtype", [np.float16, np.int64, np.complex128, object])
    def test_other_dtypes_rejected(self, dtype):
        with pytest.raises(ArtifactError, match="float32 or float64"):
            validate_embedding_payload("x.npz", np.ones((4, 2), dtype=dtype), 1.0)

    @pytest.mark.parametrize(
        "matrix, p",
        [
            (np.ones(4), 1.0),  # not 2-d
            (np.array([[np.nan, 1.0]]), 1.0),  # non-finite matrix
            (np.ones((4, 2)), 0.5),  # p < 1
            (np.ones((4, 2)), np.inf),  # non-finite p
            (np.ones((4, 2)), np.array([1.0, 2.0])),  # non-scalar p
        ],
    )
    def test_bad_payloads(self, matrix, p):
        with pytest.raises(ArtifactError):
            validate_embedding_payload("x.npz", matrix, p)

    def test_row_count_mismatch(self):
        with pytest.raises(ArtifactError, match="rows"):
            validate_embedding_payload("x.npz", np.ones((4, 2)), 1.0, expect_n=5)


class TestServedDtypeRoundTrip:
    def test_save_load_serves_bit_identical_answers(self, rel_graph, rel_rne, tmp_path):
        """A saved-then-loaded RNE serves the dtype it was built with, so
        distances, kNN and range answers match the in-memory RNE bit for bit."""
        path = tmp_path / "rne.npz"
        rel_rne.save(str(path))
        loaded = RNE.load(str(path), rel_graph)
        built, back = rel_rne.index.snapshot, loaded.index.snapshot
        assert back.matrix.dtype == built.matrix.dtype == np.float32
        for name in ("matrix", "centres", "radii"):
            assert getattr(back, name).tobytes() == getattr(built, name).tobytes()
        rng = np.random.default_rng(4)
        pairs = rng.integers(rel_graph.n, size=(200, 2))
        assert loaded.query_pairs(pairs).tobytes() == rel_rne.query_pairs(pairs).tobytes()
        targets = rng.choice(rel_graph.n, size=20, replace=False)
        sources = np.arange(0, rel_graph.n, 3)
        np.testing.assert_array_equal(
            loaded.knn_join(sources, targets, 5), rel_rne.knn_join(sources, targets, 5)
        )
        tau = float(np.median(rel_rne.model.distances_from(0, targets)))
        for s in sources:
            np.testing.assert_array_equal(
                loaded.range_query(int(s), targets, tau),
                rel_rne.range_query(int(s), targets, tau),
            )
