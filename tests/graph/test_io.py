"""Tests for DIMACS / edge-list / embedding serialisation."""

import numpy as np
import pytest

from repro.graph import Graph, GraphError
from repro.graph.io import (
    load_dimacs,
    load_edge_list,
    load_embedding,
    save_dimacs,
    save_edge_list,
    save_embedding,
)
from repro.reliability import ArtifactError
from repro.reliability.faults import corrupt_file, truncate_file


class TestDimacs:
    def test_roundtrip(self, tiny_graph, tmp_path):
        gr = tmp_path / "g.gr"
        co = tmp_path / "g.co"
        save_dimacs(tiny_graph, gr, co)
        back = load_dimacs(gr, co)
        assert back.n == tiny_graph.n
        assert back.m == tiny_graph.m
        np.testing.assert_allclose(back.coords, tiny_graph.coords, atol=1e-5)
        for e in tiny_graph.edges():
            assert back.edge_weight(e.u, e.v) == pytest.approx(e.weight, abs=1e-5)

    def test_roundtrip_without_coords(self, tiny_graph, tmp_path):
        gr = tmp_path / "g.gr"
        save_dimacs(tiny_graph, gr)
        back = load_dimacs(gr)
        assert back.coords is None
        assert back.m == tiny_graph.m

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("c comment\n\np sp 2 2\na 1 2 5.0\na 2 1 5.0\n")
        g = load_dimacs(path)
        assert g.n == 2
        assert g.edge_weight(0, 1) == 5.0

    def test_missing_problem_line(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("a 1 2 5.0\n")
        with pytest.raises(GraphError):
            load_dimacs(path)

    def test_bad_arc_line(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("p sp 2 1\na 1 2\n")
        with pytest.raises(GraphError):
            load_dimacs(path)

    def test_unknown_line_tag(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("p sp 2 1\nx 1 2 3\n")
        with pytest.raises(GraphError):
            load_dimacs(path)

    def test_save_coords_requires_coords(self, tmp_path):
        g = Graph(2, [(0, 1, 1.0)])
        with pytest.raises(GraphError):
            save_dimacs(g, tmp_path / "g.gr", tmp_path / "g.co")

    def test_arc_vertex_id_above_n(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("p sp 2 1\na 1 3 5.0\n")
        with pytest.raises(GraphError, match=r"out of range \[1, 2\] at line 2"):
            load_dimacs(path)

    def test_arc_vertex_id_zero(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("p sp 2 1\na 0 1 5.0\n")
        with pytest.raises(GraphError, match="out of range"):
            load_dimacs(path)

    def test_coordinate_vertex_id_out_of_range(self, tmp_path):
        gr = tmp_path / "g.gr"
        gr.write_text("p sp 2 2\na 1 2 5.0\na 2 1 5.0\n")
        co = tmp_path / "g.co"
        co.write_text("v 3 0.0 0.0\n")
        with pytest.raises(GraphError, match="out of range"):
            load_dimacs(gr, co)

    def test_nonpositive_n_rejected(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("p sp 0 0\n")
        with pytest.raises(GraphError, match="n=0"):
            load_dimacs(path)

    def test_arc_before_problem_line(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("a 1 2 5.0\np sp 2 1\n")
        with pytest.raises(GraphError, match="before"):
            load_dimacs(path)


class TestEdgeList:
    def test_roundtrip(self, tiny_graph, tmp_path):
        path = tmp_path / "edges.txt"
        save_edge_list(tiny_graph, path)
        back = load_edge_list(path)
        assert back.n == tiny_graph.n
        assert back.m == tiny_graph.m

    def test_explicit_n(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 2.5\n")
        g = load_edge_list(path, n=5)
        assert g.n == 5

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# header\n0 1 2.5\n\n1 2 1.5\n")
        g = load_edge_list(path)
        assert g.m == 2

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n")
        with pytest.raises(GraphError):
            load_edge_list(path)


class TestEmbeddingIO:
    def test_roundtrip(self, tmp_path):
        matrix = np.random.default_rng(0).normal(size=(10, 4))
        path = tmp_path / "emb.npz"
        save_embedding(path, matrix, p=1.0)
        back, p = load_embedding(path)
        np.testing.assert_allclose(back, matrix)
        assert p == 1.0

    def test_float32_roundtrip_keeps_dtype(self, tmp_path):
        matrix = np.random.default_rng(0).normal(size=(10, 4)).astype(np.float32)
        path = tmp_path / "emb.npz"
        save_embedding(path, matrix)
        back, _ = load_embedding(path)
        assert back.dtype == np.float32
        assert back.tobytes() == matrix.tobytes()

    def test_non_float_matrix_rejected(self, tmp_path):
        path = tmp_path / "emb.npz"
        save_embedding(path, np.ones((3, 2), dtype=np.float16))
        with pytest.raises(ArtifactError, match="float32 or float64"):
            load_embedding(path)

    def test_p_persisted(self, tmp_path):
        path = tmp_path / "emb.npz"
        save_embedding(path, np.ones((2, 2)), p=2.0)
        _, p = load_embedding(path)
        assert p == 2.0

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "emb.npz"
        save_embedding(path, np.random.default_rng(0).normal(size=(10, 4)))
        corrupt_file(path, seed=2, nbytes=8)
        with pytest.raises(ArtifactError):
            load_embedding(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "emb.npz"
        save_embedding(path, np.ones((10, 4)))
        truncate_file(path, fraction=0.4)
        with pytest.raises(ArtifactError):
            load_embedding(path)

    def test_legacy_npz_rejected(self, tmp_path):
        path = tmp_path / "emb.npz"
        np.savez(path, matrix=np.ones((2, 2)), p=1.0)
        with pytest.raises(ArtifactError, match="manifest"):
            load_embedding(path)

    def test_expect_n_mismatch(self, tmp_path):
        path = tmp_path / "emb.npz"
        save_embedding(path, np.ones((10, 4)))
        load_embedding(path, expect_n=10)  # matching n passes
        with pytest.raises(ArtifactError, match="rows"):
            load_embedding(path, expect_n=11)

    def test_fractional_p_rejected_at_load(self, tmp_path):
        path = tmp_path / "emb.npz"
        save_embedding(path, np.ones((2, 2)), p=0.5)
        with pytest.raises(ArtifactError, match="p"):
            load_embedding(path)

    def test_nonfinite_matrix_rejected(self, tmp_path):
        path = tmp_path / "emb.npz"
        matrix = np.ones((3, 2))
        matrix[1, 1] = np.nan
        save_embedding(path, matrix)
        with pytest.raises(ArtifactError, match="NaN"):
            load_embedding(path)
