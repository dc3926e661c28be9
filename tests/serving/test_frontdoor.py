"""Tests for the micro-batching text front door."""

import numpy as np
import pytest

from repro.algorithms.knn import knn_true, range_true
from repro.serving import BatchQueryEngine, MicroBatcher, parse_query, serve_lines


class TestParseQuery:
    def test_blank_and_comment_lines(self):
        assert parse_query("") is None
        assert parse_query("   ") is None
        assert parse_query("# a comment") is None

    def test_valid_queries(self):
        q = parse_query("dist 3 9")
        assert (q.op, q.source, q.param) == ("dist", 3, 9.0)
        q = parse_query("KNN 2 5")  # case-insensitive op
        assert (q.op, q.source, q.param) == ("knn", 2, 5.0)
        q = parse_query("range 0 2.5")
        assert (q.op, q.source, q.param) == ("range", 0, 2.5)

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("bogus 1 2", "unknown operation"),
            ("dist 1", "takes 2 arguments"),
            ("dist 1 2 3", "takes 2 arguments"),
            ("dist x 2", "bad vertex id"),
            ("knn 1 x", "bad knn parameter"),
            ("knn 1 0", "k must be >= 1"),
            ("range 1 -2", "tau must be >= 0"),
            ("range 1 nan", "tau must be >= 0"),
        ],
    )
    def test_malformed(self, line, reason):
        with pytest.raises(ValueError, match=reason):
            parse_query(line)

    def test_range_tau_zero_is_legal(self):
        assert parse_query("range 1 0").param == 0.0

    def test_range_tau_inf_is_legal(self):
        assert parse_query("range 1 inf").param == np.inf


class TestMicroBatcher:
    def test_bad_batch_size(self, engine):
        with pytest.raises(ValueError):
            MicroBatcher(engine, batch_size=0)

    def test_grouping_one_engine_call_per_group(self, engine):
        batcher = MicroBatcher(engine, batch_size=100)
        tickets = [batcher.submit(f"dist {s} 7") for s in (0, 1, 2, 3)]
        batcher.flush()
        # Four same-target dist queries collapse into ONE distances call.
        assert engine.stats.op("distances").calls == 1
        assert engine.stats.op("distances").items == 4
        answers = [batcher.take(t) for t in tickets]
        assert all(float(a) >= 0 for a in answers)

    def test_auto_flush_at_batch_size(self, engine):
        batcher = MicroBatcher(engine, batch_size=2)
        batcher.submit("dist 0 1")
        assert engine.stats.op("distances").calls == 0
        batcher.submit("dist 2 1")
        assert engine.stats.op("distances").calls == 1

    def test_malformed_line_answers_in_place(self, engine):
        batcher = MicroBatcher(engine)
        ticket = batcher.submit("bogus 1 2")
        assert batcher.take(ticket).startswith("error: unknown operation")
        assert batcher.errors == 1

    def test_blank_line_has_no_ticket(self, engine):
        batcher = MicroBatcher(engine)
        assert batcher.submit("# hi") is None
        assert batcher.submit("") is None

    def test_knn_without_targets_errors(self, engine):
        batcher = MicroBatcher(engine)  # no target set configured
        ticket = batcher.submit("knn 0 3")
        assert batcher.take(ticket) == "error: no target set configured"

    def test_out_of_range_vertex_becomes_error_line(self, engine, small_grid):
        batcher = MicroBatcher(engine)
        good = batcher.submit("dist 0 1")
        bad = batcher.submit(f"dist 0 {small_grid.n + 5}")
        assert batcher.take(bad).startswith("error:")
        assert float(batcher.take(good)) >= 0  # batch not poisoned


class TestServeLines:
    def test_answers_in_input_order(self, engine, stack, small_grid):
        model, index = stack
        targets = np.arange(0, small_grid.n, 3, dtype=np.int64)
        lines = [
            "# warmup comment",
            "dist 0 9",
            "knn 4 3",
            "",
            "range 2 2.5",
            "dist 1 9",
        ]
        answers = list(
            serve_lines(lines, engine, targets=targets, batch_size=4)
        )
        assert len(answers) == 4  # comments/blanks get no answer line
        assert float(answers[0]) == pytest.approx(model.query(0, 9))
        expect_knn = index.knn_query(4, targets, 3)
        assert answers[1] == " ".join(str(int(v)) for v in expect_knn)
        expect_range = index.range_query(2, targets, 2.5)
        assert answers[2] == " ".join(str(int(v)) for v in expect_range)
        assert float(answers[3]) == pytest.approx(model.query(1, 9))

    def test_exact_only_engine_serves_exact_answers(self, small_grid):
        engine = BatchQueryEngine(graph=small_grid)
        targets = np.arange(0, small_grid.n, 4, dtype=np.int64)
        lines = ["dist 0 5", "knn 3 2", "range 6 2.0"]
        answers = list(serve_lines(lines, engine, targets=targets))
        from repro.algorithms.dijkstra import pair_distances

        true_d = pair_distances(
            small_grid, np.array([[0, 5]], dtype=np.int64)
        )[0]
        assert float(answers[0]) == pytest.approx(true_d)
        expect_knn = knn_true(small_grid, 3, targets, 2)
        assert answers[1] == " ".join(str(int(v)) for v in expect_knn)
        expect_range = range_true(small_grid, 6, targets, 2.0)
        assert answers[2] == " ".join(str(int(v)) for v in expect_range)

    def test_multi_window_streaming(self, engine, small_grid):
        lines = [f"dist {i} 0" for i in range(10)]
        answers = list(serve_lines(lines, engine, batch_size=3))
        assert len(answers) == 10
        # Windows of 3 -> at least 4 distances calls (grouped per window).
        assert engine.stats.op("distances").calls >= 4
