"""Tests for the experiment CLI."""

import pytest

from repro.cli import main
from repro.bench.experiments import EXPERIMENTS


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_requires_argument(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.slow
    def test_fig9_fast_runs(self, capsys):
        assert main(["fig9", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Fig 9" in out


class TestFailureIsolation:
    @pytest.fixture
    def experiments(self, monkeypatch):
        calls = []

        def ok(fast=False):
            calls.append("ok")
            return "fine"

        def boom(fast=False):
            calls.append("boom")
            raise RuntimeError("synthetic failure")

        fakes = {"good": ok, "bad": boom, "also_good": ok}
        monkeypatch.setattr("repro.cli.EXPERIMENTS", fakes)
        return calls

    def test_all_continues_past_failures(self, experiments, capsys):
        assert main(["all"]) == 1
        # The failing experiment did not stop the ones after it.
        assert experiments == ["ok", "boom", "ok"]
        err = capsys.readouterr().err
        assert "experiment 'bad' failed" in err
        assert "RuntimeError: synthetic failure" in err
        assert "1/3 experiment(s) failed: bad" in err

    def test_single_failure_reported(self, experiments, capsys):
        assert main(["bad"]) == 1
        err = capsys.readouterr().err
        assert "1/1 experiment(s) failed: bad" in err

    def test_all_green_exits_zero(self, experiments, capsys):
        assert main(["good"]) == 0
        assert capsys.readouterr().err == ""


class TestTrainCommand:
    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(["train", "--out", "x.npz", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_out_is_required(self):
        with pytest.raises(SystemExit):
            main(["train"])

    @pytest.mark.slow
    def test_train_and_resume_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "model.npz"
        ckpts = tmp_path / "ckpts"
        args = ["train", "--out", str(out), "--checkpoint-dir", str(ckpts),
                "--size", "6", "--seed", "1"]
        assert main(args) == 0
        assert out.exists()
        first = capsys.readouterr().out
        assert "final mean relative error" in first
        # Re-running with --resume skips straight to the end.
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "resumed from checkpoint" in second


class TestServingCli:
    def test_query_inline_exact_only(self, capsys):
        assert main(["query", "--size", "6", "dist 0 5"]) == 0
        captured = capsys.readouterr()
        assert float(captured.out.strip()) > 0
        assert "distances" in captured.err  # stats table on stderr

    def test_query_with_target_set(self, capsys):
        rc = main(["query", "--size", "6", "--targets", "0,5,9", "knn 0 2"])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert len(out.split()) == 2

    def test_query_malformed_line_is_error_answer(self, capsys):
        assert main(["query", "--size", "6", "bogus 1 2"]) == 0
        assert capsys.readouterr().out.startswith("error: unknown operation")

    def test_query_requires_input(self, capsys):
        assert main(["query", "--size", "6"]) == 2
        assert "inline queries or --batch" in capsys.readouterr().err

    def test_query_batch_file(self, tmp_path, capsys):
        batch = tmp_path / "queries.txt"
        batch.write_text("# header\ndist 0 1\nrange 0 0\n")
        assert main(["query", "--size", "6", "--batch", str(batch)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2

    def test_serve_reads_stdin_and_writes_stats(
        self, tmp_path, capsys, monkeypatch
    ):
        import io
        import json

        stats_path = tmp_path / "stats.json"
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("dist 0 5\ndist 1 5\n")
        )
        rc = main(
            ["serve", "--size", "6", "--stats-out", str(stats_path)]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2
        snap = json.loads(stats_path.read_text())
        assert snap["ops"]["exact_distances"]["items"] == 2

    def test_serving_experiment_retired(self):
        """The serving bench's only baseline was the per-query index walk."""
        assert "serving" not in EXPERIMENTS

    def test_labeling_experiment_retired(self):
        """Labelling is checked in tests/core; perfbench times it."""
        assert "labeling" not in EXPERIMENTS


class TestUpdateCommand:
    def test_model_is_required(self):
        with pytest.raises(SystemExit):
            main(["update"])

    def test_missing_artifact_is_clean_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.npz"
        rc = main(["update", "--model", str(missing), "--size", "6"])
        assert rc == 1
        assert "cannot update" in capsys.readouterr().err

    @pytest.mark.slow
    def test_train_then_update_roundtrip(self, tmp_path, capsys):
        import json

        model = tmp_path / "model.npz"
        updated = tmp_path / "updated.npz"
        stats_path = tmp_path / "stats.json"
        assert main(
            ["train", "--out", str(model), "--size", "8", "--seed", "1"]
        ) == 0
        capsys.readouterr()
        rc = main(
            [
                "update", "--model", str(model), "--out", str(updated),
                "--size", "8", "--seed", "1", "--samples", "1500",
                "--rounds", "2", "--validation-size", "200",
                "--stats-out", str(stats_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "version" in out
        assert updated.exists()
        record = json.loads(stats_path.read_text())
        assert record["version_after"] >= record["version_before"]
        # The saved artifact carries the (possibly bumped) version.
        from repro.core.pipeline import RNE
        from repro.graph import grid_city
        from repro.live import perturb_weights

        graph = grid_city(8, 8, seed=1)
        new_graph, _ = perturb_weights(graph, factor=2.0, count=10, seed=2)
        load_graph = new_graph if record["graph_changed"] else graph
        loaded = RNE.load(str(updated), load_graph)
        assert loaded.version == record["version_after"]
