"""Command-line entry point: run any paper experiment from the shell.

Usage::

    rne list                 # show available experiments
    rne table3               # regenerate Table III
    rne fig11 --fast         # quick, scaled-down version
    rne all                  # everything (slow); failures don't stop the run
    rne train --out model.npz --checkpoint-dir ckpts   # crash-safe training
    rne train --out model.npz --checkpoint-dir ckpts --resume
    rne serve --model model.npz --targets random:64    # stdin query server
    rne query --model model.npz "dist 0 5" "knn 3 2"   # one-shot batch
    rne query --batch queries.txt --stats-out stats.json
    rne update --model model.npz --out model.npz       # live weight update

Equivalent to ``python -m repro.cli <experiment>``.
"""

from __future__ import annotations

import argparse
import sys

from .bench.experiments import EXPERIMENTS


def _run_experiments(names: list[str], *, fast: bool) -> int:
    """Run each experiment, isolating failures.

    A crash in one experiment (bad dataset, diverged training, ...) must not
    take down the rest of an ``rne all`` run: the exception is caught, the
    experiment is reported in a failure summary, and the exit code is 1.
    """
    failed: list[tuple[str, BaseException]] = []
    for name in names:
        print(f"== {name} ==")
        try:
            print(EXPERIMENTS[name](fast=fast))
        except KeyboardInterrupt:
            raise
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            failed.append((name, exc))
            print(
                f"experiment '{name}' failed: {exc.__class__.__name__}: {exc}",
                file=sys.stderr,
            )
        print()
    if failed:
        summary = ", ".join(name for name, _ in failed)
        print(
            f"{len(failed)}/{len(names)} experiment(s) failed: {summary}",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_train(argv: list[str]) -> int:
    """``rne train``: build an RNE with checkpointing and save the artifact."""
    parser = argparse.ArgumentParser(
        prog="rne train",
        description=(
            "Train an RNE on a synthetic grid city with crash-safe "
            "checkpoints; interrupt it and re-run with --resume to continue."
        ),
    )
    parser.add_argument("--out", required=True, help="output artifact (.npz)")
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for per-stage training checkpoints",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest valid checkpoint in --checkpoint-dir",
    )
    parser.add_argument("--size", type=int, default=16, help="grid side length")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    args = parser.parse_args(argv)

    if args.resume and args.checkpoint_dir is None:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2

    from .core.pipeline import RNEConfig, build_rne
    from .graph.generators import grid_city
    from .reliability.checkpoint import TrainingDiverged

    graph = grid_city(args.size, args.size, seed=args.seed)
    try:
        rne = build_rne(
            graph,
            RNEConfig(seed=args.seed),
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
    except TrainingDiverged as exc:
        print(f"training diverged beyond recovery: {exc}", file=sys.stderr)
        return 1
    rne.save(args.out)
    for note in rne.history.notes:
        print(f"note: {note}")
    labeling = rne.history.labeling
    if labeling:
        print(
            f"labeling: sssp_runs={labeling.get('sssp_runs')} "
            f"cache_hits={labeling.get('cache_hits')} "
            f"label_seconds={labeling.get('label_seconds', 0.0):.2f}"
        )
    print(
        f"trained on {graph.n} vertices, final mean relative error "
        f"{rne.history.phase_errors['final'] * 100:.2f}%, saved to {args.out}"
    )
    return 0


def _add_serving_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        default=None,
        help="trained RNE artifact (.npz); omitted = exact-only serving",
    )
    parser.add_argument("--size", type=int, default=16, help="grid side length")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--targets",
        default="all",
        help=(
            "target set for knn/range: 'all', 'random:K', or "
            "comma-separated vertex ids"
        ),
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="micro-batching window (queries per engine batch)",
    )
    parser.add_argument(
        "--stats-out",
        default=None,
        help="write the serving stats snapshot to this JSON file",
    )


def _parse_target_spec(spec: str, n: int, seed: int):
    import numpy as np

    if spec == "all":
        return np.arange(n, dtype=np.int64)
    if spec.startswith("random:"):
        count = int(spec.split(":", 1)[1])
        rng = np.random.default_rng(seed + 1)
        return np.sort(rng.choice(n, size=min(count, n), replace=False)).astype(
            np.int64
        )
    return np.array([int(tok) for tok in spec.split(",")], dtype=np.int64)


def _build_serving_engine(args: argparse.Namespace):
    """The engine (and its graph) behind ``rne serve`` / ``rne query``.

    With ``--model`` the artifact is loaded through ResilientOracle, so a
    corrupt or wrong-graph file degrades to exact serving instead of
    answering wrongly; without it the engine serves exact answers only.
    """
    from .graph.generators import grid_city
    from .reliability.fallback import ResilientOracle
    from .serving import BatchQueryEngine

    graph = grid_city(args.size, args.size, seed=args.seed)
    if args.model is not None:
        oracle = ResilientOracle(graph, args.model)
        if not oracle.healthy:
            print(
                f"serving degraded to exact: {oracle.stats.degraded_reason}",
                file=sys.stderr,
            )
        return oracle.engine, graph
    return BatchQueryEngine(graph=graph), graph


def _serve_and_report(args: argparse.Namespace, lines) -> int:
    import json

    from .serving import serve_lines

    engine, graph = _build_serving_engine(args)
    targets = _parse_target_spec(args.targets, graph.n, args.seed)
    try:
        for answer in serve_lines(
            lines, engine, targets=targets, batch_size=args.batch_size
        ):
            print(answer)
    except BrokenPipeError:  # downstream consumer went away; not an error
        pass
    print(engine.report(), file=sys.stderr)
    if args.stats_out is not None:
        with open(args.stats_out, "w", encoding="utf-8") as fh:
            json.dump(engine.snapshot(), fh, indent=2, sort_keys=True)
        print(f"stats written to {args.stats_out}", file=sys.stderr)
    return 0


def _run_serve(argv: list[str]) -> int:
    """``rne serve``: micro-batched query server reading stdin."""
    parser = argparse.ArgumentParser(
        prog="rne serve",
        description=(
            "Serve queries from stdin, one per line: 'dist S T', 'knn S K', "
            "'range S TAU'.  Answers stream to stdout in input order; a "
            "serving-stats table goes to stderr on shutdown."
        ),
    )
    _add_serving_arguments(parser)
    args = parser.parse_args(argv)
    return _serve_and_report(args, sys.stdin)


def _run_query(argv: list[str]) -> int:
    """``rne query``: one-shot micro-batched queries from argv or a file."""
    parser = argparse.ArgumentParser(
        prog="rne query",
        description=(
            "Answer a batch of queries ('dist S T', 'knn S K', 'range S TAU') "
            "given on the command line or via --batch FILE ('-' = stdin)."
        ),
    )
    _add_serving_arguments(parser)
    parser.add_argument(
        "--batch",
        default=None,
        metavar="FILE",
        help="read queries from FILE, one per line ('-' for stdin)",
    )
    parser.add_argument("queries", nargs="*", help="inline query strings")
    args = parser.parse_args(argv)
    if (args.batch is None) == (not args.queries):
        print("provide either inline queries or --batch FILE", file=sys.stderr)
        return 2
    if args.batch is None:
        lines = list(args.queries)
    elif args.batch == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.batch, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    return _serve_and_report(args, lines)


def _run_update(argv: list[str]) -> int:
    """``rne update``: apply a live edge-weight update to a saved model.

    Loads the artifact, perturbs random edge weights (the reproducible
    stand-in for a real traffic feed), runs the versioned live-update
    lifecycle — incremental retrain, atomic publish, cache/index
    invalidation — and saves the bumped-version artifact back out.
    """
    parser = argparse.ArgumentParser(
        prog="rne update",
        description=(
            "Apply an incremental edge-weight update to a trained RNE "
            "artifact: retrain the affected region, publish atomically, "
            "invalidate serving caches, and re-save with a bumped version."
        ),
    )
    parser.add_argument("--model", required=True, help="trained RNE artifact (.npz)")
    parser.add_argument(
        "--out",
        default=None,
        help="output artifact path (default: overwrite --model in place)",
    )
    parser.add_argument("--size", type=int, default=16, help="grid side length")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--perturb-factor",
        type=float,
        default=2.0,
        help="multiply the chosen edge weights by this factor",
    )
    parser.add_argument(
        "--perturb-count",
        type=int,
        default=10,
        help="number of random edges to reweight",
    )
    parser.add_argument(
        "--hops", type=int, default=2, help="affected-region radius in hops"
    )
    parser.add_argument(
        "--samples", type=int, default=4000, help="training pairs per round"
    )
    parser.add_argument("--rounds", type=int, default=2, help="retraining rounds")
    parser.add_argument(
        "--validation-size", type=int, default=500, help="held-out validation pairs"
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="journal the published embedding into this checkpoint directory",
    )
    parser.add_argument(
        "--stats-out",
        default=None,
        help="write the UpdateStats record to this JSON file",
    )
    args = parser.parse_args(argv)

    import json

    from .core.pipeline import RNE
    from .graph.generators import grid_city
    from .live import LiveUpdateManager, perturb_weights
    from .reliability.artifacts import ArtifactError
    from .reliability.checkpoint import CheckpointManager, TrainingDiverged
    from .serving import BatchQueryEngine

    graph = grid_city(args.size, args.size, seed=args.seed)
    try:
        rne = RNE.load(args.model, graph)
    except ArtifactError as exc:
        print(f"cannot update: {exc}", file=sys.stderr)
        return 1
    if rne.hierarchy is None:
        print("cannot update: artifact has no partition hierarchy", file=sys.stderr)
        return 1
    engine = BatchQueryEngine.from_rne(rne)
    checkpoints = (
        CheckpointManager(args.checkpoint_dir)
        if args.checkpoint_dir is not None
        else None
    )
    manager = LiveUpdateManager(rne, engines=(engine,), checkpoints=checkpoints)
    new_graph, changed = perturb_weights(
        graph,
        factor=args.perturb_factor,
        count=args.perturb_count,
        seed=args.seed + 1,
    )
    try:
        stats = manager.update(
            new_graph,
            changed,
            hops=args.hops,
            samples=args.samples,
            rounds=args.rounds,
            validation_size=args.validation_size,
            seed=args.seed,
        )
    except TrainingDiverged as exc:
        print(f"update diverged beyond recovery: {exc}", file=sys.stderr)
        return 1
    print(stats.report())
    out_path = args.out if args.out is not None else args.model
    rne.save(out_path)
    print(f"artifact saved to {out_path} at version {rne.version}")
    if args.stats_out is not None:
        with open(args.stats_out, "w", encoding="utf-8") as fh:
            json.dump(stats.as_dict(), fh, indent=2, sort_keys=True)
        print(f"stats written to {args.stats_out}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "train":
        return _run_train(argv[1:])
    if argv and argv[0] == "serve":
        return _run_serve(argv[1:])
    if argv and argv[0] == "query":
        return _run_query(argv[1:])
    if argv and argv[0] == "update":
        return _run_update(argv[1:])

    parser = argparse.ArgumentParser(
        prog="rne",
        description="Run RNE reproduction experiments (ICDE 2021 tables/figures).",
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment name (see 'rne list'), 'list', 'all', 'train', "
            "'serve', 'query', or 'update'"
        ),
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="scaled-down datasets and budgets (seconds instead of minutes)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    return _run_experiments(names, fast=args.fast)


if __name__ == "__main__":
    raise SystemExit(main())
