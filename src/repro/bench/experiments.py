"""Experiment runners — one per table and figure of the paper's Sec. VII.

Every function regenerates the rows/series of its table or figure on the
synthetic stand-in datasets (see DESIGN.md for the substitution argument),
returns the numbers as a plain dict and renders a text report.  Absolute
values differ from the paper (simulated networks, interpreted Python); the
*shapes* — method ordering, trends across distance/dimension/samples — are
the reproduction targets recorded in EXPERIMENTS.md.

All runners accept ``fast=True`` to shrink workloads for CI-style runs.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import replace

import numpy as np

from ..algorithms.knn import range_true
from ..baselines import DeepWalk, DeepWalkRegression, GeometricEstimator, GTreeIndex
from ..core import (
    BuildHistory,
    DistanceLabeler,
    build_rne,
    error_cdf,
    error_report,
    f1_score,
    random_pair_samples,
)
from ..core.analysis import collapse_fraction, layout_correlation
from ..graph import Graph, delaunay_country, multi_city, radial_city
from .methods import TABLE_METHODS, BuiltMethod, build_method, default_rne_config
from .reporting import format_series, format_table, human_bytes
from .workloads import distance_scale_groups, random_queries, spatial_workload

#: Dataset registry mirroring the scale ordering BJ < FLA < US-W.
DATASET_NAMES = ("BJ-S", "FLA-S", "USW-S")


def _bench_scale() -> float:
    """Global size multiplier, settable via REPRO_BENCH_SCALE."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@functools.lru_cache(maxsize=None)
def get_dataset(name: str, *, fast: bool = False) -> Graph:
    """Build (and cache) one of the named benchmark networks."""
    scale = 0.25 if fast else _bench_scale()
    root = np.sqrt(scale)
    if name == "BJ-S":
        return radial_city(
            max(3, int(round(16 * root))), max(8, int(round(80 * root))), seed=11
        )
    if name == "FLA-S":
        return delaunay_country(max(64, int(round(2600 * scale))), seed=12)
    if name == "USW-S":
        side = max(6, int(round(30 * root)))
        return multi_city(4, side, side, seed=13)
    raise KeyError(f"unknown dataset {name!r}; expected one of {DATASET_NAMES}")


@functools.lru_cache(maxsize=None)
def get_method(dataset: str, method: str, *, fast: bool = False, seed: int = 0) -> BuiltMethod:
    """Build (and cache) a method instance on a named dataset."""
    graph = get_dataset(dataset, fast=fast)
    kwargs = {}
    if method in ("rne", "rne-naive") and fast:
        kwargs["quality"] = "fast"
    return build_method(method, graph, seed=seed, **kwargs)


@functools.lru_cache(maxsize=None)
def get_workload(dataset: str, *, fast: bool = False, count: int | None = None):
    graph = get_dataset(dataset, fast=fast)
    if count is None:
        count = 500 if fast else 2000
    return random_queries(graph, count, seed=101)


def _time_queries(method: BuiltMethod, pairs: np.ndarray, *, repeats: int = 1) -> float:
    """Mean per-query wall time in microseconds."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        method.query_pairs(pairs)
        best = min(best, time.perf_counter() - start)
    return best / len(pairs) * 1e6


# ======================================================================
# Table III + Table IV: the state-of-the-art comparison
# ======================================================================
def comparison(
    *,
    datasets: tuple[str, ...] = DATASET_NAMES,
    methods: tuple[str, ...] | None = None,
    fast: bool = False,
) -> dict:
    """Build every method on every dataset; measure error, query time,
    build time and index size.  Oracle is only run on the smallest dataset,
    reproducing its scalability wall (as the paper does)."""
    if methods is None:
        methods = tuple(TABLE_METHODS)
    records: dict[tuple[str, str], dict] = {}
    for ds in datasets:
        workload = get_workload(ds, fast=fast)
        timing_pairs = workload.pairs[: min(len(workload.pairs), 500)]
        for m in methods:
            if m == "oracle" and ds != datasets[0]:
                continue  # the oracle does not scale; paper runs it on BJ only
            if m == "ch" and fast and ds != datasets[0]:
                continue  # plain-CH queries are slow; trim in fast mode
            built = get_method(ds, m, fast=fast)
            pred = built.query_pairs(workload.pairs)
            rep = error_report(pred, workload.truth)
            records[(ds, m)] = {
                "mean_rel": rep.mean_rel,
                "query_us": _time_queries(built, timing_pairs),
                "build_s": built.build_seconds,
                "index_bytes": built.index_bytes(),
                "exact": built.exact,
            }
    return {"datasets": datasets, "methods": methods, "records": records}


def table3(*, fast: bool = False, data: dict | None = None) -> str:
    """Table III: mean relative error (%) and query time per method."""
    data = data or comparison(fast=fast)
    rows = []
    for m in data["methods"]:
        row: list[object] = [m]
        for ds in data["datasets"]:
            rec = data["records"].get((ds, m))
            if rec is None:
                row.append("-")
            elif rec["exact"]:
                row.append("0 (exact)")
            else:
                row.append(f"{rec['mean_rel'] * 100:.2f}")
        for ds in data["datasets"]:
            rec = data["records"].get((ds, m))
            row.append("-" if rec is None else f"{rec['query_us']:.2f}")
        rows.append(row)
    headers = ["method"] + [f"err% {d}" for d in data["datasets"]] + [
        f"us/q {d}" for d in data["datasets"]
    ]
    return format_table(headers, rows, title="Table III — mean relative error and query time")


def table4(*, fast: bool = False, data: dict | None = None) -> str:
    """Table IV: index size and building time per method."""
    data = data or comparison(fast=fast)
    rows = []
    for m in data["methods"]:
        if m in ("euclidean", "manhattan"):
            continue  # no index, as in the paper's Table IV
        row: list[object] = [m]
        for ds in data["datasets"]:
            rec = data["records"].get((ds, m))
            row.append("-" if rec is None else human_bytes(rec["index_bytes"]))
        for ds in data["datasets"]:
            rec = data["records"].get((ds, m))
            row.append("-" if rec is None else f"{rec['build_s']:.1f}s")
        rows.append(row)
    headers = ["method"] + [f"size {d}" for d in data["datasets"]] + [
        f"build {d}" for d in data["datasets"]
    ]
    return format_table(headers, rows, title="Table IV — index size and building time")


# ======================================================================
# Fig. 9: the effect of the Lp metric
# ======================================================================
def fig9_lp(
    *,
    ps: tuple[float, ...] = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0),
    fast: bool = False,
) -> dict:
    """Train identically configured RNEs varying only the metric order p."""
    graph = get_dataset("BJ-S", fast=fast)
    errors: dict[float, float] = {}
    for p in ps:
        config = default_rne_config(graph, quality="fast" if fast else "standard")
        config.p = p
        config.seed = 7
        rne = build_rne(graph, config)
        errors[p] = rne.history.phase_errors["final"]
    report = format_series(
        "Fig 9 — e_rel vs Lp metric", list(errors), [e * 100 for e in errors.values()],
        x_label="p", y_label="mean e_rel %",
    )
    return {"errors": errors, "report": report}


# ======================================================================
# Fig. 10: the effect of dimension d (vs training volume)
# ======================================================================
def fig10_dimension(
    *,
    dims: tuple[int, ...] = (8, 16, 32, 64),
    sample_multipliers: tuple[int, ...] = (4, 16, 64),
    fast: bool = False,
) -> dict:
    """Error as a function of d and of the vertex-phase sample budget."""
    graph = get_dataset("BJ-S", fast=fast)
    if fast:
        dims = dims[:2]
        sample_multipliers = sample_multipliers[:2]
    table: dict[int, dict[int, float]] = {}
    for d in dims:
        table[d] = {}
        for mult in sample_multipliers:
            config = default_rne_config(graph, quality="fast" if fast else "standard")
            config.d = d
            config.vertex_samples = mult * graph.n
            config.seed = 5
            rne = build_rne(graph, config)
            table[d][mult] = rne.history.phase_errors["final"]
    rows = [
        [f"d={d}"] + [f"{table[d][m] * 100:.2f}" for m in sample_multipliers]
        for d in dims
    ]
    report = format_table(
        ["model"] + [f"{m}x|V| samples" for m in sample_multipliers],
        rows,
        title="Fig 10 — e_rel (%) vs dimension and training volume",
    )
    return {"table": table, "report": report}


# ======================================================================
# Fig. 11 (+ Figs. 7/8): hierarchical training and active fine-tuning
# ======================================================================
def _stage_curve(history: BuildHistory) -> list[tuple[str, int, float]]:
    """``(stage, cumulative pairs trained, validation error after it)``
    for every stage of a build, in build order."""
    curve = []
    consumed = 0
    for name, pairs in history.phase_pairs.items():
        consumed += pairs
        curve.append((name, consumed, history.phase_errors[f"after_{name}"]))
    return curve


def fig11_hier_aft(*, fast: bool = False, seed: int = 3) -> dict:
    """Training curves of RNE-Naive / RNE-Hier, each with and without
    active fine-tuning: two :func:`build_rne` runs from one seed, which
    therefore share one validation set.

    The Hier curve is its build's stage record (pairs trained against the
    validation error after each stage).  The flat arm has a single stage,
    so its curve points are flat builds at growing ``vertex_samples``.
    "RNE-X" is an arm's error before its ``finetune`` stage, "RNE-X-AFT"
    its ``after_finetune``, and the AFT tails are the fine-tuning rounds'
    validation errors.  Also reports the Fig. 7 layout statistics of the
    two served matrices.
    """
    graph = get_dataset("BJ-S", fast=fast)
    config = replace(
        default_rne_config(graph, quality="fast" if fast else "standard"), seed=seed
    )
    naive_config = replace(config, hierarchical=False)
    builds = {
        "naive": build_rne(graph, naive_config),
        "hier": build_rne(graph, config),
    }
    curves = {
        arm: [(pairs, err) for name, pairs, err in _stage_curve(rne.history)
              if name != "finetune"]
        for arm, rne in builds.items()
    }
    for div in (2, 4):
        history = build_rne(graph, replace(
            naive_config, vertex_samples=config.vertex_samples // div, active=False
        )).history
        curves["naive"].insert(
            0, (history.phase_pairs["flat"], history.phase_errors["after_flat"])
        )
    arms = (("naive", "RNE-Naive"), ("hier", "RNE-Hier"))
    final = {}
    for arm, label in arms:
        final[label] = curves[arm][-1][1]
        final[f"{label}-AFT"] = builds[arm].history.phase_errors["after_finetune"]
    matrices = {arm: rne.model.matrix for arm, rne in builds.items()}
    collapse = {arm: collapse_fraction(m) for arm, m in matrices.items()}
    layout = {arm: layout_correlation(m, graph.coords) for arm, m in matrices.items()}
    result = {
        "naive_curve": curves["naive"],
        "hier_curve": curves["hier"],
        "naive_aft": builds["naive"].history.finetune.mean_rel_errors,
        "hier_aft": builds["hier"].history.finetune.mean_rel_errors,
        "final": final,
        "collapse_fraction": collapse,
        "layout_correlation": layout,
    }
    lines = [
        format_series(
            f"Fig 11 — {label}", [s for s, _ in curves[arm]],
            [e * 100 for _, e in curves[arm]], x_label="pairs trained",
            y_label="e_rel %",
        )
        for arm, label in arms
    ] + [
        format_series(
            f"Fig 11 — {label}-AFT", list(range(len(result[f"{arm}_aft"]))),
            [e * 100 for e in result[f"{arm}_aft"]], x_label="round",
            y_label="e_rel %",
        )
        for arm, label in arms
    ] + [
        format_table(
            ["model", "e_rel %"],
            [[k, f"{v * 100:.2f}"] for k, v in final.items()],
            title="Fig 11 — errors before and after active fine-tuning",
        ),
        format_table(
            ["model", "collapsed pair fraction", "layout correlation"],
            [[k, f"{collapse[k]:.4f}", f"{layout[k]:.3f}"] for k in collapse],
            title="Fig 7 — embedding layout statistics",
        ),
    ]
    result["report"] = "\n\n".join(lines)
    return result


# ======================================================================
# Fig. 12: landmark-count ablation
# ======================================================================
def fig12_landmarks(
    *,
    counts: tuple[int, ...] | None = None,
    fast: bool = False,
    seed: int = 9,
) -> dict:
    """Vertex-phase sample selection: |U| random landmarks vs uniform sources.

    Each arm is one :func:`build_rne` run; the arms differ only in
    ``num_landmarks``.  Fine-tuning and the joint polish are off, so the
    vertex stage is each build's last, and every arm trains the same
    hierarchy phase (stages draw from their own RNG streams).  "Random" is
    the ``|U| = |V|`` arm, whose landmark samples have uniform sources.
    ``best`` is each arm's validation error after its vertex stage and
    ``traces`` the vertex stage's per-epoch training error.  The paper's
    finding is that a *moderate* |U| beats both extremes.
    """
    graph = get_dataset("BJ-S", fast=fast)
    if counts is None:
        counts = (4, 16, 128) if fast else (10, 100, 1000)
    base = replace(
        default_rne_config(graph, quality="fast" if fast else "standard"),
        seed=seed, landmark_strategy="random", active=False, joint_epochs=0,
    )
    arms = {f"LM{min(c, graph.n)}": min(c, graph.n) for c in counts}
    arms["Random"] = graph.n
    traces: dict[str, list[float]] = {}
    best: dict[str, float] = {}
    for name, count in arms.items():
        history = build_rne(graph, replace(base, num_landmarks=count)).history
        traces[name] = history.train_results["vertex"].mean_rel_error
        best[name] = history.phase_errors["after_vertex"]
    report = format_table(
        ["strategy", "e_rel % after vertex stage"],
        [[k, f"{v * 100:.2f}"] for k, v in best.items()],
        title="Fig 12 — landmark-based sample selection (validation error)",
    )
    return {"traces": traces, "best": best, "report": report}


# ======================================================================
# Fig. 13: query time vs distance scale
# ======================================================================
def fig13_time_vs_distance(
    *,
    dataset: str = "BJ-S",
    methods: tuple[str, ...] = ("ch", "ach", "h2h", "lt", "rne"),
    fast: bool = False,
) -> dict:
    """Per-group mean query time for each method (Fig. 13)."""
    graph = get_dataset(dataset, fast=fast)
    groups = distance_scale_groups(
        graph, num_groups=3 if fast else 5, per_group=100 if fast else 400, seed=21
    )
    del graph
    times: dict[str, list[float]] = {m: [] for m in methods}
    for m in methods:
        built = get_method(dataset, m, fast=fast)
        for group in groups:
            times[m].append(_time_queries(built, group.pairs))
    bounds = [g.upper_bound for g in groups]
    lines = [
        format_series(
            f"Fig 13 — {m}", bounds, times[m],
            x_label="distance bound", y_label="us/query",
        )
        for m in methods
    ]
    return {"bounds": bounds, "times": times, "report": "\n\n".join(lines)}


# ======================================================================
# Fig. 14: representation-function ablation (RNE vs DR vs geometry)
# ======================================================================
def fig14_representation(
    *,
    multipliers: tuple[int, ...] = (1, 4, 16),
    fast: bool = False,
    seed: int = 14,
) -> dict:
    """e_rel of RNE and DR-1K/10K/100K versus training-set size, with the
    Euclidean/Manhattan constants as horizontal baselines."""
    graph = get_dataset("BJ-S", fast=fast)
    labeler = DistanceLabeler(graph)
    workload = get_workload("BJ-S", fast=fast)
    if fast:
        multipliers = multipliers[:2]

    results: dict[str, dict[int, float]] = {}
    # Geometry baselines — training-free constants.
    for metric in ("euclidean", "manhattan"):
        est = GeometricEstimator(graph, metric)
        err = error_report(est.query_pairs(workload.pairs), workload.truth).mean_rel
        results[metric] = {m: err for m in multipliers}

    # One shared DeepWalk embedding for the three DR sizes.
    dw = DeepWalk(graph, 16 if fast else 64, seed=2)
    dr_sizes = ("1K",) if fast else ("1K", "10K", "100K")
    rng = np.random.default_rng(seed)
    for size in dr_sizes:
        results[f"DR-{size}"] = {}
        for mult in multipliers:
            dr = DeepWalkRegression(graph, size, deepwalk=dw, seed=3)
            pairs, phi = random_pair_samples(graph, mult * graph.n, labeler, rng)
            dr.fit(pairs, phi, epochs=10 if fast else 30, seed=3)
            err = error_report(dr.query_pairs(workload.pairs), workload.truth).mean_rel
            results[f"DR-{size}"][mult] = err

    results["RNE"] = {}
    for mult in multipliers:
        config = default_rne_config(graph, quality="fast" if fast else "standard")
        config.vertex_samples = mult * graph.n
        config.seed = 4
        rne = build_rne(graph, config)
        err = error_report(rne.query_pairs(workload.pairs), workload.truth).mean_rel
        results["RNE"][mult] = err

    rows = [
        [name] + [f"{results[name][m] * 100:.2f}" for m in multipliers]
        for name in results
    ]
    report = format_table(
        ["model"] + [f"{m}x|V|" for m in multipliers],
        rows,
        title="Fig 14 — e_rel (%) vs representation function and training size",
    )
    return {"results": results, "report": report}


# ======================================================================
# Fig. 15: cumulative error distribution
# ======================================================================
def fig15_error_cdf(
    *,
    dataset: str = "BJ-S",
    methods: tuple[str, ...] = ("rne", "ach", "lt", "oracle", "euclidean", "manhattan"),
    thresholds: tuple[float, ...] = (0.005, 0.01, 0.02, 0.05, 0.10, 0.20),
    fast: bool = False,
) -> dict:
    """Share of queries below each relative-error threshold, per method."""
    workload = get_workload(dataset, fast=fast)
    curves: dict[str, np.ndarray] = {}
    for m in methods:
        built = get_method(dataset, m, fast=fast)
        pred = built.query_pairs(workload.pairs)
        curves[m] = error_cdf(pred, workload.truth, np.array(thresholds))
    lines = [
        format_series(
            f"Fig 15 — {m}", [f"{t * 100:g}%" for t in thresholds],
            list(curves[m] * 100), x_label="error <=", y_label="% of queries",
        )
        for m in methods
    ]
    return {"thresholds": thresholds, "curves": curves, "report": "\n\n".join(lines)}


# ======================================================================
# Fig. 16: range (and kNN) query performance
# ======================================================================
def fig16_range_knn(
    *,
    dataset: str = "BJ-S",
    tau_fractions: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3),
    k_values: tuple[int, ...] = (1, 5, 10),
    fast: bool = False,
) -> dict:
    """F1 and query time of range/kNN methods against exact ground truth.

    Methods: RNE's embedding tree index, the G-tree (V-tree stand-in,
    exact), the distance oracle, and KD-tree Euclidean/Manhattan.
    """
    graph = get_dataset(dataset, fast=fast)
    work = spatial_workload(
        graph,
        num_sources=10 if fast else 40,
        num_targets=min(graph.n // 2, 100 if fast else 400),
        seed=31,
    )
    rne_built = get_method(dataset, "rne", fast=fast)
    rne = rne_built.impl
    gtree = GTreeIndex(graph, num_cells=8 if fast else 16, seed=1)
    euclid = GeometricEstimator(graph, "euclidean")
    manhattan = GeometricEstimator(graph, "manhattan")
    oracle = get_method(dataset, "oracle", fast=fast).impl

    diameter = float(np.max(rne.model.query_pairs(get_workload(dataset, fast=fast).pairs)))
    taus = [f * diameter for f in tau_fractions]

    range_methods = {
        "RNE": rne.range_query,
        "G-tree": gtree.range_query,
        "Oracle": lambda s, targets, tau: np.array(
            [t for t in targets if oracle.query(int(s), int(t)) <= tau], dtype=np.int64
        ),
        "Euclidean": euclid.range_query,
        "Manhattan": manhattan.range_query,
    }
    f1: dict[str, list[float]] = {m: [] for m in range_methods}
    qtime: dict[str, list[float]] = {m: [] for m in range_methods}
    for tau in taus:
        exact = {
            int(s): range_true(graph, int(s), work.targets, tau) for s in work.sources
        }
        for name, fn in range_methods.items():
            scores = []
            start = time.perf_counter()
            for s in work.sources:
                got = fn(int(s), work.targets, tau)
                scores.append(f1_score(got, exact[int(s)]))
            qtime[name].append(
                (time.perf_counter() - start) / len(work.sources) * 1e6
            )
            f1[name].append(float(np.mean(scores)))

    # kNN recall@k (same methods via their kNN entry points).
    from ..algorithms.knn import knn_true

    knn_methods = {
        "RNE": rne.knn,
        "G-tree": gtree.knn,
        "Euclidean": euclid.knn,
        "Manhattan": manhattan.knn,
    }
    knn_f1: dict[str, list[float]] = {m: [] for m in knn_methods}
    for k in k_values:
        exact_k = {
            int(s): knn_true(graph, int(s), work.targets, k) for s in work.sources
        }
        for name, fn in knn_methods.items():
            scores = [
                f1_score(fn(int(s), work.targets, k), exact_k[int(s)])
                for s in work.sources
            ]
            knn_f1[name].append(float(np.mean(scores)))

    lines = []
    for name in range_methods:
        lines.append(
            format_series(
                f"Fig 16 — range F1, {name}",
                [f"{f:.2f}D" for f in tau_fractions], f1[name],
                x_label="tau", y_label="F1",
            )
        )
    lines.append(
        format_table(
            ["method"] + [f"us/q tau={f:.2f}D" for f in tau_fractions],
            [[m] + [f"{t:.1f}" for t in qtime[m]] for m in range_methods],
            title="Fig 16 — range query time",
        )
    )
    lines.append(
        format_table(
            ["method"] + [f"F1@k={k}" for k in k_values],
            [[m] + [f"{v:.3f}" for v in knn_f1[m]] for m in knn_methods],
            title="Fig 16 — kNN accuracy",
        )
    )
    return {
        "taus": taus,
        "f1": f1,
        "qtime": qtime,
        "knn_f1": knn_f1,
        "report": "\n\n".join(lines),
    }


# ======================================================================
# Fig. 17: errors across distance scales
# ======================================================================
def fig17_error_vs_distance(
    *,
    dataset: str = "BJ-S",
    methods: tuple[str, ...] = ("rne", "ach", "lt", "oracle"),
    fast: bool = False,
) -> dict:
    """Per-distance-group e_rel (line) and e_abs (bar) for each method."""
    graph = get_dataset(dataset, fast=fast)
    groups = distance_scale_groups(
        graph, num_groups=3 if fast else 5, per_group=150 if fast else 500, seed=22
    )
    del graph
    rel: dict[str, list[float]] = {m: [] for m in methods}
    abs_: dict[str, list[float]] = {m: [] for m in methods}
    for m in methods:
        built = get_method(dataset, m, fast=fast)
        for group in groups:
            pred = built.query_pairs(group.pairs)
            rep = error_report(pred, group.truth)
            rel[m].append(rep.mean_rel)
            abs_[m].append(rep.mean_abs)
    bounds = [g.upper_bound for g in groups]
    lines = []
    for m in methods:
        lines.append(
            format_series(
                f"Fig 17 — {m} e_rel %", bounds, [e * 100 for e in rel[m]],
                x_label="distance bound", y_label="e_rel %",
            )
        )
        lines.append(
            format_series(
                f"Fig 17 — {m} e_abs", bounds, abs_[m],
                x_label="distance bound", y_label="e_abs",
            )
        )
    return {"bounds": bounds, "rel": rel, "abs": abs_, "report": "\n\n".join(lines)}


def _ablation_runner(name: str):
    def run(**kw):
        from . import ablations

        fn = getattr(ablations, name)
        return fn(**kw)["report"]

    return run


#: name -> runner, used by the CLI.
EXPERIMENTS = {
    "table3": lambda **kw: table3(**kw),
    "table4": lambda **kw: table4(**kw),
    "fig9": lambda **kw: fig9_lp(**kw)["report"],
    "fig10": lambda **kw: fig10_dimension(**kw)["report"],
    "fig11": lambda **kw: fig11_hier_aft(**kw)["report"],
    "fig12": lambda **kw: fig12_landmarks(**kw)["report"],
    "fig13": lambda **kw: fig13_time_vs_distance(**kw)["report"],
    "fig14": lambda **kw: fig14_representation(**kw)["report"],
    "fig15": lambda **kw: fig15_error_cdf(**kw)["report"],
    "fig16": lambda **kw: fig16_range_knn(**kw)["report"],
    "fig17": lambda **kw: fig17_error_vs_distance(**kw)["report"],
    "ablate-joint": _ablation_runner("ablate_joint_pass"),
    "ablate-optimizer": _ablation_runner("ablate_optimizer"),
    "ablate-landmarks": _ablation_runner("ablate_landmark_strategy"),
    "scaling": _ablation_runner("scaling_experiment"),
}
