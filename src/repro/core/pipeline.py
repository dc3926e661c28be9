"""End-to-end RNE construction — Algorithm 1 as a one-call facade.

:func:`build_rne` runs the full pipeline of the paper:

1. build the partition hierarchy (Sec. IV-A),
2. **hierarchy phase** — train the local embeddings level by level with the
   focused learning-rate schedule and sub-graph-level samples,
3. **vertex phase** — freeze the sub-graph levels and train the vertex
   level on landmark-based samples,
4. **active fine-tuning** — error-driven sample selection on grid buckets,
5. freeze everything into a flat :class:`~repro.core.model.RNEModel` plus a
   tree index for range/kNN queries.

Steps 2-4 are rows of one stage table (:func:`_stage_table`) run by one
loop (:func:`_run_stages`).  ``hierarchical=False`` skips the hierarchy:
the model is a one-level hierarchy (the flat table) trained on random
pairs — the paper's RNE-Naive ablation arm.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from ..algorithms.landmarks import LANDMARK_STRATEGIES, select_landmarks
from ..graph import Graph, PartitionHierarchy
from ..reliability.artifacts import (
    ArtifactError,
    artifact_version,
    load_artifact,
    save_artifact,
    validate_embedding_payload,
)
from ..reliability.checkpoint import (
    CheckpointManager,
    RetryPolicy,
    abort_on_nonfinite,
    pack_state,
    restore_rng,
    rng_state,
    rollback_pair,
    run_with_recovery,
    unpack_state,
)
from .finetune import FinetuneResult, active_finetune
from .hierarchical import HierarchicalRNE
from .index import (
    EmbeddingTreeIndex,
    PreparedTargets,
    ServingSnapshot,
    knn_frontier,
    range_frontier,
)
from .metrics import ErrorReport, error_report
from .model import RNEModel
from .sampling import (
    DistanceLabeler,
    GridBuckets,
    landmark_samples,
    random_pair_samples,
    source_set,
    stage_rng as _stage_rng,
    subgraph_level_samples,
    validation_set,
)
from .training import (
    AdamState,
    TrainConfig,
    TrainResult,
    level_schedule,
    train_hierarchical,
    vertex_only_schedule,
)


@dataclass
class RNEConfig:
    """All knobs of the construction pipeline, with paper-informed defaults
    scaled down to the synthetic-network sizes this repo runs."""

    d: int = 32
    p: float = 1.0
    # hierarchy
    hierarchical: bool = True
    fanout: int = 4
    leaf_size: int = 32
    # phase 1
    hier_samples_per_level: int = 15_000
    hier_epochs: int = 4
    # phase 2
    vertex_samples: int = 60_000
    vertex_epochs: int = 5
    num_landmarks: int = 100
    landmark_strategy: str = "farthest"
    # phase 2.5 (engineering addition, see DESIGN.md): after the vertex
    # phase, train ALL levels jointly on random pairs at a reduced rate.
    # The focused schedule of phase 1 can leave coarse levels slightly
    # inconsistent with the trained vertex level; a short joint polish
    # lets them co-adjust, roughly halving the pre-fine-tuning error on
    # irregular networks.  Set joint_epochs=0 for the paper's exact recipe.
    joint_epochs: int = 4
    joint_samples: int = 50_000
    joint_lr_weight: float = 0.3
    # phase 3
    active: bool = True
    finetune_rounds: int = 4
    finetune_samples: int = 8_000
    finetune_mode: str = "global"
    grid_k: int = 12
    # optimisation
    optimizer: str = "adam"
    lr: float = 0.02
    batch_size: int = 2048
    # evaluation
    validation_size: int = 4000
    seed: int = 0

    def train_config(self, epochs: int, *, lr: float | None = None) -> TrainConfig:
        return TrainConfig(
            epochs=epochs,
            batch_size=self.batch_size,
            lr=self.lr if lr is None else lr,
            optimizer=self.optimizer,
        )


@dataclass
class BuildHistory:
    """Everything measured during construction."""

    #: ``after_<stage>`` validation error per stage, plus ``final``
    #: (measured on the served matrix).
    phase_errors: dict[str, float] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Pairs trained per stage (pairs x epochs).
    phase_pairs: dict[str, int] = field(default_factory=dict)
    train_results: dict[str, TrainResult] = field(default_factory=dict)
    finetune: FinetuneResult | None = None
    build_seconds: float = 0.0
    sssp_runs: int = 0
    labeling: dict[str, Any] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


class RNE:
    """A trained road-network embedding: the queryable end product."""

    def __init__(
        self,
        graph: Graph,
        model: RNEModel,
        hierarchy: PartitionHierarchy | None,
        history: BuildHistory,
        *,
        version: int = 0,
    ) -> None:
        if version < 0:
            raise ValueError(f"version must be >= 0, got {version}")
        self.graph = graph
        self.model = model
        self.hierarchy = hierarchy
        self.history = history
        #: Monotonic embedding version; bumped by every published live
        #: update (see :mod:`repro.live`) and persisted with the artifact.
        self.version = int(version)
        self.index = (
            EmbeddingTreeIndex(hierarchy, model.matrix, model.p, version=self.version)
            if hierarchy is not None
            else None
        )

    # -- distance queries ------------------------------------------------
    def query(self, s: int, t: int) -> float:
        """Approximate shortest-path distance, O(d)."""
        return self.model.query(s, t)

    def query_pairs(self, pairs: np.ndarray) -> np.ndarray:
        return self.model.query_pairs(pairs)

    # -- spatial queries ---------------------------------------------------
    # All three run the index's batched kernels (a brute scan of every
    # target without an index) on one snapshot, and obey the shared
    # contract: ascending ``(distance, id)`` kNN order with
    # ``min(k, #unique targets)`` results, ascending sorted range ids.
    def knn(self, source: int, targets: np.ndarray, k: int) -> np.ndarray:
        """k nearest targets of ``source`` by embedding distance."""
        row: np.ndarray = self.knn_join(np.array([source], dtype=np.int64), targets, k)[0]
        return row

    def range_query(self, source: int, targets: np.ndarray, tau: float) -> np.ndarray:
        """Targets within embedding distance ``tau`` (ascending sorted ids)."""
        if not tau >= 0:  # also rejects NaN
            raise ValueError(f"tau must be >= 0, got {tau}")
        snap, prepared = self._serving(targets)
        sources = np.array([source], dtype=np.int64)
        return range_frontier(snap, prepared, sources, tau, self.model.p, self.index)[0]

    def knn_join(self, sources: np.ndarray, targets: np.ndarray, k: int) -> np.ndarray:
        """k nearest targets for *every* source — the paper's Uber workload.

        Returns a ``(len(sources), min(k, #unique targets))`` id array, one
        row per source (duplicate targets count once).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        sources = np.asarray(sources, dtype=np.int64)
        snap, prepared = self._serving(targets)
        out = np.empty((sources.size, min(k, prepared.m)), dtype=np.int64)
        if out.size:
            out[:] = knn_frontier(
                snap, prepared, sources, out.shape[1], self.model.p, self.index
            )
        return out

    def _serving(self, targets: np.ndarray) -> tuple[ServingSnapshot, PreparedTargets]:
        """The published snapshot and the prepared target set for one call."""
        ids = np.asarray(targets, dtype=np.int64)
        if self.index is None:
            snap = ServingSnapshot.of_matrix(self.version, self.model.matrix)
            return snap, PreparedTargets.flat(self.model.n, ids)
        return self.index.snapshot, self.index.prepare(ids)

    # -- persistence -------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist the trained artefact (matrix, metric, tree structure).

        Written through the reliability artifact layer: atomic replace, a
        manifest with per-array checksums, and the training graph's
        fingerprint so the artifact can only be revived against the same
        network.
        """
        arrays = {"matrix": self.model.matrix, "p": np.float64(self.model.p)}
        if self.hierarchy is not None:
            arrays["anc_rows"] = self.hierarchy.anc_rows
        save_artifact(
            path,
            arrays,
            kind="rne",
            graph=self.graph,
            meta={"version": int(self.version)},
        )

    @classmethod
    def load(cls, path: str, graph: Graph) -> "RNE":
        """Revive a saved RNE against its (verified-identical) graph.

        Raises :class:`~repro.reliability.artifacts.ArtifactError` when the
        file is corrupt, truncated, schema-incompatible, or was trained on
        a different graph — a loaded RNE never silently mis-answers.
        """
        arrays, manifest = load_artifact(path, expect_kind="rne", graph=graph)
        if "matrix" not in arrays or "p" not in arrays:
            raise ArtifactError(f"{path}: RNE artifact is missing arrays")
        matrix, p = validate_embedding_payload(
            path, arrays["matrix"], arrays["p"], expect_n=graph.n
        )
        model = RNEModel(matrix, p=p)
        hierarchy = None
        if "anc_rows" in arrays:
            try:
                hierarchy = PartitionHierarchy.from_ancestor_rows(
                    graph, arrays["anc_rows"]
                )
            except ValueError as exc:
                raise ArtifactError(
                    f"{path}: stored hierarchy is inconsistent with the "
                    f"graph: {exc}"
                ) from exc
        return cls(
            graph,
            model,
            hierarchy,
            BuildHistory(),
            version=artifact_version(manifest),
        )

    # -- accounting --------------------------------------------------------
    def index_bytes(self) -> int:
        total = self.model.index_bytes()
        if self.index is not None:
            total += self.index.index_bytes()
        return total

    def validate(self, pairs: np.ndarray, phi: np.ndarray) -> ErrorReport:
        """Error report of this model on a labelled pair set."""
        return error_report(self.query_pairs(pairs), phi)


def _mean_distance_probe(
    graph: Graph, labeler: DistanceLabeler, rng: np.random.Generator
) -> float:
    _, phi = random_pair_samples(graph, 512, labeler, rng, source_pool_size=16)
    return float(np.mean(phi)) if phi.size else 1.0


def build_rne(
    graph: Graph,
    config: RNEConfig | None = None,
    *,
    seed: int | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> RNE:
    """Train an RNE for ``graph`` — the paper's Algorithm 1 end to end.

    ``seed`` overrides ``config.seed`` when given, so callers can vary the
    randomness without rebuilding a config.

    ``checkpoint_dir`` enables crash-safe per-stage checkpoints (each phase
    of Algorithm 1 is a stage); with ``resume=True`` the build restores the
    latest *valid* checkpoint from that directory — corrupt ones are
    skipped — and re-runs only the remaining stages.  A resumed build is
    bit-identical to an uninterrupted one because checkpoints carry the
    embedding state, the Adam moments with their per-level step counts
    (``optimizer="adam"`` only) and the RNG stream position.  Each
    training stage also runs under divergence recovery: non-finite or
    regressing loss rolls the stage back and retries at a reduced learning
    rate (see :mod:`repro.reliability.checkpoint`).

    Ground-truth labelling runs in-process: each stage labels its samples
    on the training thread just before it trains.
    """
    if config is None:
        config = RNEConfig()
    if seed is not None:
        config = replace(config, seed=seed)
    _check_config(config)
    rng = np.random.default_rng(config.seed)
    labeler = DistanceLabeler(graph)
    history = BuildHistory()
    start = time.perf_counter()
    manager = (
        CheckpointManager(checkpoint_dir, graph=graph)
        if checkpoint_dir is not None
        else None
    )

    val_pairs, val_phi = validation_set(
        graph, config.validation_size, labeler,
        seed=np.random.default_rng(config.seed + 99),
    )
    mean_phi = _mean_distance_probe(graph, labeler, rng)
    # The hierarchy and initial embeddings are rebuilt deterministically
    # from config.seed on every call, so a resumed run only needs the
    # checkpointed block, Adam state and RNG position to be
    # bit-identical to an uninterrupted one.
    scale = _init_scale(mean_phi, config.d)
    hierarchy: PartitionHierarchy | None = None
    if config.hierarchical:
        hierarchy = PartitionHierarchy(
            graph, fanout=config.fanout, leaf_size=config.leaf_size, seed=rng
        )
    hmodel = HierarchicalRNE(
        hierarchy, config.d, n=graph.n, p=config.p, init_scale=scale, seed=rng
    )
    # One labelling source set for every stage, from its own stream.
    sources = source_set(graph, hierarchy, _stage_rng(config.seed, "sources"))
    stages = _stage_table(
        graph, config, hierarchy, hmodel.num_levels, labeler, sources
    )
    _run_stages(
        stages, graph, config, hmodel, rng, labeler, history, val_pairs,
        val_phi, sources, manager=manager, resume=resume,
    )
    history.labeling = labeler.snapshot()

    history.build_seconds = time.perf_counter() - start
    history.sssp_runs = labeler.sssp_runs
    rne = RNE(graph, hmodel.to_model(), hierarchy, history)
    history.phase_errors["final"] = rne.validate(val_pairs, val_phi).mean_rel
    return rne


def _check_config(config: RNEConfig) -> None:
    """Reject a bad config before anything is labelled or trained.

    Called by :func:`build_rne` rather than ``__post_init__`` because
    callers edit configs after construction.  Without it a bad stage
    option only failed when its stage started, after every earlier stage
    had run, and a bad ``p`` or ``validation_size=0`` surfaced as a
    mis-typed :class:`~repro.reliability.checkpoint.TrainingDiverged`.
    """
    config.train_config(1)  # batch_size, lr and optimizer
    if not (np.isfinite(config.p) and config.p > 0):
        raise ValueError(f"RNEConfig.p must be finite and > 0, got {config.p}")
    for name in (
        "d", "hier_epochs", "vertex_epochs", "num_landmarks", "grid_k",
        "validation_size",
    ):
        if getattr(config, name) < 1:
            raise ValueError(
                f"RNEConfig.{name} must be >= 1, got {getattr(config, name)}"
            )
    if config.finetune_mode not in ("global", "local"):
        raise ValueError(
            "RNEConfig.finetune_mode must be 'global' or 'local', "
            f"got {config.finetune_mode!r}"
        )
    if config.landmark_strategy not in LANDMARK_STRATEGIES:
        raise ValueError(
            f"RNEConfig.landmark_strategy must be one of {LANDMARK_STRATEGIES}, "
            f"got {config.landmark_strategy!r}"
        )


def _init_scale(mean_phi: float, d: int) -> float:
    """Std-dev so random init produces distances of the right magnitude.

    For L1 and normal init, ``E||x - y||_1 = d * 2 * sigma / sqrt(pi)``;
    solve for sigma at the probed mean distance.
    """
    return mean_phi * np.sqrt(np.pi) / (2.0 * d)


def _serialize_history(history: BuildHistory) -> dict[str, Any]:
    """JSON-safe fragment of the build history for checkpoint manifests."""
    return {
        "phase_errors": {k: float(v) for k, v in history.phase_errors.items()},
        "phase_seconds": {k: float(v) for k, v in history.phase_seconds.items()},
        "phase_pairs": {k: int(v) for k, v in history.phase_pairs.items()},
        "train_results": {
            name: {"mse": list(res.mse), "mean_rel_error": list(res.mean_rel_error)}
            for name, res in history.train_results.items()
        },
        "finetune_errors": (
            list(history.finetune.mean_rel_errors)
            if history.finetune is not None
            else None
        ),
        "notes": list(history.notes),
    }


def _restore_history(history: BuildHistory, meta: dict[str, Any]) -> None:
    history.phase_errors.update(
        {k: float(v) for k, v in meta.get("phase_errors", {}).items()}
    )
    history.phase_seconds.update(
        {k: float(v) for k, v in meta.get("phase_seconds", {}).items()}
    )
    history.phase_pairs.update(
        {k: int(v) for k, v in meta.get("phase_pairs", {}).items()}
    )
    for name, payload in meta.get("train_results", {}).items():
        history.train_results[name] = TrainResult(
            mse=[float(v) for v in payload["mse"]],
            mean_rel_error=[float(v) for v in payload["mean_rel_error"]],
        )
    if meta.get("finetune_errors"):
        history.finetune = FinetuneResult(
            mean_rel_errors=[float(v) for v in meta["finetune_errors"]],
            bucket_errors=[],
        )
    for note in meta.get("notes", []):
        if note not in history.notes:
            history.notes.append(note)


def _restore_latest(
    manager: CheckpointManager,
    stage_names: list[str],
    block: np.ndarray,
    adam: AdamState | None,
    rng: np.random.Generator,
    history: BuildHistory,
) -> int:
    """Load the latest valid checkpoint into the live training state.

    Returns the index of the restored stage in ``stage_names``, or ``-1``
    when nothing usable was found (fresh start).  Corrupt or mismatched
    checkpoints are noted and skipped, never trusted.
    """
    found = manager.latest()
    for path, reason in manager.skipped:
        history.notes.append(
            f"skipped corrupt checkpoint {os.path.basename(path)}: {reason}"
        )
    if found is None:
        return -1
    stage, arrays, meta = found
    if stage not in stage_names or int(meta.get("step", -1)) != stage_names.index(stage):
        history.notes.append(
            f"checkpoint stage {stage!r} does not match this configuration; "
            "starting fresh"
        )
        return -1
    try:
        unpack_state(arrays, meta, block, adam)
    except ArtifactError as exc:
        history.notes.append(f"checkpoint {stage!r} unusable: {exc}; starting fresh")
        return -1
    restore_rng(rng, meta["rng_state"])
    _restore_history(history, meta)
    history.notes.append(f"resumed from checkpoint {stage!r}")
    return stage_names.index(stage)


@dataclass(frozen=True)
class _Stage:
    """One training step of Algorithm 1: a row of the stage table.

    ``sample`` draws and labels the step's pairs from the step's own RNG
    stream, so it never touches the model or the main RNG.
    ``sample=None`` marks active fine-tuning, whose error-driven draws
    depend on the live model; it applies its vertex-only ``level_lrs``
    inside :func:`active_finetune`.  ``lr`` is the base learning rate
    that divergence recovery backs off from.
    """

    name: str
    sample: Callable[[], tuple[np.ndarray, np.ndarray]] | None
    level_lrs: np.ndarray
    epochs: int
    lr: float


def _stage_table(
    graph: Graph,
    config: RNEConfig,
    hierarchy: PartitionHierarchy | None,
    num_levels: int,
    labeler: DistanceLabeler,
    sources: np.ndarray,
) -> list[_Stage]:
    """Algorithm 1 as data: the training steps :func:`_run_stages` runs.

    With a hierarchy: one focused step per sub-graph level, the vertex
    step on landmark samples, the joint polish (when ``joint_epochs > 0``).
    Without one (``hierarchical=False``, RNE-Naive) the one-level model
    has a single step on random pairs.  Either arm ends with active
    fine-tuning when ``active`` is set and the graph has coordinates.
    Every sampling step draws its sources from ``sources`` (the build's
    :func:`~repro.core.sampling.source_set`); the vertex step's sources
    are the landmarks, whose selection rows go through the labeler's cache.
    """
    seed = config.seed
    stages: list[_Stage] = []
    if hierarchy is None:
        # Same sample budget and epochs as the hierarchical arm, for fair
        # ablations.
        budget = config.hier_samples_per_level + config.vertex_samples
        stages.append(_Stage(
            "flat",
            lambda: random_pair_samples(
                graph, budget, labeler, _stage_rng(seed, "flat"),
                candidates=sources,
            ),
            np.ones(1, dtype=np.float64),
            config.hier_epochs + config.vertex_epochs,
            config.lr,
        ))
    else:
        for focus in range(hierarchy.num_subgraph_levels):
            name = f"hier_level_{focus}"
            stages.append(_Stage(
                name,
                lambda _f=focus, _n=name: subgraph_level_samples(
                    hierarchy, _f, config.hier_samples_per_level, labeler,
                    _stage_rng(seed, _n), candidates=sources,
                ),
                level_schedule(focus, num_levels),
                config.hier_epochs,
                config.lr,
            ))
        stages.append(_Stage(
            "vertex",
            lambda: landmark_samples(
                graph,
                select_landmarks(
                    graph,
                    min(config.num_landmarks, graph.n),
                    strategy=config.landmark_strategy,
                    seed=_stage_rng(seed, "landmarks"),
                    sssp_row=labeler.row,
                ),
                config.vertex_samples,
                labeler,
                _stage_rng(seed, "vertex"),
            ),
            vertex_only_schedule(num_levels),
            config.vertex_epochs,
            config.lr,
        ))
        if config.joint_epochs > 0:
            stages.append(_Stage(
                "joint",
                lambda: random_pair_samples(
                    graph, config.joint_samples, labeler, _stage_rng(seed, "joint"),
                    candidates=sources,
                ),
                np.full(num_levels, config.joint_lr_weight, dtype=np.float64),
                config.joint_epochs,
                config.lr,
            ))
    if config.active and graph.coords is not None:
        stages.append(_Stage(
            "finetune",
            None,
            vertex_only_schedule(num_levels),
            2,
            config.lr / 4 if hierarchy is None else config.lr / 2,
        ))
    return stages


def _run_stages(
    stages: list[_Stage],
    graph: Graph,
    config: RNEConfig,
    hmodel: HierarchicalRNE,
    rng: np.random.Generator,
    labeler: DistanceLabeler,
    history: BuildHistory,
    val_pairs: np.ndarray,
    val_phi: np.ndarray,
    sources: np.ndarray,
    *,
    manager: CheckpointManager | None,
    resume: bool,
) -> None:
    """Train ``hmodel`` in place through the stage table, one loop for all.

    Each sampling step labels its pairs just before it trains.  Each
    step runs under divergence recovery, records its training history,
    the pairs it trained (``phase_pairs``) and its validation error
    (``phase_errors["after_<name>"]``), and writes a checkpoint.  With
    ``resume`` the latest valid checkpoint is restored first and only the
    later steps run; skipped steps consume no RNG draws, because the
    restored stream position already accounts for them.
    """
    names = [stage.name for stage in stages]
    adam = AdamState.for_model(hmodel) if config.optimizer == "adam" else None
    done = -1
    if manager is not None and resume:
        done = _restore_latest(manager, names, hmodel.block, adam, rng, history)
    snapshot, restore = rollback_pair(hmodel.block, adam, rng)

    for step, stage in enumerate(stages):
        if step <= done:
            continue
        stage_start = time.perf_counter()
        if stage.sample is None:
            buckets = GridBuckets(
                graph, config.grid_k, seed=rng, candidates=sources
            )
            outcome = run_with_recovery(
                lambda scale, _s=stage: active_finetune(
                    hmodel,
                    buckets,
                    labeler,
                    val_pairs,
                    val_phi,
                    rounds=config.finetune_rounds,
                    samples_per_round=config.finetune_samples,
                    mode=config.finetune_mode,
                    config=config.train_config(_s.epochs, lr=_s.lr * scale),
                    seed=rng,
                ),
                snapshot,
                restore,
                stage=stage.name,
                history_of=lambda r: r.mean_rel_errors,
            )
            history.finetune = outcome.result
            pairs_trained = outcome.result.pairs_labelled * stage.epochs
        else:
            pairs, phi = stage.sample()
            outcome = run_with_recovery(
                lambda scale, _s=stage: train_hierarchical(
                    hmodel,
                    pairs,
                    phi,
                    _s.level_lrs,
                    config.train_config(_s.epochs, lr=_s.lr * scale),
                    rng,
                    adam=adam,
                    on_epoch=abort_on_nonfinite(_s.name),
                ),
                snapshot,
                restore,
                stage=stage.name,
            )
            history.train_results[stage.name] = outcome.result
            pairs_trained = len(pairs) * stage.epochs
        history.notes.extend(outcome.notes)
        history.phase_seconds[stage.name] = time.perf_counter() - stage_start
        history.phase_pairs[stage.name] = pairs_trained
        history.phase_errors[f"after_{stage.name}"] = error_report(
            hmodel.query_pairs(val_pairs), val_phi
        ).mean_rel
        if manager is not None:
            arrays, meta = pack_state(hmodel.block, adam)
            meta["rng_state"] = rng_state(rng)
            meta.update(_serialize_history(history))
            manager.save(stage.name, arrays, meta, step=step)

    if config.active and graph.coords is None:
        note = "graph has no coordinates: fine-tuning skipped"
        if note not in history.notes:
            history.notes.append(note)
