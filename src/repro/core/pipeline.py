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

``hierarchical=False`` skips the hierarchy and trains a flat table on
random pairs — the paper's RNE-Naive ablation arm.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from ..algorithms.landmarks import select_landmarks
from ..graph import Graph, PartitionHierarchy
from ..parallel import PrefetchPipeline, make_labeler, resolve_workers
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
    run_with_recovery,
    unpack_state,
)
from .finetune import FinetuneResult, active_finetune
from .hierarchical import HierarchicalRNE
from .index import EmbeddingTreeIndex
from .metrics import ErrorReport, error_report
from .model import RNEModel, _topk_rows, lp_distance
from .sampling import (
    DistanceLabeler,
    GridBuckets,
    landmark_samples,
    random_pair_samples,
    stage_rng as _stage_rng,
    subgraph_level_samples,
    validation_set,
)
from .training import (
    TrainConfig,
    TrainResult,
    clone_adam_states,
    level_schedule,
    new_adam_states,
    train_flat,
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
    # data pipeline: `workers=None` defers to the REPRO_WORKERS environment
    # variable (default serial); `prefetch` overlaps phase-(k+1) sample
    # labelling with phase-k SGD epochs.  Neither affects trained values:
    # sampling uses per-stage RNG streams and the parallel labeler is
    # bit-identical to the serial one.
    workers: int | None = None
    prefetch: bool = True
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

    phase_errors: dict[str, float] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)
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
            EmbeddingTreeIndex(hierarchy, model.matrix, model.p)
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
    def knn(self, source: int, targets: np.ndarray, k: int) -> np.ndarray:
        """k nearest targets via the tree index (brute scan without one).

        Both paths obey the shared contract: ascending ``(distance, id)``
        order, ``min(k, #unique targets)`` results.
        """
        if self.index is not None:
            return self.index.knn_query(source, targets, k)
        return self.model.knn_brute(source, targets, k)

    def range_query(self, source: int, targets: np.ndarray, tau: float) -> np.ndarray:
        """Targets within embedding distance ``tau`` (ascending sorted ids)."""
        if self.index is not None:
            return self.index.range_query(source, targets, tau)
        targets = np.unique(np.asarray(targets, dtype=np.int64))
        dists = self.model.distances_from(source, targets)
        return targets[dists <= tau]

    def knn_join(self, sources: np.ndarray, targets: np.ndarray, k: int) -> np.ndarray:
        """k nearest targets for *every* source — the paper's Uber workload.

        Returns a ``(len(sources), min(k, #unique targets))`` id array, each
        row in ascending ``(distance, id)`` order per the shared kNN
        contract (duplicate targets count once).  Vectorised over the full
        source x target distance matrix in chunks, so a 10k x 1k join is a
        handful of numpy ops rather than 10M scalar queries.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.unique(np.asarray(targets, dtype=np.int64))
        k_eff = min(k, targets.size)
        out = np.empty((sources.size, k_eff), dtype=np.int64)
        t_vecs = self.model.matrix[targets]
        chunk = max(1, 2_000_000 // max(targets.size, 1))
        for start in range(0, sources.size, chunk):
            block = sources[start : start + chunk]
            diff = self.model.matrix[block][:, None, :] - t_vecs[None, :, :]
            dists = lp_distance(diff, self.model.p)
            out[start : start + chunk] = _topk_rows(dists, targets, k_eff)
        return out

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
    embedding state, the per-level Adam moments and the RNG stream
    position.  Each training stage also runs under divergence recovery:
    non-finite or regressing loss rolls the stage back and retries at a
    reduced learning rate (see :mod:`repro.reliability.checkpoint`).

    ``config.workers`` fans ground-truth labelling over a process pool and
    ``config.prefetch`` overlaps each phase's sample labelling with the
    previous phase's SGD epochs (see :mod:`repro.parallel`); both are pure
    speed knobs — the trained embedding is bit-identical for any setting.
    """
    if config is None:
        config = RNEConfig()
    if seed is not None:
        config = replace(config, seed=seed)
    rng = np.random.default_rng(config.seed)
    labeler = make_labeler(graph, workers=config.workers)
    history = BuildHistory()
    start = time.perf_counter()
    manager = (
        CheckpointManager(checkpoint_dir, graph=graph)
        if checkpoint_dir is not None
        else None
    )

    try:
        val_pairs, val_phi = validation_set(
            graph, config.validation_size, labeler,
            seed=np.random.default_rng(config.seed + 99),
        )
        mean_phi = _mean_distance_probe(graph, labeler, rng)

        if config.hierarchical:
            model, hierarchy = _build_hierarchical(
                graph, config, rng, labeler, history, val_pairs, val_phi, mean_phi,
                manager=manager, resume=resume,
            )
        else:
            model, hierarchy = _build_flat(
                graph, config, rng, labeler, history, val_pairs, val_phi, mean_phi,
                manager=manager, resume=resume,
            )
        history.labeling = labeler.snapshot()
    finally:
        labeler.close()

    history.build_seconds = time.perf_counter() - start
    history.sssp_runs = labeler.sssp_runs
    rne = RNE(graph, model, hierarchy, history)
    history.phase_errors["final"] = rne.validate(val_pairs, val_phi).mean_rel
    return rne


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
    matrices: list[np.ndarray],
    adam_states: list[Any] | None,
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
        unpack_state(arrays, meta, matrices, adam_states)
    except ArtifactError as exc:
        history.notes.append(f"checkpoint {stage!r} unusable: {exc}; starting fresh")
        return -1
    restore_rng(rng, meta["rng_state"])
    _restore_history(history, meta)
    history.notes.append(f"resumed from checkpoint {stage!r}")
    return stage_names.index(stage)


def _build_hierarchical(
    graph: Graph,
    config: RNEConfig,
    rng: np.random.Generator,
    labeler: DistanceLabeler,
    history: BuildHistory,
    val_pairs: np.ndarray,
    val_phi: np.ndarray,
    mean_phi: float,
    *,
    manager: CheckpointManager | None = None,
    resume: bool = False,
) -> tuple[RNEModel, PartitionHierarchy]:
    # The hierarchy and initial embeddings are reconstructed
    # deterministically from config.seed on every call, so a resumed run
    # only needs the checkpointed matrices / Adam moments / RNG position to
    # be bit-identical to an uninterrupted one.
    hierarchy = PartitionHierarchy(
        graph, fanout=config.fanout, leaf_size=config.leaf_size, seed=rng
    )
    hmodel = HierarchicalRNE(
        hierarchy,
        config.d,
        p=config.p,
        init_scale=_init_scale(mean_phi, config.d),
        seed=rng,
    )
    adam = new_adam_states(hmodel)

    stage_names = [f"hier_level_{f}" for f in range(hierarchy.num_subgraph_levels)]
    stage_names.append("vertex")
    if config.joint_epochs > 0:
        stage_names.append("joint")
    run_finetune = config.active and graph.coords is not None
    if run_finetune:
        stage_names.append("finetune")

    resume_step = -1
    if manager is not None and resume:
        resume_step = _restore_latest(
            manager, stage_names, hmodel.locals, adam, rng, history
        )

    def pending(name: str) -> bool:
        # Skipped stages consume no RNG draws: the restored stream position
        # already accounts for everything up to and including the checkpoint.
        return stage_names.index(name) > resume_step

    def snapshot() -> tuple[Any, ...]:
        return (
            [m.copy() for m in hmodel.locals],
            clone_adam_states(adam),
            rng_state(rng),
        )

    def restore(snap: tuple[Any, ...]) -> None:
        mats, states, rstate = snap
        for matrix, saved in zip(hmodel.locals, mats):
            matrix[...] = saved
        for cur, saved in zip(adam, states):
            cur.m[...] = saved.m
            cur.v[...] = saved.v
            cur.t = saved.t
        restore_rng(rng, rstate)

    def run_stage(
        name: str,
        attempt: Callable[[float], Any],
        *,
        history_of: Callable[[Any], Sequence[float]] | None = None,
    ) -> Any:
        outcome = run_with_recovery(
            attempt, snapshot, restore, stage=name, history_of=history_of
        )
        history.notes.extend(outcome.notes)
        return outcome.result

    def checkpoint(name: str) -> None:
        if manager is None:
            return
        arrays, meta = pack_state(hmodel.locals, adam)
        meta["rng_state"] = rng_state(rng)
        meta["worker_config"] = {
            "workers": resolve_workers(config.workers),
            "prefetch": bool(config.prefetch),
        }
        meta.update(_serialize_history(history))
        manager.save(name, arrays, meta, step=stage_names.index(name))

    # Sample generation + labelling for every pending training stage is
    # queued on the prefetch pipeline: each job draws from its own
    # per-stage RNG stream (see _stage_rng), so phase-(k+1) labelling can
    # run on the background thread while phase-k SGD epochs consume the
    # main RNG — bit-identical to the synchronous order either way.
    pipeline = PrefetchPipeline(enabled=config.prefetch)
    for focus in range(hierarchy.num_subgraph_levels):
        name = f"hier_level_{focus}"
        if pending(name):
            pipeline.add(
                name,
                lambda _f=focus, _n=name: subgraph_level_samples(
                    hierarchy,
                    _f,
                    config.hier_samples_per_level,
                    labeler,
                    _stage_rng(config.seed, _n),
                ),
            )
    if pending("vertex"):
        landmarks = select_landmarks(
            graph,
            min(config.num_landmarks, graph.n),
            strategy=config.landmark_strategy,
            seed=_stage_rng(config.seed, "landmarks"),
        )
        pipeline.add(
            "vertex",
            lambda _lm=landmarks: landmark_samples(
                graph,
                _lm,
                config.vertex_samples,
                labeler,
                _stage_rng(config.seed, "vertex"),
            ),
        )
    if config.joint_epochs > 0 and pending("joint"):
        pipeline.add(
            "joint",
            lambda: random_pair_samples(
                graph,
                config.joint_samples,
                labeler,
                _stage_rng(config.seed, "joint"),
            ),
        )
    pipeline.start()

    try:
        # Phase 1: level-by-level hierarchy embedding.
        for focus in range(hierarchy.num_subgraph_levels):
            name = f"hier_level_{focus}"
            if not pending(name):
                continue
            stage_start = time.perf_counter()
            pairs, phi = pipeline.get(name)
            schedule = level_schedule(focus, hmodel.num_levels)

            def attempt(
                lr_scale: float,
                _pairs: np.ndarray = pairs,
                _phi: np.ndarray = phi,
                _schedule: np.ndarray = schedule,
                _name: str = name,
            ) -> TrainResult:
                return train_hierarchical(
                    hmodel,
                    _pairs,
                    _phi,
                    _schedule,
                    config.train_config(config.hier_epochs, lr=config.lr * lr_scale),
                    rng,
                    adam_states=adam,
                    on_epoch=abort_on_nonfinite(_name),
                )

            history.train_results[name] = run_stage(name, attempt)
            history.phase_seconds[name] = time.perf_counter() - stage_start
            if focus == hierarchy.num_subgraph_levels - 1:
                history.phase_errors["after_hierarchy"] = error_report(
                    hmodel.query_pairs(val_pairs), val_phi
                ).mean_rel
            checkpoint(name)

        # Phase 2: vertex embedding on landmark samples, coarse levels frozen.
        if pending("vertex"):
            stage_start = time.perf_counter()
            pairs, phi = pipeline.get("vertex")

            def attempt_vertex(
                lr_scale: float, _pairs: np.ndarray = pairs, _phi: np.ndarray = phi
            ) -> TrainResult:
                return train_hierarchical(
                    hmodel,
                    _pairs,
                    _phi,
                    vertex_only_schedule(hmodel.num_levels),
                    config.train_config(config.vertex_epochs, lr=config.lr * lr_scale),
                    rng,
                    adam_states=adam,
                    on_epoch=abort_on_nonfinite("vertex"),
                )

            history.train_results["vertex"] = run_stage("vertex", attempt_vertex)
            history.phase_seconds["vertex"] = time.perf_counter() - stage_start
            history.phase_errors["after_vertex"] = error_report(
                hmodel.query_pairs(val_pairs), val_phi
            ).mean_rel
            checkpoint("vertex")

        # Phase 2.5: joint all-level polish on random pairs.
        if config.joint_epochs > 0 and pending("joint"):
            stage_start = time.perf_counter()
            pairs, phi = pipeline.get("joint")

            def attempt_joint(
                lr_scale: float, _pairs: np.ndarray = pairs, _phi: np.ndarray = phi
            ) -> TrainResult:
                return train_hierarchical(
                    hmodel,
                    _pairs,
                    _phi,
                    np.full(
                        hmodel.num_levels, config.joint_lr_weight, dtype=np.float64
                    ),
                    config.train_config(config.joint_epochs, lr=config.lr * lr_scale),
                    rng,
                    adam_states=adam,
                    on_epoch=abort_on_nonfinite("joint"),
                )

            history.train_results["joint"] = run_stage("joint", attempt_joint)
            history.phase_seconds["joint"] = time.perf_counter() - stage_start
            history.phase_errors["after_joint"] = error_report(
                hmodel.query_pairs(val_pairs), val_phi
            ).mean_rel
            checkpoint("joint")
    finally:
        pipeline.close()

    # Phase 3: active fine-tuning on grid buckets.  Error-driven selection
    # depends on the live model, so it cannot be prefetched; it runs on the
    # main RNG stream like the training loops.
    if config.active:
        if graph.coords is None:
            note = "graph has no coordinates: fine-tuning skipped"
            if note not in history.notes:
                history.notes.append(note)
        elif pending("finetune"):
            stage_start = time.perf_counter()
            buckets = GridBuckets(graph, config.grid_k, seed=rng)

            def attempt_finetune(lr_scale: float) -> FinetuneResult:
                return active_finetune(
                    hmodel,
                    buckets,
                    labeler,
                    val_pairs,
                    val_phi,
                    rounds=config.finetune_rounds,
                    samples_per_round=config.finetune_samples,
                    mode=config.finetune_mode,
                    config=config.train_config(2, lr=config.lr / 2 * lr_scale),
                    seed=rng,
                )

            history.finetune = run_stage(
                "finetune",
                attempt_finetune,
                history_of=lambda r: r.mean_rel_errors,
            )
            history.phase_seconds["finetune"] = time.perf_counter() - stage_start
            history.phase_errors["after_finetune"] = history.finetune.mean_rel_errors[-1]
            checkpoint("finetune")

    return hmodel.to_model(), hierarchy


def _build_flat(
    graph: Graph,
    config: RNEConfig,
    rng: np.random.Generator,
    labeler: DistanceLabeler,
    history: BuildHistory,
    val_pairs: np.ndarray,
    val_phi: np.ndarray,
    mean_phi: float,
    *,
    manager: CheckpointManager | None = None,
    resume: bool = False,
) -> tuple[RNEModel, PartitionHierarchy | None]:
    """RNE-Naive: flat table, random pairs, no structural help."""
    model = RNEModel.random(
        graph.n,
        config.d,
        p=config.p,
        scale=_init_scale(mean_phi, config.d),
        seed=rng,
    )

    stage_names = ["flat"]
    run_finetune = config.active and graph.coords is not None
    if run_finetune:
        stage_names.append("finetune")

    resume_step = -1
    if manager is not None and resume:
        # No persisted Adam state: train_flat creates its own optimiser per
        # call, so stage-boundary resume is exact without it.
        resume_step = _restore_latest(
            manager, stage_names, [model.matrix], None, rng, history
        )

    def snapshot() -> tuple[Any, ...]:
        return (model.matrix.copy(), rng_state(rng))

    def restore(snap: tuple[Any, ...]) -> None:
        saved, rstate = snap
        model.matrix[...] = saved
        restore_rng(rng, rstate)

    def checkpoint(name: str) -> None:
        if manager is None:
            return
        arrays, meta = pack_state([model.matrix])
        meta["rng_state"] = rng_state(rng)
        meta["worker_config"] = {
            "workers": resolve_workers(config.workers),
            "prefetch": bool(config.prefetch),
        }
        meta.update(_serialize_history(history))
        manager.save(name, arrays, meta, step=stage_names.index(name))

    if resume_step < 0:
        stage_start = time.perf_counter()
        total = (
            config.hier_samples_per_level + config.vertex_samples
        )  # same sample budget as the hierarchical arm, for fair ablations
        # Single training stage: nothing to overlap, but the sample stream
        # is still per-stage so flat and hierarchical arms share conventions.
        pairs, phi = random_pair_samples(
            graph, total, labeler, _stage_rng(config.seed, "flat")
        )

        def attempt_flat(
            lr_scale: float, _pairs: np.ndarray = pairs, _phi: np.ndarray = phi
        ) -> TrainResult:
            return train_flat(
                model,
                _pairs,
                _phi,
                config.train_config(
                    config.hier_epochs + config.vertex_epochs,
                    lr=config.lr * lr_scale,
                ),
                rng,
                on_epoch=abort_on_nonfinite("flat"),
            )

        outcome = run_with_recovery(attempt_flat, snapshot, restore, stage="flat")
        history.notes.extend(outcome.notes)
        history.train_results["flat"] = outcome.result
        history.phase_seconds["flat"] = time.perf_counter() - stage_start
        history.phase_errors["after_flat"] = error_report(
            model.query_pairs(val_pairs), val_phi
        ).mean_rel
        checkpoint("flat")

    if run_finetune and resume_step < stage_names.index("finetune"):
        stage_start = time.perf_counter()
        buckets = GridBuckets(graph, config.grid_k, seed=rng)

        def attempt_finetune(lr_scale: float) -> FinetuneResult:
            return active_finetune(
                model,
                buckets,
                labeler,
                val_pairs,
                val_phi,
                rounds=config.finetune_rounds,
                samples_per_round=config.finetune_samples,
                mode=config.finetune_mode,
                config=config.train_config(2, lr=config.lr / 4 * lr_scale),
                seed=rng,
            )

        outcome = run_with_recovery(
            attempt_finetune,
            snapshot,
            restore,
            stage="finetune",
            history_of=lambda r: r.mean_rel_errors,
        )
        history.notes.extend(outcome.notes)
        history.finetune = outcome.result
        history.phase_seconds["finetune"] = time.perf_counter() - stage_start
        history.phase_errors["after_finetune"] = history.finetune.mean_rel_errors[-1]
        checkpoint("finetune")
    return model, None
