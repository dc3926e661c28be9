"""Resumable training checkpoints and divergence rollback.

The multi-stage pipeline (phase-1 per-level hierarchy training, the vertex
phase, the joint polish, fine-tuning) used to be all-or-nothing: a crash in
the last stage threw away everything.  This module provides

* :class:`CheckpointManager` — a directory of per-stage artifacts (written
  through :mod:`~repro.reliability.artifacts`, so each one is atomic and
  self-validating) with *resume-from-latest-valid*: corrupt checkpoints are
  skipped, not trusted;
* state packing helpers that capture the parameter matrix, the Adam
  moments with their per-level step counts, and the RNG stream position,
  making a resumed run bit-identical to an uninterrupted one;
* :func:`run_with_recovery` — divergence detection (non-finite loss, or an
  error regression beyond ``regression_factor`` × the recent best) with
  rollback to the pre-stage snapshot and a learning-rate backoff under a
  bounded retry budget.

Deliberately free of ``repro.core`` imports: it consumes plain arrays,
Adam states (objects with ``.m`` / ``.v`` moment arrays and a per-level
``.t`` step-count array) and results with ``.mse`` lists, so the
dependency arrow stays core → reliability.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from . import faults
from .artifacts import ArtifactError, load_artifact, save_artifact

__all__ = [
    "CheckpointManager",
    "RetryPolicy",
    "StageOutcome",
    "TrainingDiverged",
    "abort_on_nonfinite",
    "diverged",
    "pack_state",
    "restore_rng",
    "rng_state",
    "rollback_pair",
    "run_with_recovery",
    "unpack_state",
]

R = TypeVar("R")


class TrainingDiverged(RuntimeError):
    """Training produced non-finite or regressing loss beyond the budget."""


# ----------------------------------------------------------------------
# state packing
# ----------------------------------------------------------------------
def pack_state(
    matrix: np.ndarray,
    adam: Optional[Any] = None,
    *,
    version: Optional[int] = None,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Pack a parameter matrix (+ optional Adam state) for an artifact.

    Returns ``(arrays, meta_fragment)``: the arrays are ``matrix`` and,
    with ``adam``, its moments ``adam_m`` / ``adam_v``; the fragment
    carries the per-level Adam step counts (``adam_t``), which are scalars
    and live more naturally in the manifest.  ``version`` — when given —
    records the embedding version the state belongs to
    (``meta["model_version"]``), so live-update journals can tie a
    checkpoint to a specific published embedding.
    """
    arrays: Dict[str, np.ndarray] = {"matrix": np.asarray(matrix)}
    meta: Dict[str, Any] = {}
    if version is not None:
        if version < 0:
            raise ValueError(f"version must be >= 0, got {version}")
        meta["model_version"] = int(version)
    if adam is not None:
        arrays["adam_m"] = np.asarray(adam.m)
        arrays["adam_v"] = np.asarray(adam.v)
        meta["adam_t"] = [int(t) for t in adam.t]
    return arrays, meta


def unpack_state(
    arrays: Dict[str, np.ndarray],
    meta: Dict[str, Any],
    matrix: np.ndarray,
    adam: Optional[Any] = None,
) -> Optional[int]:
    """Restore packed state *in place* into ``matrix`` / ``adam``.

    Shape mismatches (a checkpoint from a different architecture or
    hierarchy), dtype mismatches (a float64 checkpoint would resume onto
    a rounded float32 state), missing Adam state and the per-level layout
    of older checkpoints (``local_{l}`` arrays, no ``matrix``) raise
    :class:`ArtifactError` rather than silently writing misaligned or
    cast parameters; everything is checked before anything is written, so
    a rejected checkpoint leaves the live state untouched.  Returns the
    embedding version the checkpoint was packed with
    (``meta["model_version"]``), or ``None`` for checkpoints written
    before live updates existed.
    """
    if "matrix" not in arrays:
        raise ArtifactError("checkpoint is missing array 'matrix'")
    if arrays["matrix"].shape != matrix.shape:
        raise ArtifactError(
            f"checkpoint array 'matrix' has shape {arrays['matrix'].shape}, "
            f"model expects {matrix.shape}"
        )
    _check_dtype(arrays, "matrix", matrix)
    writes: List[Tuple[np.ndarray, str]] = [(matrix, "matrix")]
    counters = meta.get("adam_t")
    if adam is not None:
        if counters is None:
            raise ArtifactError("checkpoint is missing Adam step counters")
        if len(counters) != adam.t.size:
            raise ArtifactError(
                f"checkpoint has Adam step counters for {len(counters)} levels, "
                f"model has {adam.t.size} levels"
            )
        for key, target in (("adam_m", adam.m), ("adam_v", adam.v)):
            if key not in arrays or arrays[key].shape != target.shape:
                raise ArtifactError(
                    f"checkpoint Adam state '{key}' is missing or misshaped"
                )
            _check_dtype(arrays, key, target)
            writes.append((target, key))
    raw_version = meta.get("model_version")
    if raw_version is not None and (
        isinstance(raw_version, bool)
        or not isinstance(raw_version, int)
        or raw_version < 0
    ):
        raise ArtifactError(
            f"checkpoint carries invalid model version {raw_version!r}"
        )
    for target, key in writes:
        target[...] = arrays[key]
    if adam is not None:
        adam.t[...] = counters
    return None if raw_version is None else int(raw_version)


def _check_dtype(arrays: Dict[str, np.ndarray], key: str, target: np.ndarray) -> None:
    if arrays[key].dtype != target.dtype:
        raise ArtifactError(
            f"checkpoint array '{key}' is {arrays[key].dtype}, "
            f"live state is {target.dtype}"
        )


def rng_state(rng: np.random.Generator) -> Dict[str, Any]:
    """JSON-serialisable snapshot of the generator's stream position."""
    return dict(rng.bit_generator.state)


def restore_rng(rng: np.random.Generator, state: Dict[str, Any]) -> None:
    """Rewind ``rng`` to a snapshot taken with :func:`rng_state`."""
    rng.bit_generator.state = state


def rollback_pair(
    matrix: np.ndarray,
    adam: Optional[Any],
    rng: np.random.Generator,
) -> Tuple[Callable[[], Any], Callable[[Any], None]]:
    """The ``snapshot`` / ``restore`` pair :func:`run_with_recovery` rolls
    a training stage back with.

    A snapshot copies the parameter matrix, the Adam moments and step
    counts (when there is an Adam state) and the RNG stream position;
    restoring writes them back in place, so every holder of those arrays
    sees the rollback.
    """

    def snapshot() -> Any:
        moments = (
            None if adam is None else (adam.m.copy(), adam.v.copy(), adam.t.copy())
        )
        return matrix.copy(), moments, rng_state(rng)

    def restore(snap: Any) -> None:
        saved, moments, rstate = snap
        matrix[...] = saved
        if moments is not None:
            adam.m[...], adam.v[...], adam.t[...] = moments
        restore_rng(rng, rstate)

    return snapshot, restore


# ----------------------------------------------------------------------
# checkpoint directory
# ----------------------------------------------------------------------
class CheckpointManager:
    """A directory of atomic, validated per-stage training checkpoints.

    Parameters
    ----------
    directory:
        Created if missing.  Checkpoints are ``<stage>.ckpt.npz`` files.
    graph:
        When given, every checkpoint embeds (and later enforces) the
        graph's fingerprint, so checkpoints cannot resume onto a
        different network.
    """

    SUFFIX = ".ckpt.npz"

    def __init__(self, directory: str | os.PathLike, *, graph: Any = None) -> None:
        self.directory = os.fspath(directory)
        self._graph = graph
        #: ``(path, reason)`` for checkpoints rejected during :meth:`latest`.
        self.skipped: List[Tuple[str, str]] = []
        os.makedirs(self.directory, exist_ok=True)

    def path_for(self, stage: str) -> str:
        if not stage or os.sep in stage or stage.startswith("."):
            raise ValueError(f"bad stage name {stage!r}")
        return os.path.join(self.directory, f"{stage}{self.SUFFIX}")

    def save(
        self,
        stage: str,
        arrays: Dict[str, np.ndarray],
        meta: Dict[str, Any],
        *,
        step: int,
    ) -> str:
        """Atomically write the checkpoint for ``stage`` (ordinal ``step``)."""
        path = self.path_for(stage)
        save_artifact(
            path,
            arrays,
            kind="checkpoint",
            graph=self._graph,
            meta={**meta, "stage": stage, "step": int(step)},
        )
        faults.fire("checkpoint.saved", stage)
        return path

    def load(self, stage: str) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        arrays, manifest = load_artifact(
            self.path_for(stage), expect_kind="checkpoint", graph=self._graph
        )
        return arrays, manifest["meta"]

    def stages_on_disk(self) -> List[str]:
        names = [
            entry[: -len(self.SUFFIX)]
            for entry in sorted(os.listdir(self.directory))
            if entry.endswith(self.SUFFIX)
        ]
        return names

    def latest(
        self,
    ) -> Optional[Tuple[str, Dict[str, np.ndarray], Dict[str, Any]]]:
        """Highest-``step`` checkpoint that passes full validation.

        Corrupt or mismatched files are recorded in :attr:`skipped` and
        ignored — a crash mid-write (or bit rot) degrades resume to the
        previous stage instead of poisoning it.
        """
        self.skipped = []
        best: Optional[Tuple[int, str, Dict[str, np.ndarray], Dict[str, Any]]] = None
        for stage in self.stages_on_disk():
            try:
                arrays, meta = self.load(stage)
            except ArtifactError as exc:
                self.skipped.append((self.path_for(stage), str(exc)))
                continue
            step = int(meta.get("step", -1))
            if best is None or step > best[0]:
                best = (step, stage, arrays, meta)
        if best is None:
            return None
        return best[1], best[2], best[3]

    def clear(self) -> None:
        """Delete every checkpoint (called after a successful final save)."""
        for stage in self.stages_on_disk():
            os.remove(self.path_for(stage))


# ----------------------------------------------------------------------
# divergence detection and recovery
# ----------------------------------------------------------------------
def diverged(
    history: Sequence[float],
    *,
    regression_factor: float = 5.0,
    window: int = 5,
) -> bool:
    """Whether a per-epoch loss history shows divergence.

    Non-finite values always count.  Otherwise the last value must not
    exceed ``regression_factor`` times the best loss of the trailing
    ``window`` epochs — plain noise passes, an exploding optimiser does not.
    """
    values = [float(v) for v in history]
    if not values:
        return False
    if any(not math.isfinite(v) for v in values):
        return True
    if len(values) < 2:
        return False
    recent = values[-(window + 1) : -1]
    return values[-1] > regression_factor * min(recent)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry knobs for :func:`run_with_recovery`."""

    max_retries: int = 2
    lr_backoff: float = 0.5
    regression_factor: float = 5.0
    window: int = 5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not (0.0 < self.lr_backoff < 1.0):
            raise ValueError(f"lr_backoff must be in (0, 1), got {self.lr_backoff}")
        if self.regression_factor <= 1.0:
            raise ValueError(
                f"regression_factor must be > 1, got {self.regression_factor}"
            )


@dataclass
class StageOutcome:
    """What :func:`run_with_recovery` settled on for one training stage."""

    result: Any
    attempts: int = 1
    lr_scale: float = 1.0
    notes: List[str] = field(default_factory=list)


def abort_on_nonfinite(stage: str = "training") -> Callable[[int, float, float], None]:
    """An ``on_epoch`` hook that aborts a stage the moment loss goes NaN/inf.

    Without it a 10-epoch stage burns 9 more epochs on garbage before the
    post-stage divergence check notices.
    """

    def hook(epoch: int, mse: float, mean_rel_error: float) -> None:
        if not (math.isfinite(mse) and math.isfinite(mean_rel_error)):
            raise TrainingDiverged(
                f"{stage}: non-finite loss at epoch {epoch} "
                f"(mse={mse}, mean_rel_error={mean_rel_error})"
            )

    return hook


def run_with_recovery(
    attempt: Callable[[float], R],
    snapshot: Callable[[], Any],
    restore: Callable[[Any], None],
    *,
    policy: RetryPolicy = RetryPolicy(),
    stage: str = "stage",
    history_of: Optional[Callable[[R], Sequence[float]]] = None,
) -> StageOutcome:
    """Run one training stage with rollback-and-backoff on divergence.

    ``attempt(lr_scale)`` runs the stage (mutating the model in place) and
    returns an object whose ``.mse`` is the per-epoch loss history; it may
    also raise :class:`TrainingDiverged` (e.g. via
    :func:`abort_on_nonfinite`) to bail out early.  On divergence the model
    is restored from the pre-stage snapshot and the stage retried with the
    learning rate scaled down by ``policy.lr_backoff``, at most
    ``policy.max_retries`` times; exhausting the budget restores the last
    good state and raises.

    ``history_of`` overrides where the loss history is read from (for
    results that track a different metric, e.g. fine-tuning's per-round
    validation errors).
    """
    snap = snapshot()
    scale = 1.0
    notes: List[str] = []
    for attempt_no in range(1, policy.max_retries + 2):
        reason: Optional[str] = None
        try:
            result = attempt(scale)
        except TrainingDiverged as exc:
            reason = str(exc)
        else:
            if history_of is not None:
                history = [float(v) for v in history_of(result)]
            else:
                history = [float(v) for v in getattr(result, "mse", [])]
            if not diverged(
                history,
                regression_factor=policy.regression_factor,
                window=policy.window,
            ):
                return StageOutcome(result, attempt_no, scale, notes)
            tail = ", ".join(f"{v:.4g}" for v in history[-3:])
            reason = f"loss history diverged (last epochs: {tail})"
        restore(snap)
        next_scale = scale * policy.lr_backoff
        notes.append(
            f"{stage}: attempt {attempt_no} diverged — {reason}; "
            f"rolled back, retrying at lr scale {next_scale:g}"
        )
        scale = next_scale
    raise TrainingDiverged(
        f"{stage}: still diverging after {policy.max_retries + 1} attempts "
        f"(lr scaled down to {scale / policy.lr_backoff:g}); "
        "model restored to the last good state"
    )
