"""Embedding training: vectorised SGD/Adam on the squared Lp-distance loss.

The paper minimises, over sampled pairs ``(s, t, phi)``,

    L = ( || v_s - v_t ||_p  -  phi )^2

with stochastic gradient descent (Function *Training* / *TrainingHier*).
The gradients are closed-form; for the recommended ``p = 1``::

    dL/dv_s = 2 (phi_hat - phi) * sign(v_s - v_t)
    dL/dv_t = -dL/dv_s

and in the hierarchical model the same gradient flows to *every ancestor's
local embedding* of ``s`` and ``t`` (the global vector is their sum), each
scaled by that level's learning rate — which is how Algorithm 1 focuses
different levels in different steps.

Two optimisers are provided.  ``"sgd"`` is the paper's; note that its
stable learning rate scales like ``1 / (2 d)`` — per-dimension gradients
are proportional to the *residual* while per-dimension parameter scale is
roughly ``distance / d``, so the safe relative step shrinks with the
embedding dimension.  ``"adam"`` (lazy, row-sparse) converges much faster
at small sample budgets and is the default; its absolute step size is
auto-scaled by the current mean residual (see ``_adam_lr_scale``) so
behaviour does not depend on the map's units or the training phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

#: Per-epoch observer hook: ``on_epoch(epoch, mse, mean_rel_error)``.
#: Used by the reliability layer for divergence aborts and checkpoint
#: bookkeeping; any exception it raises stops the training call.
EpochHook = Callable[[int, float, float], None]

import numpy as np
from scipy import sparse

from ..devtools.contracts import shapes
from .hierarchical import HierarchicalRNE
from .model import RNEModel, lp_distance, lp_gradient


@dataclass
class TrainConfig:
    """Knobs shared by flat and hierarchical training."""

    epochs: int = 5
    batch_size: int = 1024
    lr: float = 0.02
    optimizer: str = "adam"  # "adam" | "sgd"
    shuffle: bool = True

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")


@dataclass
class TrainResult:
    """Per-epoch training diagnostics."""

    mse: list[float] = field(default_factory=list)
    mean_rel_error: list[float] = field(default_factory=list)

    def extend(self, other: "TrainResult") -> None:
        self.mse.extend(other.mse)
        self.mean_rel_error.extend(other.mean_rel_error)


class AdamState:
    """Lazy (row-sparse) Adam state for a model's parameter block.

    Embedding batches touch only a few rows; *dense* Adam would keep moving
    every untouched row by its decaying momentum (``m_hat / sqrt(v_hat)``
    stays O(1) even with a zero gradient), silently corrupting rarely
    sampled embeddings.  Lazy Adam updates moments and parameters only for
    the rows present in the batch — the same fix TensorFlow ships as
    ``LazyAdamOptimizer`` for embedding training.

    The moments cover the whole block, in the block's dtype; the step
    count ``t`` is kept per level, because a frozen level takes no steps
    and must keep its own bias correction when it is unfrozen.
    """

    beta1 = 0.9
    beta2 = 0.999

    def __init__(
        self,
        shape: tuple[int, ...],
        levels: int = 1,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        self.m = np.zeros(shape, dtype=dtype)
        self.v = np.zeros(shape, dtype=dtype)
        self.t = np.zeros(levels, dtype=np.int64)

    @classmethod
    def for_model(cls, hmodel: HierarchicalRNE) -> "AdamState":
        """Fresh state over ``hmodel``'s block, for threading through calls."""
        return cls(hmodel.block.shape, hmodel.num_levels, hmodel.block.dtype)

    def step_rows(
        self, rows: np.ndarray, grad_rows: np.ndarray, lrs: np.ndarray, bounds: np.ndarray
    ) -> np.ndarray:
        """Update moments for ``rows`` only; return their parameter update.

        ``rows`` are sorted, so level ``l``'s rows are
        ``rows[bounds[l]:bounds[l + 1]]``; ``lrs`` holds one learning rate
        per level, in the moments' dtype (a float64 rate would promote a
        float32 step to float64).  Every level with rows in the batch takes
        one step.
        """
        counts = np.diff(bounds)
        self.t += counts > 0
        # One gather and one write-back per moment: ``rows`` is unique, so
        # reading ``self.m[rows]`` back after the write would return ``m``.
        m = self.beta1 * self.m[rows] + (1 - self.beta1) * grad_rows
        v = self.beta2 * self.v[rows] + (1 - self.beta2) * np.square(grad_rows)
        self.m[rows] = m
        self.v[rows] = v
        # Per level, in place: m becomes -lr * m_hat and v becomes v_hat,
        # with the level's own scalar bias corrections.
        for level in np.flatnonzero(counts):
            part = slice(bounds[level], bounds[level + 1])
            t = int(self.t[level])
            m[part] /= 1 - self.beta1**t
            v[part] /= 1 - self.beta2**t
            m[part] *= -lrs[level]
        return m / (np.sqrt(v) + 1e-8)


def _epoch_batches(
    n_samples: int, batch_size: int, shuffle: bool, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    order = rng.permutation(n_samples) if shuffle else np.arange(n_samples)
    for start in range(0, n_samples, batch_size):
        yield order[start : start + batch_size]


def _adam_lr_scale(pred: np.ndarray, phi: np.ndarray) -> float:
    """Adam step-size scale: the current mean absolute residual.

    Adam's per-parameter step magnitude is ~``lr`` regardless of gradient
    size, so ``lr`` must carry the problem's scale.  Scaling by the mean
    *residual* (not the mean distance) makes early coarse phases take big
    steps and late fine-tuning phases take proportionally small ones —
    without it, phase-2/3 updates are violent enough to destroy the
    hierarchy structure learned in phase 1.  A floor avoids a dead optimiser
    when the model starts out nearly perfect.
    """
    mean_phi = float(np.mean(phi)) if phi.size else 1.0
    resid = float(np.mean(np.abs(pred - phi))) if phi.size else mean_phi
    # Clamp to [1%, 100%] of the mean label: the floor keeps a nearly
    # converged model trainable, the ceiling stops a diverged model from
    # amplifying its own step size call over call.
    return float(np.clip(resid, 0.01 * mean_phi, mean_phi))


def _pair_gradient(
    vs: np.ndarray, vt: np.ndarray, phi: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared loss math: returns (grad wrt v_s, residual, prediction)."""
    diff = vs - vt
    pred = lp_distance(diff, p)
    resid = pred - phi
    grad = 2.0 * resid[:, None] * lp_gradient(diff, p)
    return grad, resid, pred


def _scatter_levels(
    rows_s: np.ndarray, rows_t: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Segment-sum ``+grad`` onto block rows ``rows_s`` and ``-grad`` onto ``rows_t``.

    Column ``l`` of the ``(k, L)`` row arrays holds one level's rows in
    the model's block space, so one sparse product covers all levels.
    Returns the sorted unique touched rows and their summed gradients.

    The product is a CSC matrix with one column per row of the stacked
    ``[grad; -grad]`` and one 1.0 (in ``grad``'s dtype) per level in each
    column.  scipy's ``csc_matvecs`` walks the columns in input order and
    adds into a zeroed output, the order ``np.add.at`` uses, so every row's
    sum is bit-identical to scattering ``grad`` then ``-grad`` one level at
    a time (see docs/TRAINING.md, "SGD step kernel").
    """
    k, levels = rows_s.shape
    ids = np.concatenate([rows_s, rows_t]).ravel()
    touched = np.bincount(ids) > 0
    compact = np.cumsum(touched) - 1
    rows = np.flatnonzero(touched)
    scatter = sparse.csc_matrix(
        (
            np.ones(ids.size, dtype=grad.dtype),
            compact[ids],
            np.arange(0, ids.size + 1, levels),
        ),
        shape=(rows.size, 2 * k),
    )
    return rows, scatter @ np.concatenate([grad, -grad])


@shapes(pairs="(k,2):int", phi="(k,):float:finite")
def train_flat(
    model: RNEModel,
    pairs: np.ndarray,
    phi: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator | int | None = None,
    *,
    on_epoch: Optional[EpochHook] = None,
) -> TrainResult:
    """Train a flat embedding table in place (paper's Function *Training*).

    The flat table is a one-level hierarchy, so this is
    :func:`train_hierarchical` on :meth:`HierarchicalRNE.flat` at rate 1
    with a fresh optimiser; it trains in the model's float64.
    """
    return train_hierarchical(
        HierarchicalRNE.flat(model.matrix, p=model.p),
        pairs,
        phi,
        [1.0],
        config,
        rng,
        on_epoch=on_epoch,
    )


@shapes(pairs="(k,2):int", phi="(k,):float:finite")
def train_hierarchical(
    hmodel: HierarchicalRNE,
    pairs: np.ndarray,
    phi: np.ndarray,
    level_lrs: np.ndarray | list[float],
    config: TrainConfig,
    rng: np.random.Generator | int | None = None,
    *,
    adam: AdamState | None = None,
    on_epoch: Optional[EpochHook] = None,
) -> TrainResult:
    """Train the model's parameter block in place (Function *TrainingHier*).

    ``level_lrs`` has one finite, non-negative relative learning rate per
    level (``ValueError`` otherwise); a level with rate 0 is frozen (its
    gradient is never even computed).  Passing the same ``adam`` state
    across successive calls keeps optimiser momentum through the
    multi-step schedule of Algorithm 1; a state whose moments (shape or
    dtype) or level count do not match the model's block is a
    ``ValueError``.

    The step kernel (gathers, gradient, scatter, optimiser step) runs in
    the block's dtype; the residual scale, the learning rates and the
    per-epoch error sums are computed in float64.
    """
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    pairs = np.asarray(pairs, dtype=np.int64)
    phi = np.asarray(phi, dtype=np.float64)
    level_lrs = np.asarray(level_lrs, dtype=np.float64)
    if level_lrs.shape != (hmodel.num_levels,):
        raise ValueError(
            f"level_lrs must have {hmodel.num_levels} entries, got {level_lrs.shape}"
        )
    if not (np.isfinite(level_lrs).all() and (level_lrs >= 0).all()):
        raise ValueError(f"level_lrs must be finite and >= 0, got {level_lrs}")
    if pairs.shape[0] != phi.shape[0]:
        raise ValueError("pairs and phi must align")
    if adam is not None and (
        adam.m.shape != hmodel.block.shape
        or adam.t.shape != (hmodel.num_levels,)
        or adam.m.dtype != hmodel.block.dtype
    ):
        raise ValueError(
            f"Adam state covers {adam.m.shape} {adam.m.dtype} over {adam.t.size} "
            f"levels, model block is {hmodel.block.shape} {hmodel.block.dtype} "
            f"over {hmodel.num_levels} levels"
        )
    result = TrainResult()
    if pairs.shape[0] == 0:
        return result

    scale = 1.0
    if config.optimizer == "adam":
        if adam is None:
            adam = AdamState.for_model(hmodel)
        probe = slice(0, min(len(pairs), 2048))
        scale = _adam_lr_scale(hmodel.query_pairs(pairs[probe]), phi[probe])
    else:
        adam = None

    block = hmodel.block
    block_rows = hmodel.block_rows
    offsets = hmodel.offsets
    active = np.flatnonzero(level_lrs > 0)
    lrs = (config.lr * level_lrs * scale).astype(block.dtype)

    for epoch in range(config.epochs):
        sq_sum = 0.0
        rel_sum = 0.0
        # perf: loop-ok (one iteration per batch, each fully vectorised)
        for batch in _epoch_batches(len(pairs), config.batch_size, config.shuffle, rng):
            rows_s = block_rows[pairs[batch, 0]]
            rows_t = block_rows[pairs[batch, 1]]
            vs = np.zeros((len(batch), hmodel.d), dtype=block.dtype)
            vt = np.zeros((len(batch), hmodel.d), dtype=block.dtype)
            for level in range(hmodel.num_levels):
                vs += block[rows_s[:, level]]
                vt += block[rows_t[:, level]]
            # The labels join the kernel in its dtype: float64 labels would
            # promote the gradient, scatter and step back to float64.
            phi_batch = phi[batch]
            grad, resid, _ = _pair_gradient(
                vs, vt, phi_batch.astype(block.dtype, copy=False), hmodel.p
            )
            resid = resid.astype(np.float64, copy=False)
            sq_sum += float(np.square(resid).sum())
            rel_sum += float((np.abs(resid) / np.maximum(phi_batch, 1e-12)).sum())
            if not active.size:
                continue
            rows, full = _scatter_levels(rows_s[:, active], rows_t[:, active], grad)
            full /= len(batch)
            bounds = np.searchsorted(rows, offsets)
            if adam is not None:
                block[rows] += adam.step_rows(rows, full, lrs, bounds)  # mutation-ok (documented in-place training)
            else:
                for level in active:
                    full[bounds[level] : bounds[level + 1]] *= lrs[level]
                block[rows] -= full  # mutation-ok (documented in-place training)
        result.mse.append(sq_sum / len(pairs))
        result.mean_rel_error.append(rel_sum / len(pairs))
        if on_epoch is not None:
            on_epoch(epoch, result.mse[-1], result.mean_rel_error[-1])
    return result


def level_schedule(focus: int, num_levels: int, *, alpha0: float = 1.0) -> np.ndarray:
    """The paper's per-level learning-rate schedule for hierarchy step ``focus``.

    ``alpha_l = alpha0 / (|l - focus| + 1)`` — the focused level trains at
    full rate, levels farther away progressively slower, so the coarse
    structure settles before fine levels move (right side of Fig. 5).
    """
    levels = np.arange(num_levels)
    return alpha0 / (np.abs(levels - focus) + 1.0)


def vertex_only_schedule(num_levels: int, *, alpha: float = 1.0) -> np.ndarray:
    """Phase-2 schedule: freeze all sub-graph levels, train only vertices."""
    lrs = np.zeros(num_levels, dtype=np.float64)
    lrs[-1] = alpha
    return lrs
