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


class _Adam:
    """Lazy (row-sparse) Adam state for an embedding matrix.

    Embedding batches touch only a few rows; *dense* Adam would keep moving
    every untouched row by its decaying momentum (``m_hat / sqrt(v_hat)``
    stays O(1) even with a zero gradient), silently corrupting rarely
    sampled embeddings.  Lazy Adam updates moments and parameters only for
    the rows present in the batch — the same fix TensorFlow ships as
    ``LazyAdamOptimizer`` for embedding training.
    """

    def __init__(self, shape: tuple[int, ...], beta1: float = 0.9, beta2: float = 0.999):
        self.m = np.zeros(shape, dtype=np.float64)
        self.v = np.zeros(shape, dtype=np.float64)
        self.beta1 = beta1
        self.beta2 = beta2
        self.t = 0

    def step_rows(self, rows: np.ndarray, grad_rows: np.ndarray, lr: float) -> np.ndarray:
        """Update moments for ``rows`` only; return their parameter update."""
        self.t += 1
        # One gather and one write-back per moment: ``rows`` is unique, so
        # reading ``self.m[rows]`` back after the write would return ``m``.
        m = self.beta1 * self.m[rows] + (1 - self.beta1) * grad_rows
        v = self.beta2 * self.v[rows] + (1 - self.beta2) * np.square(grad_rows)
        self.m[rows] = m
        self.v[rows] = v
        m_hat = m / (1 - self.beta1**self.t)
        v_hat = v / (1 - self.beta2**self.t)
        return -lr * m_hat / (np.sqrt(v_hat) + 1e-8)


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
    rows_s: np.ndarray, rows_t: np.ndarray, grad: np.ndarray, offsets: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Segment-sum ``+grad`` onto rows ``rows_s`` and ``-grad`` onto ``rows_t``.

    Column ``l`` of the ``(k, L)`` row arrays holds level ``l``'s rows;
    ``offsets`` (``L + 1`` entries) are the cumulative level sizes, which
    put every level's rows into one id space so that one sparse product
    covers all levels.  Returns, per level, its sorted unique touched rows
    and their summed gradients.

    The product is a CSC matrix with one column per row of the stacked
    ``[grad; -grad]`` and one 1.0 per level in each column.  scipy's
    ``csc_matvecs`` walks the columns in input order and adds into a zeroed
    output, the order ``np.add.at`` uses, so every level's sums are
    bit-identical to scattering ``grad`` then ``-grad`` one level at a
    time (see docs/TRAINING.md, "SGD step kernel").
    """
    k, levels = rows_s.shape
    ids = (np.concatenate([rows_s, rows_t]) + offsets[:-1]).ravel()
    touched = np.bincount(ids, minlength=offsets[-1]) > 0
    compact = np.cumsum(touched) - 1
    rows = np.flatnonzero(touched)
    scatter = sparse.csc_matrix(
        (
            np.ones(ids.size, dtype=np.float64),
            compact[ids],
            np.arange(0, ids.size + 1, levels),
        ),
        shape=(rows.size, 2 * k),
    )
    full = scatter @ np.concatenate([grad, -grad])
    bounds = np.searchsorted(rows, offsets)
    return [
        (rows[bounds[l] : bounds[l + 1]] - offsets[l], full[bounds[l] : bounds[l + 1]])
        for l in range(levels)
    ]


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
    with a fresh optimiser.
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
    adam_states: list[_Adam] | None = None,
    on_epoch: Optional[EpochHook] = None,
) -> TrainResult:
    """Train hierarchy local embeddings in place (Function *TrainingHier*).

    ``level_lrs`` has one finite, non-negative relative learning rate per
    level (``ValueError`` otherwise); a level with rate 0 is frozen (its
    gradient is never even computed).  Passing the same ``adam_states``
    across successive calls keeps optimiser momentum through the
    multi-step schedule of Algorithm 1.
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
    result = TrainResult()
    if pairs.shape[0] == 0:
        return result

    states: list[Optional[_Adam]] = [None] * hmodel.num_levels
    scale = 1.0
    if config.optimizer == "adam":
        if adam_states is None:
            adam_states = new_adam_states(hmodel)
        states = list(adam_states)
        probe = slice(0, min(len(pairs), 2048))
        scale = _adam_lr_scale(hmodel.query_pairs(pairs[probe]), phi[probe])

    anc = hmodel.anc_rows
    active = [l for l in range(hmodel.num_levels) if level_lrs[l] > 0]
    offsets = np.cumsum([0] + [hmodel.locals[l].shape[0] for l in active], dtype=np.int64)

    for epoch in range(config.epochs):
        sq_sum = 0.0
        rel_sum = 0.0
        # perf: loop-ok (one iteration per batch, each fully vectorised)
        for batch in _epoch_batches(len(pairs), config.batch_size, config.shuffle, rng):
            s = pairs[batch, 0]
            t = pairs[batch, 1]
            rows_s = anc[s]
            rows_t = anc[t]
            vs = np.zeros((len(batch), hmodel.d), dtype=np.float64)
            vt = np.zeros((len(batch), hmodel.d), dtype=np.float64)
            for level, matrix in enumerate(hmodel.locals):
                vs += matrix[rows_s[:, level]]
                vt += matrix[rows_t[:, level]]
            grad, resid, _ = _pair_gradient(vs, vt, phi[batch], hmodel.p)
            sq_sum += float(np.square(resid).sum())
            rel_sum += float((np.abs(resid) / np.maximum(phi[batch], 1e-12)).sum())
            if not active:
                continue
            scattered = _scatter_levels(rows_s[:, active], rows_t[:, active], grad, offsets)
            for level, (rows, full) in zip(active, scattered):
                full /= len(batch)
                lr = config.lr * level_lrs[level] * scale
                adam = states[level]
                if adam is not None:
                    hmodel.locals[level][rows] += adam.step_rows(rows, full, lr)  # mutation-ok (documented in-place training)
                else:
                    hmodel.locals[level][rows] -= lr * full  # mutation-ok (documented in-place training)
        result.mse.append(sq_sum / len(pairs))
        result.mean_rel_error.append(rel_sum / len(pairs))
        if on_epoch is not None:
            on_epoch(epoch, result.mse[-1], result.mean_rel_error[-1])
    return result


def new_adam_states(hmodel: HierarchicalRNE) -> list[_Adam]:
    """Fresh Adam state per level, for threading through multiple calls."""
    return [_Adam(m.shape) for m in hmodel.locals]


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
