"""Flat (vertex-table) road network embedding model.

This is the paper's basic RNE (Sec. III): a ``|V| x d`` matrix ``M`` whose
rows are vertex embeddings, queried with the ``Lp`` vector distance

    phi_hat(s, t) = || M[s] - M[t] ||_p

with ``p = 1`` as the recommended metric.  Queries are O(d) — no graph
search — which is the entire point of the method.
"""

from __future__ import annotations

import os

import numpy as np

from ..devtools.contracts import shapes
from ..graph import io as graph_io


@shapes(diff="(...,d):float")
def lp_distance(diff: np.ndarray, p: float) -> np.ndarray:
    """``Lp`` norm along the last axis.

    Supports fractional ``p`` (the paper ablates ``p = 0.5``), for which
    this is the standard quasi-norm ``(sum |x|^p)^(1/p)``.
    """
    if p <= 0:
        raise ValueError(f"p must be > 0, got {p}")
    if p == 1.0:
        return np.abs(diff).sum(axis=-1)
    if p == 2.0:
        return np.sqrt(np.square(diff).sum(axis=-1))
    return np.power(np.power(np.abs(diff), p).sum(axis=-1), 1.0 / p)


@shapes(diff="(...,d):float")
def lp_gradient(diff: np.ndarray, p: float) -> np.ndarray:
    """Gradient of ``||diff||_p`` with respect to ``diff`` (batched).

    For ``p = 1`` this is ``sign(diff)`` — the linearity that makes the L1
    metric both expressive for planar graphs and cheap to train.  For other
    ``p`` it is ``sign(d) |d|^(p-1) / ||d||_p^(p-1)`` with the singular
    points regularised.
    """
    if p == 1.0:
        return np.sign(diff)
    norms = lp_distance(diff, p)
    norms = np.maximum(norms, 1e-12)[..., None]
    return np.sign(diff) * np.power(np.abs(diff) + 1e-12, p - 1.0) / np.power(
        norms, p - 1.0
    )


@shapes(rows="(s,m):float", ids="(m,):int", ret="(s,*):int")
def _topk_rows(rows: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Each row's ``min(k, m)`` nearest ``ids`` in ``(distance, id)`` order.

    ``rows[i, j]`` is the distance from source ``i`` to target ``ids[j]``.
    Row ``i`` of the result equals ``ids[np.lexsort((ids, rows[i]))[:k]]``,
    the shared kNN contract, without sorting whole rows: ``np.partition``
    finds each row's k-th smallest distance, every entry not above it is
    kept, so ties at the k-th place survive, and one ``(row, distance, id)``
    lexsort over the survivors orders them.
    """
    s, m = rows.shape
    k_eff = min(k, m)
    if k_eff == 0:
        return np.empty((s, 0), dtype=np.int64)
    kth = np.partition(rows, k_eff - 1, axis=1)[:, k_eff - 1]
    # "not above" rather than "<=": NaN entries (sorted last by both
    # partition and lexsort) stay candidates instead of vanishing.
    keep = ~(rows > kth[:, None])
    src, col = np.nonzero(keep)
    cand = ids[col]
    ordered = cand[np.lexsort((cand, rows[src, col], src))]
    counts = keep.sum(axis=1)
    starts = np.cumsum(counts) - counts
    return ordered[starts[:, None] + np.arange(k_eff)]


def as_served(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as is when float32, else as float64.

    Every query kernel computes in the matrix's own dtype.  In memory any
    array-like is accepted and widened to float64 unless it is float32; a
    persisted embedding is stricter, and its loader
    (``reliability.artifacts.validate_embedding_payload``) rejects every
    dtype but float32 and float64.
    """
    matrix = np.asarray(matrix)
    return matrix if matrix.dtype == np.float32 else matrix.astype(np.float64, copy=False)


class RNEModel:
    """Embedding matrix + metric: the queryable artefact of training.

    Parameters
    ----------
    matrix:
        ``(n, d)`` array of vertex embeddings, kept in float32 (what a
        built model serves) or else taken as float64 (:func:`as_served`).
        Queries compute in that dtype.
    p:
        Metric order for queries (paper default: 1).
    """

    def __init__(self, matrix: np.ndarray, p: float = 1.0) -> None:
        matrix = as_served(matrix)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {matrix.shape}")
        if p <= 0:
            raise ValueError(f"p must be > 0, got {p}")
        self.matrix = matrix
        self.p = float(p)

    @classmethod
    def random(
        cls,
        n: int,
        d: int,
        *,
        p: float = 1.0,
        scale: float = 1.0,
        seed: int | np.random.Generator | None = None,
    ) -> "RNEModel":
        """Random-normal initialisation (used by the naive flat training)."""
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        return cls(rng.normal(scale=scale, size=(n, d)), p=p)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, s: int, t: int) -> float:
        """Approximate shortest-path distance between two vertices."""
        return float(lp_distance(self.matrix[s] - self.matrix[t], self.p))

    @shapes(pairs="(k,2):int", ret="(k,):float")
    def query_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Vectorised queries for a ``(k, 2)`` array of vertex pairs."""
        pairs = np.asarray(pairs, dtype=np.int64)
        diff = self.matrix[pairs[:, 0]] - self.matrix[pairs[:, 1]]
        return lp_distance(diff, self.p)

    def distances_from(self, s: int, targets: np.ndarray | None = None) -> np.ndarray:
        """Distances from ``s`` to ``targets`` (or to every vertex)."""
        rows = self.matrix if targets is None else self.matrix[np.asarray(targets)]
        return lp_distance(rows - self.matrix[s], self.p)

    def knn_brute(self, s: int, targets: np.ndarray, k: int) -> np.ndarray:
        """k nearest of ``targets`` to ``s`` by embedding distance (scan).

        Follows the shared kNN contract (see :mod:`repro.core.index`):
        duplicate targets count once, output is ascending
        ``(distance, vertex id)``, and ``min(k, #unique targets)`` results
        are returned when the target set is smaller than ``k``.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        targets = np.unique(np.asarray(targets, dtype=np.int64))
        dists = self.distances_from(s, targets)
        return targets[np.lexsort((targets, dists))[:k]]

    def copy(self) -> "RNEModel":
        """Independent copy (used by ablations to branch training arms)."""
        return RNEModel(self.matrix.copy(), p=self.p)

    # ------------------------------------------------------------------
    # persistence / accounting
    # ------------------------------------------------------------------
    def index_bytes(self) -> int:
        """Memory footprint — ``O(|V| * d)`` as the paper reports."""
        return int(self.matrix.nbytes)

    def save(self, path: str | os.PathLike) -> None:
        graph_io.save_embedding(path, self.matrix, p=self.p)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RNEModel":
        matrix, p = graph_io.load_embedding(path)
        return cls(matrix, p=p)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RNEModel(n={self.n}, d={self.d}, p={self.p})"
