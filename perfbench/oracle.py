"""Independent numpy brute force for checking served answers.

Checks run outside the timed region, against the embedding matrix the
engine served at the moment of the call.  Distances may differ from the
engine's in the last bits (summation order), so ties and boundary cases
are tolerated within ``TIE`` and nowhere else.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

TIE = 1e-9


def embedding_distances(matrix: np.ndarray, p: float, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``(len(sources), len(targets))`` Lp distances between embedding rows."""
    diff = np.abs(matrix[np.asarray(sources)][:, None, :] - matrix[np.asarray(targets)][None, :, :])
    if p == 1.0:
        return diff.sum(axis=-1)
    return (diff ** p).sum(axis=-1) ** (1.0 / p)


def pair_distances(matrix: np.ndarray, p: float, pairs: np.ndarray) -> np.ndarray:
    diff = np.abs(matrix[pairs[:, 0]] - matrix[pairs[:, 1]])
    if p == 1.0:
        return diff.sum(axis=-1)
    return (diff ** p).sum(axis=-1) ** (1.0 / p)


def wrong_distances(matrix: np.ndarray, p: float, pairs: np.ndarray, got: np.ndarray) -> int:
    """Number of served pair distances that differ from brute force."""
    want = pair_distances(matrix, p, pairs)
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return int(pairs.shape[0])
    return int(np.count_nonzero(~(np.abs(got - want) <= TIE)))


def knn_ok(dists: np.ndarray, targets: np.ndarray, got: np.ndarray, k: int) -> bool:
    """Whether ``got`` is a valid ``(distance, id)``-ordered kNN answer.

    ``dists`` are the brute-force distances to the unique sorted ``targets``.
    Any order of targets whose distances tie within ``TIE`` is accepted.
    """
    k_eff = min(k, targets.size)
    got = np.asarray(got, dtype=np.int64)
    if got.size != k_eff or np.unique(got).size != k_eff:
        return False
    pos = np.searchsorted(targets, got)
    if np.any(pos >= targets.size) or np.any(targets[np.minimum(pos, targets.size - 1)] != got):
        return False
    d = dists[pos]
    if np.any(np.diff(d) < -TIE):
        return False
    kth = np.partition(dists, k_eff - 1)[k_eff - 1]
    return bool(d.max() <= kth + TIE)


def range_ok(dists: np.ndarray, targets: np.ndarray, got: np.ndarray, tau: float) -> bool:
    """Whether ``got`` equals the sorted targets within ``tau``, boundary
    cases within ``TIE`` of ``tau`` excepted."""
    got = np.asarray(got, dtype=np.int64)
    if got.size and np.any(np.diff(got) <= 0):
        return False
    want = targets[dists <= tau]
    differ = np.setxor1d(got, want)
    if differ.size == 0:
        return True
    pos = np.searchsorted(targets, differ)
    if np.any(pos >= targets.size) or np.any(targets[np.minimum(pos, targets.size - 1)] != differ):
        return False
    return bool(np.all(np.abs(dists[pos] - tau) <= TIE))


def wrong_knn(matrix: np.ndarray, p: float, sources: np.ndarray, targets: np.ndarray,
              got: Sequence[np.ndarray], k: int) -> int:
    """Number of sources whose kNN answer fails :func:`knn_ok`."""
    targets = np.unique(targets)
    if len(got) != len(sources):
        return len(sources)
    dists = embedding_distances(matrix, p, sources, targets)
    return sum(not knn_ok(row, targets, ans, k) for row, ans in zip(dists, got))


def wrong_range(matrix: np.ndarray, p: float, sources: np.ndarray, targets: np.ndarray,
                got: Sequence[np.ndarray], tau: float) -> int:
    """Number of sources whose range answer fails :func:`range_ok`."""
    targets = np.unique(targets)
    if len(got) != len(sources):
        return len(sources)
    dists = embedding_distances(matrix, p, sources, targets)
    return sum(not range_ok(row, targets, ans, tau) for row, ans in zip(dists, got))
