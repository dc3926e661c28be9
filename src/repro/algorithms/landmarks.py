"""Landmark selection and the LT (landmark / triangle-inequality) estimator.

The paper's LT baseline (from ALT [13]) precomputes a ``|U| x |V|`` distance
matrix from a landmark set ``U`` and estimates the distance between ``s``
and ``t`` as the tightest triangle-inequality bound over landmarks::

    max_u |d(u, s) - d(u, t)|  <=  d(s, t)  <=  min_u d(u, s) + d(u, t)

LT uses the lower bound (which is also the admissible ALT heuristic).  The
same landmark machinery drives the paper's landmark-based training-sample
selection (Sec. V-B).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..graph import Graph
from .dijkstra import sssp_many

#: The ``strategy`` names :func:`select_landmarks` accepts.
LANDMARK_STRATEGIES = ("farthest", "random", "degree")


def select_landmarks(
    graph: Graph,
    k: int,
    *,
    strategy: str = "farthest",
    seed: int | np.random.Generator | None = None,
    sssp_row: Callable[[int], np.ndarray] | None = None,
) -> np.ndarray:
    """Choose ``k`` landmark vertices.

    ``sssp_row(v)`` supplies the distance row from ``v`` that the
    ``"farthest"`` strategy needs for each landmark; by default it runs
    one SSSP.  Passing a labeler's cached ``row`` lets the landmark samples
    that follow reuse those rows instead of recomputing them.

    Strategies
    ----------
    ``"farthest"``
        Iteratively add the vertex farthest (in network distance) from the
        current landmark set — the paper's recommended method, covering
        regions the existing landmarks miss.
    ``"random"``
        Uniform random vertices.
    ``"degree"``
        The ``k`` highest-degree vertices (important intersections).
    """
    if not 1 <= k <= graph.n:
        raise ValueError(f"need 1 <= k <= {graph.n}, got k={k}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    if strategy == "random":
        return rng.choice(graph.n, size=k, replace=False).astype(np.int64)
    if strategy == "degree":
        return np.argsort(-graph.degrees(), kind="stable")[:k].astype(np.int64)
    if strategy == "farthest":
        return _farthest_selection(
            graph, k, rng, sssp_row or (lambda v: sssp_many(graph, [v])[0])
        )
    raise ValueError(f"unknown landmark strategy {strategy!r}")


def _farthest_selection(
    graph: Graph,
    k: int,
    rng: np.random.Generator,
    sssp_row: Callable[[int], np.ndarray],
) -> np.ndarray:
    first = int(rng.integers(graph.n))
    landmarks = [first]
    min_dist = sssp_row(first)
    min_dist = np.where(np.isfinite(min_dist), min_dist, -1.0)
    while len(landmarks) < k:
        nxt = int(np.argmax(min_dist))
        if min_dist[nxt] <= 0:
            # Graph exhausted (e.g. tiny component); fill randomly.
            remaining = np.setdiff1d(np.arange(graph.n), landmarks)
            fill = rng.choice(remaining, size=k - len(landmarks), replace=False)
            landmarks.extend(int(v) for v in fill)
            break
        landmarks.append(nxt)
        dist = sssp_row(nxt)
        dist = np.where(np.isfinite(dist), dist, -1.0)
        min_dist = np.minimum(min_dist, dist)
        min_dist[nxt] = 0.0
    return np.asarray(landmarks, dtype=np.int64)


class LTEstimator:
    """Landmark/triangle-inequality distance estimator (the paper's LT).

    Precomputes the ``|U| x |V|`` landmark distance matrix; queries cost
    ``O(|U|)`` per pair and need no graph search.
    """

    def __init__(
        self,
        graph: Graph,
        num_landmarks: int,
        *,
        strategy: str = "farthest",
        seed: int | np.random.Generator | None = None,
    ) -> None:
        # Farthest-point selection already computes every landmark's row;
        # keep them for the table instead of running each SSSP twice.
        rows: dict[int, np.ndarray] = {}

        def row(v: int) -> np.ndarray:
            if v not in rows:
                rows[v] = sssp_many(graph, [v])[0]
            return rows[v]

        self.landmarks = select_landmarks(
            graph, num_landmarks, strategy=strategy, seed=seed, sssp_row=row
        )
        self.table = np.vstack([row(int(v)) for v in self.landmarks])

    @property
    def num_landmarks(self) -> int:
        return int(self.landmarks.size)

    def lower_bound(self, s: int, t: int) -> float:
        """Tightest triangle lower bound — LT's distance estimate."""
        return float(np.max(np.abs(self.table[:, s] - self.table[:, t])))

    def upper_bound(self, s: int, t: int) -> float:
        """Tightest triangle upper bound (through the best landmark)."""
        return float(np.min(self.table[:, s] + self.table[:, t]))

    def estimate(self, s: int, t: int) -> float:
        """LT's estimate of ``d(s, t)`` — the lower bound, as in the paper."""
        return self.lower_bound(s, t)

    def estimate_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Vectorised lower-bound estimates for ``(k, 2)`` pair array."""
        pairs = np.asarray(pairs, dtype=np.int64)
        diff = self.table[:, pairs[:, 0]] - self.table[:, pairs[:, 1]]
        return np.max(np.abs(diff), axis=0)

    def heuristic_to(self, t: int) -> np.ndarray:
        """Admissible ALT heuristic ``h(v) >= 0`` towards target ``t``.

        ``h(v) = max_u |d(u, v) - d(u, t)|`` never overestimates ``d(v, t)``,
        so A* with this heuristic stays exact.
        """
        return np.max(np.abs(self.table - self.table[:, [t]]), axis=0)

    def index_bytes(self) -> int:
        """Memory footprint of the landmark table."""
        return int(self.table.nbytes)
