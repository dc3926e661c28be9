"""Training-sample selection (Sec. V / Algorithm 2 of the paper).

Three strategies, one per training phase:

* **Sub-graph-level** — choose *cell pairs* uniformly at a given hierarchy
  level, then vertices inside each cell, so the coarse level sees all
  ``|P_l|^2`` relative positions evenly.
* **Landmark-based** — pairs ``(u in U, v in V)`` against a small landmark
  set, giving every vertex stable reference points during vertex-phase
  training.
* **Error-based (grid buckets)** — partition space into ``K x K`` grids,
  bucket all grid pairs by grid-hop distance, and draw extra samples from
  the buckets where the current model's validation error is largest
  (the *active fine-tuning* data source).

Every selection function delivers **exactly** the requested number of
labelled pairs whenever the graph can supply them: candidates lost to the
self-pair filter or to unreachable (infinite-distance) endpoints are
re-drawn from the same seeded stream under a bounded retry budget, so the
per-phase sample budgets of ``build_rne`` are honoured rather than silently
shrunk.

Ground-truth labelling is the expensive part: one Dijkstra per distinct
source.  :class:`DistanceLabeler` amortises it by grouping pairs by source
and caching SSSP rows.  A build draws one labelling source set ``S``
(:func:`source_set`) and every stage takes its small per-cell, per-grid or
random source pool from ``S`` (the ``candidates`` argument of the
samplers), so later stages reuse rows earlier stages computed instead of
meeting them only by chance.  External callers leave ``candidates`` unset,
which makes every vertex a candidate.
"""

from __future__ import annotations

import time
import zlib
from collections import OrderedDict
from typing import Any, Callable, Dict, Sequence

import numpy as np

from ..algorithms.dijkstra import sssp_many
from ..graph import Graph, PartitionHierarchy

def stage_rng(seed: int, stage: str) -> np.random.Generator:
    """Independent sample stream for ``stage``, derived statelessly from the
    run seed.

    Decoupling sample generation from the main training RNG is what lets a
    resumed build skip finished stages: a stage's samples are identical
    whether it runs in an uninterrupted build or is re-derived by a resumed
    run — the stream depends only on ``(seed, stage name)``, never on which
    stages drew before it.  Incremental updates reuse the same convention
    so their validation sets honour the caller's seed (see
    :mod:`repro.core.update`).
    """
    return np.random.default_rng([seed, zlib.crc32(stage.encode("utf-8"))])


#: Upper bound on re-draw rounds when topping up a sample budget.  Each
#: round re-draws only the deficit, so even a graph where most pairs are
#: invalid (disconnected components) converges geometrically; the bound
#: exists so a bucket that can *only* produce degenerate pairs terminates.
_MAX_RESAMPLE_ROUNDS = 64


class DistanceLabeler:
    """Ground-truth shortest-distance oracle with an SSSP row cache.

    ``label(pairs)`` returns exact distances for a ``(k, 2)`` pair array,
    running one SSSP per *distinct uncached source* (scipy's C Dijkstra)
    and caching rows LRU-style.  Counters (``sssp_runs``, ``cache_hits``,
    ``pairs_labelled``, ``label_seconds``) follow the serving-stats
    convention and are surfaced via :meth:`snapshot`.
    """

    def __init__(self, graph: Graph, *, cache_size: int = 4096) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self.graph = graph
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self._cache_size = cache_size
        self.sssp_runs = 0
        self.cache_hits = 0
        self.pairs_labelled = 0
        self.label_seconds = 0.0

    # -- cache plumbing --------------------------------------------------
    def _store(self, source: int, row: np.ndarray) -> None:
        self._cache[source] = row
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    def row(self, source: int) -> np.ndarray:
        """Distance row from ``source`` to every vertex."""
        source = int(source)
        if source in self._cache:
            self._cache.move_to_end(source)
            self.cache_hits += 1
            return self._cache[source]
        row = sssp_many(self.graph, [source])[0]
        self.sssp_runs += 1
        self._store(source, row)
        return row

    def label(self, pairs: np.ndarray) -> np.ndarray:
        """Exact distances for each ``(source, target)`` pair.

        The gather is vectorised: pairs are grouped by distinct source via
        one argsort, then each group is filled with a single fancy-indexed
        read of its SSSP row — O(k log k) total instead of the former
        O(#sources * k) per-source boolean masking.
        """
        start = time.perf_counter()
        pairs = np.asarray(pairs, dtype=np.int64)
        out = np.empty(len(pairs), dtype=np.float64)
        if len(pairs) == 0:
            return out
        sources, inverse = np.unique(pairs[:, 0], return_inverse=True)
        # Resolve all rows up front (they may outnumber the cache capacity,
        # so the local dict — not the cache — is the source of truth here).
        resolved: Dict[int, np.ndarray] = {}
        missing: list[int] = []
        for s in sources:  # perf: loop-ok (bounded by distinct sources)
            s = int(s)
            if s in self._cache:
                resolved[s] = self._cache[s]
                self._cache.move_to_end(s)
                self.cache_hits += 1
            else:
                missing.append(s)
        if missing:
            rows = sssp_many(self.graph, missing)
            self.sssp_runs += len(missing)
            for s, row in zip(missing, rows):  # perf: loop-ok (per source)
                resolved[s] = row
                self._store(s, row)
        order = np.argsort(inverse, kind="stable")
        targets = pairs[:, 1]
        bounds = np.searchsorted(inverse[order], np.arange(sources.size + 1))
        for i in range(sources.size):  # perf: loop-ok (one gather per source)
            idx = order[bounds[i] : bounds[i + 1]]
            out[idx] = resolved[int(sources[i])][targets[idx]]
        self.pairs_labelled += len(pairs)
        self.label_seconds += time.perf_counter() - start
        return out

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe counters, mirroring ``ServingStats`` conventions."""
        return {
            "sssp_runs": self.sssp_runs,
            "cache_hits": self.cache_hits,
            "pairs_labelled": self.pairs_labelled,
            "label_seconds": self.label_seconds,
            "cache_entries": len(self._cache),
            "cache_capacity": self._cache_size,
        }


class _RaggedRows:
    """Concatenated ragged integer rows with vectorised per-row draws.

    Replaces per-element ``rng.choice`` Python loops: ``draw(idx, rng)``
    picks one uniform member from each row in ``idx`` with two array ops.
    """

    def __init__(self, rows: Sequence[np.ndarray]) -> None:
        if not rows:
            raise ValueError("need at least one row")
        self.sizes = np.array([row.size for row in rows], dtype=np.int64)
        if np.any(self.sizes == 0):
            raise ValueError("rows must be non-empty")
        self.offsets = np.zeros(len(rows), dtype=np.int64)
        np.cumsum(self.sizes[:-1], out=self.offsets[1:])
        self.flat = np.concatenate([np.asarray(r) for r in rows]).astype(np.int64)

    def draw(self, idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One uniform member per row index in ``idx`` (vectorised)."""
        return self.flat[self.offsets[idx] + rng.integers(self.sizes[idx])]


def _candidate_mask(n: int, candidates: np.ndarray | None) -> np.ndarray:
    """Boolean membership mask of ``candidates`` (every vertex for None)."""
    if candidates is None:
        return np.ones(n, dtype=bool)
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(candidates, dtype=np.int64)] = True
    return mask


def _group_pools(
    groups: Sequence[np.ndarray],
    mask: np.ndarray,
    size: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Up to ``size`` members of ``group ∩ candidates`` per group, without
    replacement; a group holding no candidate falls back to its own
    vertices, so every group keeps a non-empty pool."""
    pools = []
    for group in groups:  # perf: loop-ok (one draw per cell or grid)
        members = group[mask[group]]
        if members.size == 0:
            members = group
        pools.append(rng.choice(members, size=min(size, members.size), replace=False))
    return pools


def source_set(
    graph: Graph,
    hierarchy: PartitionHierarchy | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """The build's labelling source set ``S`` (sorted vertex ids).

    ``S`` holds 4 vertices (the samplers' default ``sources_per_cell``) of
    every cell at the finest sub-graph level.  The hierarchy is nested, so
    every coarser cell meets ``S`` too, and the coarse levels reuse the
    rows the finest level needs anyway.  Without a hierarchy ``S`` is a
    uniform pool of ``min(512, n)`` vertices, the random sampler's default
    pool size.  Every training stage draws its sources from ``S``, so a
    build runs about ``|S|`` SSSPs for its stages.
    """
    if hierarchy is None:
        pool = rng.choice(graph.n, size=min(512, graph.n), replace=False)
        return np.sort(pool).astype(np.int64)
    cells = hierarchy.cells(hierarchy.num_subgraph_levels - 1)
    pools = _group_pools(cells, _candidate_mask(graph.n, None), 4, rng)
    return np.sort(np.concatenate(pools)).astype(np.int64)


def _budgeted_samples(
    count: int,
    draw: Callable[[int], np.ndarray],
    labeler: DistanceLabeler,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw, label and filter until exactly ``count`` valid pairs exist.

    ``draw(k)`` produces ``(k, 2)`` candidate pairs; self-pairs and
    unreachable pairs are dropped and only the *deficit* is re-drawn, so
    the expected extra labelling work is proportional to the invalid-pair
    rate.  Bounded by :data:`_MAX_RESAMPLE_ROUNDS` rounds — a graph that
    cannot supply ``count`` valid pairs returns what it has.
    """
    pair_chunks: list[np.ndarray] = []
    phi_chunks: list[np.ndarray] = []
    have = 0
    for _ in range(_MAX_RESAMPLE_ROUNDS):  # perf: loop-ok (bounded top-up)
        need = count - have
        if need <= 0:
            break
        cand = np.asarray(draw(need), dtype=np.int64)
        if cand.shape[0] == 0:
            break  # the strategy has nothing left to offer
        cand = cand[cand[:, 0] != cand[:, 1]]
        if cand.shape[0] == 0:
            continue
        phi = labeler.label(cand)
        ok = np.isfinite(phi)
        if ok.any():
            pair_chunks.append(cand[ok])
            phi_chunks.append(phi[ok])
            have += int(ok.sum())
    if not pair_chunks:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.float64)
    pairs = np.vstack(pair_chunks)[:count]
    phi = np.concatenate(phi_chunks)[:count]
    return pairs, phi


# ----------------------------------------------------------------------
# Phase 1: sub-graph-level selection
# ----------------------------------------------------------------------
def subgraph_level_samples(
    hierarchy: PartitionHierarchy,
    level: int,
    count: int,
    labeler: DistanceLabeler,
    rng: np.random.Generator,
    *,
    sources_per_cell: int = 4,
    candidates: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exactly ``count`` uniform cell-pair samples at ``level``
    (Algorithm 2, lines 1-5).

    Cell pairs are drawn uniformly (probability ``1/|P_l|^2``), then one
    vertex inside each cell.  The source-side vertex comes from a small
    per-cell pool of up to ``sources_per_cell`` members of
    ``candidates ∩ cell`` (the cell itself when they do not meet), so
    labelling costs at most ``sources_per_cell * |P_l|`` SSSP runs
    regardless of ``count``; dropped candidates (self-pairs, unreachable
    pairs) are re-drawn from the same pools.
    """
    cells = hierarchy.cells(level)
    mask = _candidate_mask(hierarchy.graph.n, candidates)
    pools = _RaggedRows(_group_pools(cells, mask, sources_per_cell, rng))
    members = _RaggedRows(list(cells))

    def draw(k: int) -> np.ndarray:
        ci = rng.integers(len(cells), size=k)
        cj = rng.integers(len(cells), size=k)
        s = pools.draw(ci, rng)
        t = members.draw(cj, rng)
        return np.column_stack([s, t])

    return _budgeted_samples(count, draw, labeler)


# ----------------------------------------------------------------------
# Phase 2: landmark-based selection
# ----------------------------------------------------------------------
def landmark_samples(
    graph: Graph,
    landmarks: np.ndarray,
    count: int,
    labeler: DistanceLabeler,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Exactly ``count`` pairs ``(u in U, v in V)`` (Algorithm 2, lines 6-8).

    Each sample relates a vertex to a landmark; with ``|U| << |V|`` every
    landmark is hit often enough to pin the reference frame quickly.
    """
    landmarks = np.asarray(landmarks, dtype=np.int64)

    def draw(k: int) -> np.ndarray:
        s = landmarks[rng.integers(landmarks.size, size=k)]
        t = rng.integers(graph.n, size=k).astype(np.int64)
        return np.column_stack([s, t])

    return _budgeted_samples(count, draw, labeler)


def random_pair_samples(
    graph: Graph,
    count: int,
    labeler: DistanceLabeler,
    rng: np.random.Generator,
    *,
    source_pool_size: int = 512,
    candidates: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exactly ``count`` near-uniform random pairs with bounded labelling.

    Sources come from a fresh uniform pool of up to ``source_pool_size``
    of the ``candidates`` (every vertex by default), so at most that many
    SSSP runs; targets are fully uniform.  Used for the joint stage, the
    *Random* baseline of Fig. 12 and validation sets.
    """
    ids = np.nonzero(_candidate_mask(graph.n, candidates))[0]
    pool = rng.choice(ids, size=min(source_pool_size, ids.size), replace=False)

    def draw(k: int) -> np.ndarray:
        s = pool[rng.integers(pool.size, size=k)]
        t = rng.integers(graph.n, size=k).astype(np.int64)
        return np.column_stack([s, t])

    return _budgeted_samples(count, draw, labeler)


def validation_set(
    graph: Graph,
    count: int,
    labeler: DistanceLabeler,
    seed: int | np.random.Generator | None = 12345,
    *,
    source_pool_size: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Held-out labelled pairs for error evaluation.

    Targets are uniform; 64 sources cover a few thousand pairs (a build's
    4,000, an update's 1,000) at a fraction of the SSSP cost.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return random_pair_samples(
        graph, count, labeler, rng, source_pool_size=source_pool_size
    )


# ----------------------------------------------------------------------
# Phase 3: grid buckets + error-based selection
# ----------------------------------------------------------------------
class GridBuckets:
    """``K x K`` spatial grid with grid-pair distance buckets (Sec. V-C).

    Vertex pairs cannot be bucketed by true distance (that would need all
    ``|V|^2`` distances), so the paper buckets *grid pairs* by the number of
    grid steps between them — Manhattan grid distance in ``[0, 2K-2]`` —
    giving ``R = 2K-1`` buckets that approximate distance intervals.

    ``sample(bucket, count)`` draws a grid pair within the bucket with
    probability proportional to ``|g_s| * |g_t|`` (so vertex pairs inside a
    bucket are uniform), then one vertex from each grid.  Source-side
    vertices come from fixed per-grid pools of up to ``source_pool_size``
    members of ``candidates ∩ grid`` (the grid's own vertices where they do
    not meet) to keep labelling cheap.
    """

    def __init__(
        self,
        graph: Graph,
        k: int = 12,
        *,
        source_pool_size: int = 4,
        seed: int | np.random.Generator | None = 0,
        candidates: np.ndarray | None = None,
    ) -> None:
        if graph.coords is None:
            raise ValueError("GridBuckets requires vertex coordinates")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self.graph = graph
        self.k = int(k)

        coords = graph.coords
        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        span = np.maximum(hi - lo, 1e-12)
        cell = np.clip(((coords - lo) / span * k).astype(np.int64), 0, k - 1)
        self.vertex_grid = cell[:, 1] * k + cell[:, 0]

        self.grid_vertices: dict[int, np.ndarray] = {}
        for g in np.unique(self.vertex_grid):
            self.grid_vertices[int(g)] = np.nonzero(self.vertex_grid == g)[0]
        # One source pool per occupied grid, in ascending grid order.
        pools = _group_pools(
            list(self.grid_vertices.values()),
            _candidate_mask(graph.n, candidates),
            source_pool_size,
            rng,
        )

        # Enumerate ordered non-empty grid pairs into buckets.
        self.num_buckets = 2 * k - 1
        occupied = np.array(sorted(self.grid_vertices), dtype=np.int64)
        gx = occupied % k
        gy = occupied // k
        # Flattened per-grid member / source-pool rows (occupied order) so
        # sample() can draw vertices with vectorised fancy indexing instead
        # of a per-element rng.choice loop.
        self._grid_index = np.full(k * k, -1, dtype=np.int64)
        self._grid_index[occupied] = np.arange(occupied.size, dtype=np.int64)
        member_sizes = np.array(
            [self.grid_vertices[int(g)].size for g in occupied], dtype=np.int64
        )
        self._members = _RaggedRows([self.grid_vertices[int(g)] for g in occupied])
        self._source_pools = _RaggedRows(pools)
        self._bucket_pairs: list[np.ndarray] = []
        self._bucket_cumw: list[np.ndarray] = []
        self._bucket_productive: list[bool] = []
        hop = np.abs(gx[:, None] - gx[None, :]) + np.abs(gy[:, None] - gy[None, :])
        sizes = member_sizes
        for b in range(self.num_buckets):  # perf: loop-ok (O(buckets) setup)
            ii, jj = np.nonzero(hop == b)
            pairs = np.column_stack([occupied[ii], occupied[jj]])
            weights = (sizes[ii] * sizes[jj]).astype(np.float64)
            self._bucket_pairs.append(pairs)
            self._bucket_cumw.append(np.cumsum(weights))
            # A grid pair can yield a non-degenerate vertex pair unless it is
            # a same-grid pair over a single-vertex grid.
            self._bucket_productive.append(
                bool(np.any((ii != jj) | (sizes[ii] > 1)))
            )

    def bucket_weight(self, bucket: int) -> float:
        """Number of vertex pairs represented by ``bucket``."""
        cumw = self._bucket_cumw[bucket]
        return float(cumw[-1]) if cumw.size else 0.0

    def nonempty_buckets(self) -> np.ndarray:
        """Indices of buckets that contain at least one grid pair."""
        return np.array(
            [b for b in range(self.num_buckets) if self.bucket_weight(b) > 0],
            dtype=np.int64,
        )

    def sample(
        self, bucket: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw exactly ``count`` vertex pairs from ``bucket``.

        Self-pair rejects are re-drawn under a bounded retry budget, so the
        full count is delivered unless the bucket holds only degenerate
        same-vertex grid pairs (then it returns what exists — possibly
        nothing).
        """
        pairs = self._bucket_pairs[bucket]
        cumw = self._bucket_cumw[bucket]
        if pairs.shape[0] == 0 or count <= 0 or not self._bucket_productive[bucket]:
            return np.empty((0, 2), dtype=np.int64)
        chunks: list[np.ndarray] = []
        have = 0
        for _ in range(_MAX_RESAMPLE_ROUNDS):  # perf: loop-ok (bounded top-up)
            need = count - have
            if need <= 0:
                break
            picks = np.searchsorted(cumw, rng.random(need) * cumw[-1], side="right")
            gi = self._grid_index[pairs[picks, 0]]
            gj = self._grid_index[pairs[picks, 1]]
            s = self._source_pools.draw(gi, rng)
            t = self._members.draw(gj, rng)
            keep = s != t
            if keep.any():
                chunks.append(np.column_stack([s[keep], t[keep]]))
                have += int(keep.sum())
        if not chunks:
            return np.empty((0, 2), dtype=np.int64)
        return np.vstack(chunks)[:count]

    def bucket_of_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Bucket index of each vertex pair (grid Manhattan hop count)."""
        pairs = np.asarray(pairs, dtype=np.int64)
        gs = self.vertex_grid[pairs[:, 0]]
        gt = self.vertex_grid[pairs[:, 1]]
        dx = np.abs(gs % self.k - gt % self.k)
        dy = np.abs(gs // self.k - gt // self.k)
        return dx + dy


def error_based_samples(
    buckets: GridBuckets,
    bucket_errors: np.ndarray,
    count: int,
    labeler: DistanceLabeler,
    rng: np.random.Generator,
    *,
    mode: str = "global",
) -> tuple[np.ndarray, np.ndarray]:
    """Exactly ``count`` samples targeted at under-fitting buckets
    (Algorithm 2, lines 9-17).

    ``mode="local"`` draws everything from the single worst bucket;
    ``mode="global"`` spreads draws proportionally to each bucket's error.
    ``bucket_errors`` must have one (non-negative) entry per bucket; buckets
    with zero weight are ignored.  Pairs lost to the self-pair or
    unreachable filters are re-drawn (bounded retries); a bucket that
    structurally cannot fill its share is dropped from subsequent rounds so
    the remaining budget flows to the buckets that can.
    """
    bucket_errors = np.asarray(bucket_errors, dtype=np.float64)
    if bucket_errors.shape != (buckets.num_buckets,):
        raise ValueError(
            f"bucket_errors must have shape ({buckets.num_buckets},), "
            f"got {bucket_errors.shape}"
        )
    if mode not in ("local", "global"):
        raise ValueError(f"mode must be 'local' or 'global', got {mode!r}")
    usable = np.array(
        [1.0 if buckets.bucket_weight(b) > 0 else 0.0
         for b in range(buckets.num_buckets)]
    )
    weights = bucket_errors * usable

    if mode == "local":
        w = np.zeros(buckets.num_buckets, dtype=np.float64)
        w[int(np.argmax(weights))] = 1.0
    else:
        w = weights.copy()
        if w.sum() <= 0:
            w = usable.copy()

    pair_chunks: list[np.ndarray] = []
    phi_chunks: list[np.ndarray] = []
    have = 0
    for _ in range(_MAX_RESAMPLE_ROUNDS):  # perf: loop-ok (bounded top-up)
        need = count - have
        total = w.sum()
        if need <= 0 or total <= 0:
            break
        counts = rng.multinomial(need, w / total)
        drawn: list[np.ndarray] = []
        for b, c in enumerate(counts):  # perf: loop-ok (bounded by #buckets)
            if c == 0:
                continue
            got = buckets.sample(b, int(c), rng)
            if got.shape[0] < int(c):
                w[b] = 0.0  # bucket cannot fill its share; stop asking
            if got.shape[0]:
                drawn.append(got)
        if not drawn:
            continue
        cand = np.vstack(drawn)
        phi = labeler.label(cand)
        ok = np.isfinite(phi)
        if ok.any():
            pair_chunks.append(cand[ok])
            phi_chunks.append(phi[ok])
            have += int(ok.sum())
    if not pair_chunks:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.float64)
    return np.vstack(pair_chunks)[:count], np.concatenate(phi_chunks)[:count]
