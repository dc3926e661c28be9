"""Workload specifications and seeded input generation.

Everything the program under test receives is made here.  The *map* is
fixed per workload: the road network, the POI targets, the hot set, the
range radius and the held-out pairs.  The run seed varies every query
stream and the reweighted-edge update sequence.  Ground truth (held-out distances and
the range radius) comes from ``scipy.sparse.csgraph`` on the graph's edge
list, never from the program's own Dijkstra, so the benchmark's oracle is
independent of the code it grades.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from repro import Graph, grid_city


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload.  The two named workloads live in ``WORKLOADS``;
    tests build tiny specs of their own."""

    name: str
    grid: int
    #: Seed of the map (graph, POIs, hot set, held-out pairs).  The map and
    #: the build (default ``RNEConfig()``) are fixed per workload so that
    #: the run seed varies traffic, not the model being served: on 10k
    #: vertices a new graph per seed moved mean_rel_err by 35% (IQR/median
    #: over five seeds), and two build seeds on one graph gave kNN batch
    #: medians of 5.5 and 10.1 ms.
    map_seed: int
    pois: int
    #: Sources are drawn Zipf(``zipf``) over a hot set of this many
    #: vertices; ``None`` draws them uniformly over all vertices.
    hot_set: Optional[int]
    zipf: float
    dist_batch: int
    knn_sources: int
    range_sources: int
    k: int
    #: Live updates.  ``interleaved`` puts one after each serving window;
    #: otherwise they run as a tail after all serving has been measured.
    updates: int
    interleaved: bool
    #: Timed builds of the same graph per run; build_s is their median.
    builds: int = 3
    #: Draw the update sequence and the updates' own seeds from
    #: ``map_seed`` instead of the run seed, so every run applies the same
    #: updates.
    map_updates: bool = False
    update_edges: int = 20
    update_factor: float = 3.0
    #: Held-out truth: ``heldout_sources`` x ``heldout_targets`` pairs.
    heldout_sources: int = 128
    heldout_targets: int = 64
    #: Range radius: this quantile of exact source -> POI distances.
    tau_quantile: float = 0.02
    #: Pools the serving loop cycles through (batches per pool).
    dist_pool: int = 32
    knn_pool: int = 512
    range_pool: int = 256


WORKLOADS = {
    # The larger partition and labeling share of the two builds (at 4.9k
    # vertices SGD is still the largest part); uniform sources far exceed the
    # 256-row hot-row cache, so serving runs the tree-index frontier.  One
    # update, applied after serving and to each unserved rebuild, keeps
    # update_s defined without mixing writes into the serving measurements.
    # The update is part of the map: one seeded update per run moved
    # update_s between 0.6 and 0.9 s across seeds, more than the machine did.
    "metro-serve": Spec(
        name="metro-serve", grid=70, map_seed=7, pois=1000, hot_set=None, zipf=0.0,
        dist_batch=8192, knn_sources=16, range_sources=32, k=10,
        updates=1, interleaved=False, map_updates=True,
    ),
    # Mostly-SGD build; Zipf-skewed traffic whose head fits the hot-row
    # cache, with a live update after every serving window so purge,
    # refill and publish costs land in the serving tail.
    "city-live": Spec(
        name="city-live", grid=60, map_seed=7, pois=500, hot_set=1000, zipf=1.1,
        dist_batch=8192, knn_sources=32, range_sources=64, k=10,
        updates=8, interleaved=True,
    ),
}


@dataclass
class Update:
    """One live update: the reweighted graph and its changed endpoints."""

    graph: Graph
    changed: np.ndarray


@dataclass
class Inputs:
    graph: Graph
    pois: np.ndarray
    tau: float
    heldout_pairs: np.ndarray
    #: Exact distances of ``heldout_pairs`` on the graph the error is
    #: measured against (the final graph when updates interleave serving).
    heldout_truth: np.ndarray
    dist_batches: np.ndarray
    knn_batches: np.ndarray
    range_batches: np.ndarray
    updates: List[Update] = field(default_factory=list)
    digest: str = ""


def stream(seed: int, purpose: str) -> np.random.Generator:
    """Independent generator per (seed, purpose)."""
    return np.random.default_rng([int(seed), zlib.crc32(purpose.encode())])


def exact_rows(graph: Graph, sources: np.ndarray) -> np.ndarray:
    """Exact distance rows via scipy on the graph's undirected edge list."""
    us, vs, ws = graph.edge_array()
    adj = sparse.coo_matrix((ws, (us, vs)), shape=(graph.n, graph.n)).tocsr()
    return dijkstra(adj, directed=False, indices=np.asarray(sources, dtype=np.int64))


def _sources(
    spec: Spec, n: int, hot: Optional[np.ndarray], rng: np.random.Generator, shape: Tuple[int, ...]
) -> np.ndarray:
    if hot is None:
        return rng.integers(n, size=shape, dtype=np.int64)
    ranks = np.arange(1, hot.size + 1, dtype=np.float64)
    weights = ranks ** -spec.zipf
    return hot[rng.choice(hot.size, size=shape, p=weights / weights.sum())]


def _update_sequence(spec: Spec, graph: Graph, seed: int) -> List[Update]:
    """Cumulative traffic: each update scales ``update_edges`` more edges."""
    us, vs, ws = graph.edge_array()
    ws = ws.copy()
    rng = stream(seed, "updates")
    out = []
    for _ in range(spec.updates):
        picks = rng.choice(us.size, size=spec.update_edges, replace=False)
        ws[picks] *= spec.update_factor
        new_graph = Graph(graph.n, zip(us.tolist(), vs.tolist(), ws.tolist()), coords=graph.coords)
        out.append(Update(new_graph, np.column_stack([us[picks], vs[picks]]).astype(np.int64)))
    return out


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """All inputs of one run; the same ``(spec, seed)`` gives identical arrays."""
    graph = grid_city(spec.grid, spec.grid, seed=spec.map_seed)
    n = graph.n
    rng = stream(spec.map_seed, "map")
    pois = np.sort(rng.choice(n, size=spec.pois, replace=False)).astype(np.int64)
    hot = None
    if spec.hot_set is not None:
        hot = rng.choice(n, size=spec.hot_set, replace=False).astype(np.int64)
    src = rng.choice(n, size=spec.heldout_sources, replace=False).astype(np.int64)
    tgt = rng.integers(n, size=(spec.heldout_sources, spec.heldout_targets), dtype=np.int64)
    # tau from exact distances of served-like sources, so it never depends
    # on the learned embedding.
    probe = np.unique(_sources(spec, n, hot, rng, (64,)))

    updates = _update_sequence(spec, graph, spec.map_seed if spec.map_updates else seed)
    truth_graph = updates[-1].graph if (updates and spec.interleaved) else graph
    rows = exact_rows(truth_graph, src)
    pairs = np.column_stack([np.repeat(src, spec.heldout_targets), tgt.ravel()])
    truth = rows[np.repeat(np.arange(src.size), spec.heldout_targets), tgt.ravel()]
    keep = (pairs[:, 0] != pairs[:, 1]) & np.isfinite(truth)
    poi_dists = exact_rows(graph, probe)[:, pois]
    tau = float(np.quantile(poi_dists[np.isfinite(poi_dists)], spec.tau_quantile))

    rng = stream(seed, "serving")
    dist_batches = np.stack(
        [_sources(spec, n, hot, rng, (spec.dist_batch, 2)) for _ in range(spec.dist_pool)]
    )
    inputs = Inputs(
        graph=graph, pois=pois, tau=tau, heldout_pairs=pairs[keep], heldout_truth=truth[keep],
        dist_batches=dist_batches,
        knn_batches=_sources(spec, n, hot, rng, (spec.knn_pool, spec.knn_sources)),
        range_batches=_sources(spec, n, hot, rng, (spec.range_pool, spec.range_sources)),
        updates=updates,
    )
    inputs.digest = digest(inputs)
    return inputs


def digest(inputs: Inputs) -> str:
    """sha256 over every generated array handed to the program."""
    h = hashlib.sha256()
    graphs = [inputs.graph] + [u.graph for u in inputs.updates]
    arrays: List[np.ndarray] = []
    for g in graphs:
        arrays.extend(g.edge_array())
    arrays.append(inputs.graph.coords)
    arrays += [inputs.pois, np.array([inputs.tau]), inputs.heldout_pairs, inputs.heldout_truth,
               inputs.dist_batches, inputs.knn_batches, inputs.range_batches]
    arrays += [u.changed for u in inputs.updates]
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()
