"""Golden digests: the graph core and the partitioner must not drift.

Every digest below was recorded with the dict-based partitioner and the
edge-list ``Graph`` that preceded the CSR-only versions.  The partitions
decide the hierarchy, and the hierarchy decides every trained embedding, so
a changed digest means changed models, not just a faster build.

The 50k-vertex digest is too slow for the unit suite; CI checks it by
running this file as a script::

    python tests/graph/test_golden.py

which builds ``PartitionHierarchy(grid_city(224, 224, seed=7), seed=0)``,
prints the wall time and exits non-zero unless ``anc_rows`` matches.
"""

from __future__ import annotations

import hashlib
import sys
import time

import numpy as np
import pytest

from repro.graph import (
    Graph,
    PartitionHierarchy,
    delaunay_country,
    grid_city,
    multi_city,
    partition_kway,
    radial_city,
)

HIERARCHY_50K_SHA256 = "b712e8b4b28a22bbb1047761b3e8bd8b032eb8e06b9493900c36262a044c22d7"


def digest(*arrays: np.ndarray) -> str:
    """sha256 over each array's dtype, shape and bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


HIERARCHIES = {
    "grid20-seed0": (
        lambda: PartitionHierarchy(grid_city(20, 20, seed=7), leaf_size=16, seed=0),
        "b0b127836f2ae61457340d59ecc5c99548f503f21950d20e1cc095316479f0a1",
    ),
    "grid20-seed1": (
        lambda: PartitionHierarchy(grid_city(20, 20, seed=7), leaf_size=16, seed=1),
        "8845b76f53c8fffd075046435679df2f36e6937b50e6d4eefc6c0c16fab3b2e9",
    ),
    "radial-fanout3": (
        lambda: PartitionHierarchy(
            radial_city(8, 24, seed=3), fanout=3, leaf_size=12, seed=2
        ),
        "415ed8e0bb24a4a26d8b0673fd81f2c09ecf1437c736629b944589d232ffb9b8",
    ),
    "delaunay": (
        lambda: PartitionHierarchy(delaunay_country(300, seed=5), leaf_size=20, seed=4),
        "e86f9454af3ac0ee5433f499204fee28e4ae14f17fc6363d5f0328097d4828ee",
    ),
}


@pytest.mark.parametrize("name", sorted(HIERARCHIES))
def test_hierarchy_anc_rows(name):
    build, expected = HIERARCHIES[name]
    assert digest(build().anc_rows) == expected


@pytest.mark.parametrize(
    "graph, k, seed, expected",
    [
        (lambda: grid_city(16, 16, seed=2), 5, 0,
         "0949d7aabcce3c3b7d49cc9299092c09fe0fe8229b650fb1ebb77fccf967d943"),
        (lambda: grid_city(13, 11, seed=4), 7, 9,
         "08df2a91beb6da10c5657d6b21e068335eb3e2daf234ce950a96f3ef0c8fe28e"),
    ],
)
def test_partition_kway_labels(graph, k, seed, expected):
    assert digest(partition_kway(graph(), k, seed=seed)) == expected


def test_partition_kway_rounding_sensitive_weights():
    # Weights like 0.1 + 0.2 make sums depend on their order; refinement
    # that applied +-w deltas instead of re-summing changes these labels.
    rng = np.random.default_rng(0)
    n = 120
    u, v = rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n)
    w = rng.choice([0.1, 0.2, 0.3, 1 / 3, 0.7], 4 * n)
    keep = u != v
    g = Graph(n, zip(u[keep], v[keep], w[keep]))
    assert digest(partition_kway(g, 6, seed=0)) == (
        "198d224569163679e75f537355dc8ba45cc91c95691489517205a1590c3fc9e9"
    )


GRAPHS = {
    "multi_city": (
        lambda: multi_city(3, 8, 8, seed=1),
        "f1a406d221d92f6f6f59e50141a44477ac12147b45cb8b86a426b1aa8a8e0480",
        "9c734c84e277cf460b4990fb8fcdcb81049bd995be117234f8e62aaf5a523647",
    ),
    "disconnected": (
        lambda: Graph(
            7, [(0, 1, 2.0), (1, 2, 1.5), (4, 5, 3.0), (5, 6, 0.25), (4, 6, 1.0)]
        ),
        "e5bc360d6109c33fc8010edbd349b3fd5e638e52c9b796d157348552125a77b5",
        "76d002625921c9d51770aed7a321f7fc2bbc885ce27f1037a761de23392268cc",
    ),
    "parallel-edges": (
        lambda: Graph(
            5,
            [
                (0, 1, 5.0), (1, 0, 3.0), (3, 1, 2.5), (1, 3, 4.0),
                (2, 4, 1.0), (4, 2, 0.5), (0, 4, 9.0), (0, 1, 7.0),
            ],
        ),
        "1a1d6cf8985cbef6c629ef5d9acc74f223a0aa022920b99e1a44aeb7eb3cb133",
        "3a0955f6a7730a97e9505f2ab487d7e2fe1383a2cf23745698e7c7796f2938ae",
    ),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_edge_and_csr_arrays(name):
    build, edges_sha, csr_sha = GRAPHS[name]
    g = build()
    assert digest(*g.edge_array()) == edges_sha
    assert digest(*g.csr_arrays()) == csr_sha


def main() -> int:
    graph = grid_city(224, 224, seed=7)
    start = time.perf_counter()
    hierarchy = PartitionHierarchy(graph, seed=0)
    elapsed = time.perf_counter() - start
    got = digest(hierarchy.anc_rows)
    print(f"PartitionHierarchy n={graph.n}: {elapsed:.2f} s, anc_rows sha256 {got}")
    if got != HIERARCHY_50K_SHA256:
        print(f"expected sha256 {HIERARCHY_50K_SHA256}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
