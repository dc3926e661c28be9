"""Partition hierarchy: the tree behind the hierarchical RNE model.

Section IV of the paper recursively partitions the road network with fanout
``kappa`` until cells shrink below a size threshold ``delta``, producing a
tree whose internal nodes are sub-graphs and whose leaves are the original
vertices.  Every tree node owns a *local* embedding; a vertex's global
embedding is the sum of its ancestors' local embeddings.

To keep training fully vectorisable, this implementation aligns all branches
to the same depth: every vertex has exactly one ancestor at each sub-graph
level (small cells are padded down as single-child chains).  The per-vertex
ancestor rows are exposed as one ``(n, L+1)`` integer array so the trainer
can gather and scatter gradients with pure numpy indexing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..devtools.contracts import shapes
from .graph import Graph
from .partition import partition_kway


@dataclass
class HierarchyNode:
    """One tree node: a sub-graph cell (or, at the last level, a vertex)."""

    id: int
    level: int
    row: int
    parent: int | None
    vertices: np.ndarray
    children: list[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        return int(self.vertices.size)


class PartitionHierarchy:
    """Aligned partition tree over a road network.

    Parameters
    ----------
    graph:
        The road network.
    fanout:
        Partitioning fanout ``kappa`` (> 1).
    leaf_size:
        Size threshold ``delta``: cells at or below this size stop being
        subdivided (they are chain-padded to keep levels aligned).
    max_levels:
        Optional cap on the number of sub-graph levels.
    seed:
        Seed for the partitioner's randomised phases.

    Attributes
    ----------
    num_subgraph_levels:
        ``L`` — number of sub-graph levels.  The vertex level is level ``L``
        (0-based), so there are ``L + 1`` embedded levels in total.
    levels:
        ``levels[l]`` lists the node ids at level ``l``; row order within a
        level matches each node's ``row`` attribute.  At the vertex level,
        ``row`` equals the original vertex id.
    anc_rows:
        ``(n, L + 1)`` int array: ``anc_rows[v, l]`` is the row (within
        level ``l``) of vertex ``v``'s ancestor at that level.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        fanout: int = 4,
        leaf_size: int = 64,
        max_levels: int | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        self.graph = graph
        self.fanout = fanout
        self.leaf_size = leaf_size
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

        n = graph.n
        depth = max(1, math.ceil(math.log(max(n / leaf_size, 1.0000001), fanout)))
        if max_levels is not None:
            depth = min(depth, max(1, max_levels))
        self.num_subgraph_levels = depth

        self.nodes: list[HierarchyNode] = []
        self.levels: list[list[int]] = [[] for _ in range(depth + 1)]
        self._build(rng)
        self.anc_rows = self._compute_ancestor_rows()

    # ------------------------------------------------------------------
    def _new_node(
        self, level: int, parent: int | None, vertices: np.ndarray
    ) -> HierarchyNode:
        node = HierarchyNode(
            id=len(self.nodes),
            level=level,
            row=len(self.levels[level]),
            parent=parent,
            vertices=vertices,
        )
        self.nodes.append(node)
        self.levels[level].append(node.id)
        if parent is not None:
            self.nodes[parent].children.append(node.id)
        return node

    def _build(self, rng: np.random.Generator) -> None:
        depth = self.num_subgraph_levels
        all_vertices = np.arange(self.graph.n, dtype=np.int64)

        # Level 0: partition the whole graph.
        frontier: list[HierarchyNode] = []
        for cell in self._partition_cell(all_vertices, rng):
            frontier.append(self._new_node(0, None, cell))

        # Levels 1 .. depth-1: subdivide each frontier cell.
        for level in range(1, depth):
            next_frontier: list[HierarchyNode] = []
            for node in frontier:
                if node.size <= self.leaf_size:
                    # Chain padding: one child covering the same vertices.
                    next_frontier.append(
                        self._new_node(level, node.id, node.vertices)
                    )
                    continue
                for cell in self._partition_cell(node.vertices, rng):
                    next_frontier.append(self._new_node(level, node.id, cell))
            frontier = next_frontier

        # Vertex level: one node per vertex; row == vertex id.
        owner = np.empty(self.graph.n, dtype=np.int64)
        for node in frontier:
            owner[node.vertices] = node.id
        for v in range(self.graph.n):
            self._new_node(depth, int(owner[v]), np.array([v], dtype=np.int64))

    def _partition_cell(
        self, vertices: np.ndarray, rng: np.random.Generator
    ) -> list[np.ndarray]:
        k = min(self.fanout, vertices.size)
        if k <= 1:
            return [vertices]
        sub, mapping = self.graph.subgraph(vertices)
        labels = partition_kway(sub, k, seed=rng)
        cells = [mapping[labels == part] for part in range(k)]
        return [c for c in cells if c.size > 0]

    def _compute_ancestor_rows(self) -> np.ndarray:
        # Each level partitions the vertex set and cells nest, so a vertex's
        # ancestor at ``level`` is the level's cell that contains it.
        depth = self.num_subgraph_levels
        rows = np.empty((self.graph.n, depth + 1), dtype=np.int64)
        for level, ids in enumerate(self.levels):
            for node_id in ids:
                node = self.nodes[node_id]
                rows[node.vertices, level] = node.row
        return rows

    # ------------------------------------------------------------------
    @classmethod
    @shapes(anc_rows="(n,l):int")
    def from_ancestor_rows(cls, graph: Graph, anc_rows: np.ndarray) -> "PartitionHierarchy":
        """Reconstruct an aligned hierarchy from its ancestor-row array.

        ``anc_rows`` fully determines the tree (levels, rows, nesting), so
        a trained model can be persisted as plain arrays and revived
        without re-running the partitioner.  Raises ``ValueError`` unless
        each level's rows are ``0..k-1`` and every cell lies inside one
        cell of the level above.
        """
        anc_rows = np.asarray(anc_rows, dtype=np.int64)
        if anc_rows.shape[0] != graph.n or anc_rows.ndim != 2:
            raise ValueError(
                f"anc_rows must have shape ({graph.n}, L+1), got {anc_rows.shape}"
            )
        depth = anc_rows.shape[1] - 1
        if not np.array_equal(anc_rows[:, depth], np.arange(graph.n)):
            raise ValueError("last anc_rows column must equal vertex ids")
        self = object.__new__(cls)
        self.graph = graph
        self.fanout = 0  # unknown after reconstruction; structural only
        self.leaf_size = 0
        self.num_subgraph_levels = depth
        self.nodes = []
        self.levels = [[] for _ in range(depth + 1)]
        self.anc_rows = anc_rows

        # One stable sort per level groups each row's vertices, ascending.
        for level in range(depth + 1):
            order = np.argsort(anc_rows[:, level], kind="stable")
            rows = anc_rows[order, level]
            starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
            if not np.array_equal(rows[starts], np.arange(starts.size)):
                raise ValueError(f"anc_rows rows at level {level} are not contiguous")
            if level > 0:
                parents = anc_rows[order, level - 1]
                split = parents[1:] != parents[:-1]
                split[starts[1:] - 1] = False
                if split.any():
                    row = int(rows[int(np.argmax(split)) + 1])
                    raise ValueError(
                        f"anc_rows are not nested: row {row} at level {level} "
                        f"spans several level-{level - 1} cells"
                    )
            for vertices in np.split(order, starts[1:]):
                parent = None
                if level > 0:
                    parent = self.levels[level - 1][int(anc_rows[vertices[0], level - 1])]
                self._new_node(level, parent, vertices)
        return self

    @property
    def num_levels(self) -> int:
        """Total embedded levels (sub-graph levels + the vertex level)."""
        return self.num_subgraph_levels + 1

    def level_size(self, level: int) -> int:
        """Number of nodes at ``level``."""
        return len(self.levels[level])

    def level_sizes(self) -> list[int]:
        return [len(ids) for ids in self.levels]

    def cells(self, level: int) -> list[np.ndarray]:
        """Vertex sets of the cells at ``level`` (row order)."""
        return [self.nodes[i].vertices for i in self.levels[level]]

    def vertex_labels(self, level: int) -> np.ndarray:
        """Per-vertex cell row at ``level`` — i.e. ``anc_rows[:, level]``."""
        return self.anc_rows[:, level]

    def root_ids(self) -> list[int]:
        """Ids of the level-0 nodes."""
        return list(self.levels[0])

    def validate(self) -> None:
        """Raise ``ValueError`` if tree invariants are violated.

        Checked: every level exactly covers the vertex set without overlap;
        children partition their parent; the vertex level has ``row ==
        vertex id``.
        """
        n = self.graph.n
        for level in range(self.num_levels):
            seen = np.zeros(n, dtype=bool)
            for node_id in self.levels[level]:
                verts = self.nodes[node_id].vertices
                if seen[verts].any():
                    raise ValueError(f"overlap at level {level}")
                seen[verts] = True
            if not seen.all():
                raise ValueError(f"level {level} does not cover all vertices")
        for node in self.nodes:
            if node.children:
                child_union = np.concatenate(
                    [self.nodes[c].vertices for c in node.children]
                )
                if not np.array_equal(np.sort(child_union), np.sort(node.vertices)):
                    raise ValueError(f"children of node {node.id} do not partition it")
        depth = self.num_subgraph_levels
        for node_id in self.levels[depth]:
            node = self.nodes[node_id]
            if node.size != 1 or node.row != int(node.vertices[0]):
                raise ValueError(
                    f"vertex-level node {node.id} must be a singleton with "
                    f"row == vertex id"
                )
