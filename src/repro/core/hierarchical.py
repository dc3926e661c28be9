"""Hierarchical RNE model (Sec. IV of the paper).

Every node of the partition hierarchy — sub-graph cells and, at the last
level, the vertices themselves — owns a *local* embedding representing its
position among its siblings.  A vertex's *global* embedding is the sum of
the local embeddings along its ancestor chain::

    v_global = sum_l  M_l[ anc_rows[v, l] ]

The sum structure shares parameters across all vertices of a cell: coarse
levels carry the large-norm, region-scale components once for all their
descendants, which is why hierarchical training converges faster and to a
better optimum than the flat table (reproduced in Fig. 11).

The flat table itself is the one-level case (:meth:`HierarchicalRNE.flat`):
every vertex is its own only ancestor, so one training loop serves both.
"""

from __future__ import annotations

import numpy as np

from ..devtools.contracts import shapes
from ..graph import PartitionHierarchy
from .model import RNEModel, lp_distance


class HierarchicalRNE:
    """Per-level local embedding matrices over a partition hierarchy.

    Parameters
    ----------
    hierarchy:
        The aligned partition tree.
    d:
        Embedding dimension.
    p:
        Metric order for queries (1 recommended).
    init_scale:
        Standard deviation of the random-normal initialisation.  Levels are
        initialised with geometrically decaying scale — coarse levels carry
        larger norms, matching the model's intended norm hierarchy.
    """

    def __init__(
        self,
        hierarchy: PartitionHierarchy,
        d: int,
        *,
        p: float = 1.0,
        init_scale: float = 1.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.hierarchy: PartitionHierarchy | None = hierarchy
        self.anc_rows = hierarchy.anc_rows
        self.d = int(d)
        self.p = float(p)
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self.locals: list[np.ndarray] = []
        scale = init_scale
        for level in range(hierarchy.num_levels):
            size = hierarchy.level_size(level)
            self.locals.append(rng.normal(scale=scale, size=(size, self.d)))
            scale *= 0.5

    @classmethod
    def flat(cls, matrix: np.ndarray, *, p: float = 1.0) -> "HierarchicalRNE":
        """One-level model whose only level is ``matrix`` (shared, not copied).

        The ancestor rows are the identity ``arange(n)[:, None]`` and there
        is no partition tree (``hierarchy`` is None), so training this model
        with ``level_lrs=[1.0]`` trains the flat table in place.
        """
        model = object.__new__(cls)
        model.hierarchy = None
        model.anc_rows = np.arange(matrix.shape[0], dtype=np.int64)[:, None]
        model.d = int(matrix.shape[1])
        model.p = float(p)
        model.locals = [matrix]
        return model

    @property
    def num_levels(self) -> int:
        return len(self.locals)

    @property
    def n(self) -> int:
        return int(self.anc_rows.shape[0])

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    @shapes(vertices="(k,):int", ret="(k,d):float")
    def global_vectors(self, vertices: np.ndarray) -> np.ndarray:
        """Global embeddings for an array of vertex ids (ancestor sums)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        rows = self.anc_rows[vertices]
        out = np.zeros((vertices.size, self.d), dtype=np.float64)
        for level, matrix in enumerate(self.locals):
            out += matrix[rows[:, level]]
        return out

    def global_matrix(self) -> np.ndarray:
        """Full ``(n, d)`` global embedding matrix."""
        return self.global_vectors(np.arange(self.n))

    def node_vector(self, node_id: int) -> np.ndarray:
        """Global embedding of an arbitrary hierarchy node.

        Sum of the node's own local embedding and its ancestors' — used by
        the tree-structured query index (Sec. VI).
        """
        hierarchy = self.hierarchy
        if hierarchy is None:
            raise ValueError("a one-level model has no hierarchy nodes")
        vec = np.zeros(self.d, dtype=np.float64)
        cursor: int | None = node_id
        while cursor is not None:
            node = hierarchy.nodes[cursor]
            vec += self.locals[node.level][node.row]
            cursor = node.parent
        return vec

    # ------------------------------------------------------------------
    # queries (delegate through the assembled vectors)
    # ------------------------------------------------------------------
    def query(self, s: int, t: int) -> float:
        vecs = self.global_vectors(np.array([s, t]))
        return float(lp_distance(vecs[0] - vecs[1], self.p))

    @shapes(pairs="(k,2):int", ret="(k,):float")
    def query_pairs(self, pairs: np.ndarray) -> np.ndarray:
        pairs = np.asarray(pairs, dtype=np.int64)
        vs = self.global_vectors(pairs[:, 0])
        vt = self.global_vectors(pairs[:, 1])
        return lp_distance(vs - vt, self.p)

    def to_model(self) -> RNEModel:
        """Freeze into a flat :class:`RNEModel` for O(d) lookup queries.

        This is line 12-13 of Algorithm 1: after training, the hierarchy is
        collapsed to one global matrix, so query cost is identical to the
        flat model's.
        """
        return RNEModel(self.global_matrix(), p=self.p)

    def clone(self) -> "HierarchicalRNE":
        """Copy with independent local matrices but a shared hierarchy.

        Used by ablations that branch several training arms from one
        partially trained state.
        """
        other = object.__new__(HierarchicalRNE)
        other.hierarchy = self.hierarchy
        other.anc_rows = self.anc_rows
        other.d = self.d
        other.p = self.p
        other.locals = [m.copy() for m in self.locals]
        return other

    def parameter_norm(self, p: float | None = None) -> float:
        """Sum of entrywise Lp norms of the local matrices.

        The paper argues this total is *smaller* than the flat model's
        ``||M||_p`` because coarse components are stored once per cell.
        """
        if p is None:
            p = self.p
        total = 0.0
        for matrix in self.locals:
            total += float(np.power(np.abs(matrix), p).sum() ** (1.0 / p))
        return total

    def index_bytes(self) -> int:
        """Memory of the *frozen* query artefact (the global matrix)."""
        return self.n * self.d * 8

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = "+".join(str(m.shape[0]) for m in self.locals)
        return f"HierarchicalRNE(levels={sizes}, d={self.d}, p={self.p})"
