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

All levels live in one parameter block, so one optimiser state and one
in-place update per batch cover the whole model.  The flat table itself is
the one-level case (``hierarchy=None``): every vertex is its own only
ancestor, so one training loop serves both.  A model this class draws
holds its block in :attr:`HierarchicalRNE.PARAM_DTYPE` (float32, the
paper's TensorFlow default); assembled global vectors are float64.
"""

from __future__ import annotations

import numpy as np

from ..devtools.contracts import shapes
from ..graph import PartitionHierarchy
from .model import RNEModel, lp_distance


class HierarchicalRNE:
    """Local embeddings of every hierarchy level, stored as one block.

    The parameters are one ``(sum of level sizes, d)`` array, ``block``:
    level ``l`` owns rows ``offsets[l]:offsets[l + 1]``, and
    ``block_rows = anc_rows + offsets[:-1]`` are each vertex's ancestor
    rows in that space, so ``v_global = sum_l block[block_rows[v, l]]``.
    Training updates ``block`` in place, in the block's dtype; a publish
    rebinds it whole.

    Parameters
    ----------
    hierarchy:
        The aligned partition tree, or ``None`` for the flat table: one
        level of ``n`` rows, every vertex its own only ancestor.
    d:
        Embedding dimension.
    n:
        Vertex count; required without a hierarchy, and must match it
        when both are given.
    p:
        Metric order for queries (1 recommended).
    init_scale:
        Standard deviation of the random-normal initialisation.  Levels are
        initialised with geometrically decaying scale — coarse levels carry
        larger norms, matching the model's intended norm hierarchy.
    """

    #: dtype of every block this constructor draws.  Training follows the
    #: block's dtype, so this is the one place that fixes it.
    PARAM_DTYPE = np.dtype(np.float32)

    hierarchy: PartitionHierarchy | None
    anc_rows: np.ndarray
    offsets: np.ndarray
    block_rows: np.ndarray
    block: np.ndarray
    d: int
    p: float

    def __init__(
        self,
        hierarchy: PartitionHierarchy | None,
        d: int,
        *,
        n: int | None = None,
        p: float = 1.0,
        init_scale: float = 1.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if hierarchy is None:
            if n is None:
                raise ValueError("a model without a hierarchy needs n")
            sizes = [int(n)]
        else:
            if n is not None and n != hierarchy.anc_rows.shape[0]:
                raise ValueError(
                    f"n={n} but the hierarchy has {hierarchy.anc_rows.shape[0]} vertices"
                )
            sizes = [hierarchy.level_size(level) for level in range(hierarchy.num_levels)]
        self._bind(hierarchy, np.empty((sum(sizes), int(d)), dtype=self.PARAM_DTYPE), p)
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        scale = init_scale
        # Each level's float64 draw, in level order, rounded into its slice:
        # the RNG stream advances exactly as for a float64 block.
        for level, size in enumerate(sizes):
            rows = slice(self.offsets[level], self.offsets[level + 1])
            self.block[rows] = rng.normal(scale=scale, size=(size, self.d))
            scale *= 0.5

    def _bind(
        self, hierarchy: PartitionHierarchy | None, block: np.ndarray, p: float
    ) -> None:
        """Lay the model out over ``block``; no hierarchy means one level."""
        if hierarchy is None:
            self.anc_rows = np.arange(block.shape[0], dtype=np.int64)[:, None]
            sizes = [block.shape[0]]
        else:
            self.anc_rows = hierarchy.anc_rows
            sizes = [hierarchy.level_size(level) for level in range(hierarchy.num_levels)]
        self.offsets = np.cumsum([0] + sizes, dtype=np.int64)
        if block.ndim != 2 or block.shape[0] != self.offsets[-1]:
            raise ValueError(
                f"block has shape {block.shape}, levels need {self.offsets[-1]} rows"
            )
        self.hierarchy = hierarchy
        self.block_rows = self.anc_rows + self.offsets[:-1]
        self.block = block
        self.d = int(block.shape[1])
        self.p = float(p)

    @classmethod
    def _from_block(
        cls, hierarchy: PartitionHierarchy | None, block: np.ndarray, p: float
    ) -> "HierarchicalRNE":
        """Model over an existing ``block`` (shared, not copied)."""
        model = object.__new__(cls)
        model._bind(hierarchy, block, p)
        return model

    @classmethod
    def flat(cls, matrix: np.ndarray, *, p: float = 1.0) -> "HierarchicalRNE":
        """One-level model whose block is ``matrix`` itself (not a copy).

        The ancestor rows are the identity ``arange(n)[:, None]`` and there
        is no partition tree (``hierarchy`` is None), so training this model
        with ``level_lrs=[1.0]`` trains the flat table in place, in
        ``matrix``'s own dtype.
        """
        return cls._from_block(None, matrix, p)

    @property
    def locals(self) -> tuple[np.ndarray, ...]:
        """Read-only per-level views of the current block."""
        block = self.block
        views = tuple(
            block[self.offsets[level] : self.offsets[level + 1]]
            for level in range(self.num_levels)
        )
        for view in views:
            view.flags.writeable = False
        return views

    @property
    def num_levels(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def n(self) -> int:
        return int(self.anc_rows.shape[0])

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    @shapes(vertices="(k,):int", ret="(k,d):float")
    def global_vectors(self, vertices: np.ndarray) -> np.ndarray:
        """Global embeddings for an array of vertex ids (ancestor sums).

        The sums accumulate in float64 whatever the block's dtype.
        """
        block = self.block
        rows = self.block_rows[np.asarray(vertices, dtype=np.int64)]
        out = np.zeros((rows.shape[0], self.d), dtype=np.float64)
        for level in range(self.num_levels):
            out += block[rows[:, level]]
        return out

    def global_matrix(self) -> np.ndarray:
        """Full ``(n, d)`` global embedding matrix."""
        return self.global_vectors(np.arange(self.n))

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
        """Copy with an independent block but a shared hierarchy.

        Used by ablations that branch several training arms from one
        partially trained state, and by updates that train on a copy.
        """
        return HierarchicalRNE._from_block(self.hierarchy, self.block.copy(), self.p)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = "+".join(str(size) for size in np.diff(self.offsets))
        return f"HierarchicalRNE(levels={sizes}, d={self.d}, p={self.p})"
