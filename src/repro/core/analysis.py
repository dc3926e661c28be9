"""Embedding diagnostics: the measurable claims of Sec. IV.

The paper argues the hierarchical model works because of its *norm
structure*: coarse levels carry large-norm components shared by all their
descendants, so (1) per-level mean norms decay monotonically from root to
vertex level, and (2) the summed parameter norm of the hierarchical model
is smaller than the flat model's ``||M||_1`` for the same represented
distances.  This module measures both, plus layout statistics used by the
Fig. 7 comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hierarchical import HierarchicalRNE
from .model import lp_distance


@dataclass(frozen=True)
class NormProfile:
    """Per-level norm structure of a hierarchical embedding."""

    level_mean_norms: tuple[float, ...]
    total_parameter_norm: float
    flat_equivalent_norm: float

    @property
    def is_decaying(self) -> bool:
        """True when mean norms shrink from coarse to fine levels."""
        norms = self.level_mean_norms
        return all(a >= b for a, b in zip(norms[:-1], norms[1:]))

    @property
    def sharing_ratio(self) -> float:
        """Hierarchical parameter norm over flat-equivalent norm (< 1 means
        the tree shares coarse components, the paper's efficiency claim)."""
        if self.flat_equivalent_norm == 0:
            return 1.0
        return self.total_parameter_norm / self.flat_equivalent_norm


def norm_profile(hmodel: HierarchicalRNE) -> NormProfile:
    """Measure the norm hierarchy of a trained model.

    ``flat_equivalent_norm`` is the entrywise L1 norm of the collapsed
    global matrix — what a flat model storing the same embedding would
    hold; ``total_parameter_norm`` is what the hierarchy actually stores.
    """
    levels = hmodel.locals
    level_means = tuple(float(np.abs(m).sum(axis=1).mean()) for m in levels)
    total = float(sum(np.abs(m).sum() for m in levels))
    flat = float(np.abs(hmodel.global_matrix()).sum())
    return NormProfile(level_means, total, flat)


def level_contributions(hmodel: HierarchicalRNE, pairs: np.ndarray) -> np.ndarray:
    """Share of predicted distance contributed by each level.

    For each pair, the contribution of level ``l`` is the L1 distance of
    the two endpoints' level-``l`` local embeddings (0 when they share the
    ancestor — the shared component cancels).  Returned as mean fractions
    per level; coarse levels dominating long-distance pairs is the
    mechanism behind the hierarchy's fast convergence.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    anc = hmodel.anc_rows
    contribs = np.zeros((len(pairs), hmodel.num_levels), dtype=np.float64)
    for level, matrix in enumerate(hmodel.locals):
        rows_s = anc[pairs[:, 0], level]
        rows_t = anc[pairs[:, 1], level]
        contribs[:, level] = lp_distance(matrix[rows_s] - matrix[rows_t], 1.0)
    totals = contribs.sum(axis=1, keepdims=True)
    totals[totals == 0] = 1.0
    return (contribs / totals).mean(axis=0)


def collapse_fraction(
    matrix: np.ndarray,
    *,
    sample: int = 2000,
    threshold: float = 0.05,
    seed: int = 0,
) -> float:
    """Share of random vertex pairs with nearly coincident embeddings.

    The Fig. 7 pathology: flat training collapses vertices into clumps,
    visible as an excess of pairs below ``threshold`` x mean pair distance.
    """
    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    a = rng.integers(n, size=sample)
    b = rng.integers(n, size=sample)
    keep = a != b
    dists = np.abs(matrix[a[keep]] - matrix[b[keep]]).sum(axis=1)
    mean = dists.mean() if dists.size else 1.0
    return float((dists < threshold * mean).mean())


def layout_correlation(matrix: np.ndarray, coords: np.ndarray, *, sample: int = 4000, seed: int = 0) -> float:
    """Correlation between embedding distances and spatial distances.

    A well-trained road-network embedding preserves the global layout
    (Fig. 7c), which shows up as a high correlation; a collapsed embedding
    (Fig. 7b) decorrelates.
    """
    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    a = rng.integers(n, size=sample)
    b = rng.integers(n, size=sample)
    keep = a != b
    emb = np.abs(matrix[a[keep]] - matrix[b[keep]]).sum(axis=1)
    geo = np.linalg.norm(coords[a[keep]] - coords[b[keep]], axis=1)
    if emb.std() == 0 or geo.std() == 0:
        return 0.0
    return float(np.corrcoef(emb, geo)[0, 1])
