"""Embedding layout: reproduce Fig. 7's flat-vs-hierarchical comparison.

Run:  python examples/embedding_layout.py

The paper's Fig. 7 shows 2-d embeddings of Manhattan: trained flat, many
vertices collapse into corner clusters; trained hierarchically, the
embedding preserves the city's global layout.  This script trains both at
d=2 on a grid city, renders each embedding as an ASCII density map, and
prints the collapse statistic.
"""

from __future__ import annotations

import numpy as np

from repro import grid_city
from repro.bench.experiments import _collapse_fraction
from repro.core import (
    DistanceLabeler,
    HierarchicalRNE,
    RNEModel,
    TrainConfig,
    landmark_samples,
    level_schedule,
    random_pair_samples,
    train_flat,
    train_hierarchical,
    subgraph_level_samples,
    vertex_only_schedule,
)
from repro.core.training import AdamState
from repro.algorithms import select_landmarks
from repro.graph import PartitionHierarchy


def ascii_density(matrix: np.ndarray, *, rows: int = 14, cols: int = 44) -> str:
    """Render a 2-d point set as an ASCII density map."""
    xs, ys = matrix[:, 0], matrix[:, 1]
    span_x = float(xs.max() - xs.min())
    span_y = float(ys.max() - ys.min())
    if span_x == 0 or span_y == 0:
        return "(degenerate layout)"
    gx = np.clip(((xs - xs.min()) / span_x * (cols - 1)).astype(int), 0, cols - 1)
    gy = np.clip(((ys - ys.min()) / span_y * (rows - 1)).astype(int), 0, rows - 1)
    counts = np.zeros((rows, cols), dtype=int)
    np.add.at(counts, (gy, gx), 1)
    shades = " .:+*#@"
    top = counts.max()
    lines = []
    for r in range(rows - 1, -1, -1):
        line = "".join(
            shades[min(int(c / max(top, 1) * (len(shades) - 1) * 2), len(shades) - 1)]
            for c in counts[r]
        )
        lines.append("|" + line + "|")
    return "\n".join(lines)


def main() -> None:
    graph = grid_city(20, 20, seed=11)
    labeler = DistanceLabeler(graph)
    rng = np.random.default_rng(0)
    probe = random_pair_samples(graph, 400, labeler, rng)[1]
    mean_phi = float(np.mean(probe))
    d = 2
    scale = mean_phi * np.sqrt(np.pi) / (2 * d)

    print("Training a FLAT 2-d embedding on random pairs...")
    flat = RNEModel.random(graph.n, d, scale=scale, seed=1)
    for _ in range(6):
        pairs, phi = random_pair_samples(graph, 8000, labeler, rng)
        train_flat(flat, pairs, phi, TrainConfig(epochs=3, lr=0.05), rng)

    print("Training a HIERARCHICAL 2-d embedding (Algorithm 1)...")
    hierarchy = PartitionHierarchy(graph, fanout=4, leaf_size=32, seed=2)
    hier = HierarchicalRNE(hierarchy, d, init_scale=scale, seed=2)
    adam = AdamState.for_model(hier)
    for focus in range(hierarchy.num_subgraph_levels):
        pairs, phi = subgraph_level_samples(hierarchy, focus, 6000, labeler, rng)
        train_hierarchical(
            hier, pairs, phi, level_schedule(focus, hier.num_levels),
            TrainConfig(epochs=3, lr=0.05), rng, adam=adam,
        )
    landmarks = select_landmarks(graph, 40, seed=3)
    for _ in range(5):
        pairs, phi = landmark_samples(graph, landmarks, 8000, labeler, rng)
        train_hierarchical(
            hier, pairs, phi, vertex_only_schedule(hier.num_levels),
            TrainConfig(epochs=2, lr=0.05), rng, adam=adam,
        )

    print("\nOriginal city (vertex coordinates):")
    print(ascii_density(graph.coords))
    print("\nFlat-trained embedding (Fig. 7b — look for collapsed clumps):")
    print(ascii_density(flat.matrix))
    print("\nHierarchically trained embedding (Fig. 7c — layout preserved):")
    print(ascii_density(hier.global_matrix()))

    print("\nCollapse statistic (share of near-coincident embedding pairs):")
    print(f"  flat         : {_collapse_fraction(flat.matrix) * 100:.2f}%")
    print(f"  hierarchical : {_collapse_fraction(hier.global_matrix()) * 100:.2f}%")


if __name__ == "__main__":
    main()
