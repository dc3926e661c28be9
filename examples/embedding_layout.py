"""Embedding layout: reproduce Fig. 7's flat-vs-hierarchical comparison.

Run:  python examples/embedding_layout.py

The paper's Fig. 7 shows 2-d embeddings of Manhattan: trained flat, many
vertices collapse into corner clusters; trained hierarchically, the
embedding preserves the city's global layout.  This script builds both at
d=2 on a grid city with ``build_rne`` (``hierarchical=False`` is the flat
arm), renders each embedding as an ASCII density map, and prints the
collapse statistic and the layout correlation.
"""

from __future__ import annotations

import numpy as np

from repro import RNEConfig, build_rne, grid_city
from repro.core.analysis import collapse_fraction, layout_correlation


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
    print("Training a FLAT and a HIERARCHICAL 2-d embedding (Algorithm 1)...")
    matrices = {
        name: build_rne(graph, RNEConfig(d=2, hierarchical=hierarchical)).model.matrix
        for name, hierarchical in (("flat", False), ("hierarchical", True))
    }

    print("\nOriginal city (vertex coordinates):")
    print(ascii_density(graph.coords))
    print("\nFlat-trained embedding (Fig. 7b — look for collapsed clumps):")
    print(ascii_density(matrices["flat"]))
    print("\nHierarchically trained embedding (Fig. 7c — layout preserved):")
    print(ascii_density(matrices["hierarchical"]))

    print("\nCollapse statistic (share of near-coincident embedding pairs)")
    print("and layout correlation (embedding vs spatial distance):")
    for name, matrix in matrices.items():
        print(
            f"  {name:<12} : {collapse_fraction(matrix) * 100:.2f}%, "
            f"{layout_correlation(matrix, graph.coords):.2f}"
        )


if __name__ == "__main__":
    main()
