"""Shared fixtures for the serving suite: one small embedding stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EmbeddingTreeIndex, RNEModel
from repro.graph import PartitionHierarchy
from repro.serving import BatchQueryEngine


@pytest.fixture(scope="class")
def stack(small_grid, request):
    """(model, index) over the 8x8 grid — session graph, class embedding.

    In the test class's ``dtype``, float64 by default; a class that sets
    ``dtype = np.float32`` serves what a built model serves.
    """
    hierarchy = PartitionHierarchy(small_grid, fanout=4, leaf_size=8, seed=0)
    rng = np.random.default_rng(1)
    matrix = rng.normal(size=(small_grid.n, 6))
    matrix = matrix.astype(getattr(request.cls, "dtype", np.float64))
    model = RNEModel(matrix, p=1.0)
    index = EmbeddingTreeIndex(hierarchy, matrix, p=1.0)
    return model, index


@pytest.fixture()
def engine(stack, small_grid):
    """A fresh engine per test: caches and stats are mutable state."""
    model, index = stack
    return BatchQueryEngine(model=model, index=index, graph=small_grid)
