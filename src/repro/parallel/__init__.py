"""Parallel ground-truth labelling and sample prefetching.

The training-data pipeline is the cost centre of RNE reproduction runs: one
Dijkstra SSSP per distinct sample source.  This package parallelises it
without giving up determinism:

* :class:`SSSPWorkerPool` — multiprocessing pool sharing the graph's CSR
  arrays with workers (fork-inherited / one-time transfer, never per-task
  pickling) with order-stable, bit-identical gathers.
* :class:`ParallelDistanceLabeler` / :func:`make_labeler` — drop-in labeler
  routing SSSP through the pool, falling back to the serial kernel when
  ``workers <= 1`` or multiprocessing is unavailable.
* :class:`PrefetchPipeline` — ordered background execution of per-phase
  sample jobs, one phase ahead of training (the labelling kernel holds
  the GIL, so this takes turns with SGD rather than hiding labelling).
* :func:`resolve_workers` — one place that maps ``--workers`` /
  ``REPRO_WORKERS`` / defaults to an effective worker count.
"""

from .labeler import ParallelDistanceLabeler, make_labeler
from .pool import PoolStats, SSSPWorkerPool, resolve_workers
from .prefetch import PrefetchPipeline

__all__ = [
    "ParallelDistanceLabeler",
    "PoolStats",
    "PrefetchPipeline",
    "SSSPWorkerPool",
    "make_labeler",
    "resolve_workers",
]
