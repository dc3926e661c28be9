"""Prefetching sample pipeline: label the next phase on a background thread.

``build_rne`` consumes labelled training sets phase by phase.
:class:`PrefetchPipeline` runs those jobs one step ahead on a background
thread, concurrently with phase-k SGD epochs.  This does not hide the
labelling cost: ``scipy.sparse.csgraph.dijkstra`` holds the GIL while it
runs, so the background thread and the training thread take turns on the
interpreter instead of overlapping (on a 2-vCPU host a Dijkstra thread
slowed a main-thread scatter loop 2x or more, and default 60x60 builds
took as long with prefetch on as off, within noise).

Determinism is preserved by construction, not by luck: each job owns its
own seeded RNG stream (derived from the run seed and the stage name, see
``repro.core.pipeline``), so its output is bit-identical whether it runs
eagerly on the background thread, lazily on the caller thread
(``enabled=False``), or in any interleaving with training.

The pipeline is strictly ordered — jobs are registered in consumption
order, executed in that order with a bounded lookahead, and ``get`` must be
called in the same order.  Job exceptions are captured and re-raised from
``get`` so failures surface at the consumption point, like the synchronous
code they replace.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["PrefetchPipeline"]


class PrefetchPipeline:
    """Ordered background execution of sample-generation jobs.

    Parameters
    ----------
    enabled:
        When false, jobs run synchronously inside :meth:`get` — the
        degradation path for ``--no-prefetch`` and for callers that cannot
        tolerate a helper thread.  Results are identical either way.
    lookahead:
        How many jobs may complete ahead of consumption.  The default of 1
        labels phase k+1 while phase k trains (concurrently, not in
        parallel: see the module docstring) without holding more than one
        phase's samples in memory.
    """

    def __init__(self, *, enabled: bool = True, lookahead: int = 1) -> None:
        if lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {lookahead}")
        self.enabled = bool(enabled)
        self._jobs: List[Tuple[str, Callable[[], Any]]] = []
        self._names: Dict[str, int] = {}
        self._results: Dict[str, Any] = {}
        self._errors: Dict[str, BaseException] = {}
        self._done: Dict[str, threading.Event] = {}
        self._slots = threading.Semaphore(lookahead)
        self._thread: Optional[threading.Thread] = None
        self._started = False
        self._aborted = False
        self._next_get = 0

    # -- registration ----------------------------------------------------
    def add(self, name: str, job: Callable[[], Any]) -> None:
        """Register ``job`` under ``name``; order of calls is consumption
        order.  Must happen before :meth:`start`."""
        if self._started:
            raise RuntimeError("cannot add jobs after start()")
        if name in self._names:
            raise ValueError(f"duplicate prefetch job name {name!r}")
        self._names[name] = len(self._jobs)
        self._jobs.append((name, job))
        self._done[name] = threading.Event()

    def start(self) -> None:
        """Freeze the job list and begin background execution."""
        if self._started:
            raise RuntimeError("pipeline already started")
        self._started = True
        if not self.enabled or not self._jobs:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-sample-prefetch", daemon=True
        )
        self._thread.start()

    # -- background body -------------------------------------------------
    def _run(self) -> None:
        for index, (name, job) in enumerate(self._jobs):
            self._slots.acquire()
            if self._aborted:
                self._fail_from(index, RuntimeError("prefetch pipeline closed"))
                return
            try:
                self._results[name] = job()
            except BaseException as exc:  # captured, re-raised at get()
                self._fail_from(index, exc)
                return
            self._done[name].set()

    def _fail_from(self, index: int, exc: BaseException) -> None:
        """Mark job ``index`` and everything after it as failed so no
        ``get`` can block forever on a dead producer."""
        for name, _ in self._jobs[index:]:
            self._errors.setdefault(name, exc)
            self._done[name].set()

    # -- consumption -----------------------------------------------------
    def get(self, name: str) -> Any:
        """Return ``name``'s result, blocking until it is ready.

        Calls must follow registration order; a job that raised has its
        exception re-raised here.
        """
        if not self._started:
            raise RuntimeError("start() the pipeline before get()")
        if name not in self._names:
            raise KeyError(f"unknown prefetch job {name!r}")
        expected = self._jobs[self._next_get][0] if self._next_get < len(self._jobs) else None
        if name != expected:
            raise RuntimeError(
                f"prefetch jobs must be consumed in order: expected "
                f"{expected!r}, got {name!r}"
            )
        self._next_get += 1
        if self._thread is None:
            # Synchronous mode: run the job on the caller thread now.
            return self._jobs[self._names[name]][1]()
        self._done[name].wait()
        self._slots.release()
        if name in self._errors:
            raise self._errors[name]
        return self._results.pop(name)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Stop executing further jobs and release the worker thread.

        Safe to call at any point (including after an exception mid-build);
        jobs already running finish, queued ones are abandoned.
        """
        self._aborted = True
        self._slots.release()  # unblock a producer parked on the semaphore
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def __enter__(self) -> "PrefetchPipeline":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
