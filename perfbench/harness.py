"""Run one workload as one closed-loop client and compute its metrics.

The untraced path uses only ``build_rne``, ``RNEConfig``,
``BatchQueryEngine``, ``LiveUpdateManager``, ``Graph`` and ``grid_city``.
The traced path (``tracer`` given) adds spans around further public names
from :mod:`perfbench.layers` and reads the program's own snapshots.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import RNEConfig, build_rne
from repro.live import LiveUpdateManager
from repro.serving import BatchQueryEngine

from . import oracle
from .inputs import Inputs, Spec, make_inputs
from .tracing import Tracer

#: Set-up is short and noisy, so it is repeated and its median reported.
SETUP_REPEATS = 5
#: Untimed batches of each kind before a timed phase.
WARMUP_BATCHES = 3
#: Distance calls per throughput window; dist_qps is the median window.
QPS_WINDOW = 8
#: Every CHECK_EVERY-th served batch of each kind is verified.
CHECK_EVERY = 8
#: Serving windows of a workload without interleaved updates.
METRO_WINDOWS = 3
KINDS = ("dist", "knn", "range")


@dataclass
class Client:
    """One closed-loop client: a batch is sent only when the last returned."""

    engine: BatchQueryEngine
    inputs: Inputs
    spec: Spec
    prepared: Any = None
    latencies: Dict[str, List[float]] = field(default_factory=lambda: {k: [] for k in KINDS})
    items: Dict[str, List[int]] = field(default_factory=lambda: {k: [] for k in KINDS})
    after_update: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    _cursor: Dict[str, int] = field(default_factory=lambda: {k: 0 for k in KINDS})
    _pending: List[Tuple[str, np.ndarray, Any, np.ndarray]] = field(default_factory=list)
    _first_after_update: bool = False

    def __post_init__(self) -> None:
        self.prepared = self.engine.prepare(self.inputs.pois)

    def _batch(self, kind: str) -> np.ndarray:
        pool = {"dist": self.inputs.dist_batches, "knn": self.inputs.knn_batches,
                "range": self.inputs.range_batches}[kind]
        i = self._cursor[kind]
        self._cursor[kind] = i + 1
        return pool[i % len(pool)]

    def _call(self, kind: str, batch: np.ndarray) -> Any:
        if kind == "dist":
            return self.engine.distances(batch)
        if kind == "knn":
            return self.engine.knn(batch, self.prepared, self.spec.k)
        return self.engine.range_query(batch, self.prepared, self.inputs.tau)

    def serve(self, kind: str, *, timed: bool = True) -> None:
        serial = self._cursor[kind]
        batch = self._batch(kind)
        matrix = self.engine.model.matrix
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self._call(kind, batch)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        elapsed = time.perf_counter() - start
        if timed:
            self.latencies[kind].append(elapsed)
            self.items[kind].append(len(batch))
            if kind == "knn" and self._first_after_update:
                self.after_update.append(elapsed)
                self._first_after_update = False
        if serial % CHECK_EVERY == 0:
            self._pending.append((kind, batch, out, matrix))

    def updated(self) -> None:
        self._first_after_update = True

    def verify(self) -> int:
        """Check the sampled batches against brute force; returns wrong batches."""
        wrong_batches = 0
        p = float(self.engine.model.p)
        for kind, batch, out, matrix in self._pending:
            if kind == "dist":
                wrong = oracle.wrong_distances(matrix, p, batch, out)
            elif kind == "knn":
                wrong = oracle.wrong_knn(matrix, p, batch, self.inputs.pois, out, self.spec.k)
            else:
                wrong = oracle.wrong_range(matrix, p, batch, self.inputs.pois, out, self.inputs.tau)
            self.checked += 1
            if wrong:
                wrong_batches += 1
                print(f"perfbench: wrong {kind} answer for {wrong} item(s)", file=sys.stderr)
        self._pending.clear()
        self.failed += wrong_batches
        return wrong_batches


@dataclass
class Run:
    """What one workload run produced, before it is reduced to metrics."""

    inputs: Inputs
    setup_times: List[float]
    build_times: List[float]
    #: Builds whose embedding differed from the first build's.
    build_mismatches: int
    mean_rel_err: float
    index_bytes: int
    update_times: List[float]
    client: Client
    rne: Any
    build_span: int = -1

    @property
    def build_s(self) -> float:
        return float(statistics.median(self.build_times))

    @property
    def attempted(self) -> int:
        return self.client.attempted + len(self.build_times)

    @property
    def failed(self) -> int:
        return self.client.failed + self.build_mismatches


def _phase(tracer: Optional[Tracer], name: str) -> None:
    """Start a phase: collect garbage, and keep the collector out of timed
    serving windows (a gen-2 pass over the client's growing sample lists
    would otherwise land in the latency tail)."""
    gc.collect()
    if name == "serve":
        gc.disable()
    else:
        gc.enable()
    if tracer is not None:
        tracer.phase = name


def _warmup(client: Client, tracer: Optional[Tracer]) -> None:
    _phase(tracer, "warmup")
    for kind in KINDS:
        for _ in range(WARMUP_BATCHES):
            client.serve(kind, timed=False)


def _mean_rel_err(engine: BatchQueryEngine, inputs: Inputs) -> float:
    pred = engine.distances(inputs.heldout_pairs)
    return float(np.mean(np.abs(pred - inputs.heldout_truth) / inputs.heldout_truth))


def _update(manager: LiveUpdateManager, client: Client, inputs: Inputs, seed: int,
            round_no: int, times: List[float], served: bool = True) -> None:
    upd = inputs.updates[round_no]
    client.attempted += 1
    start = time.perf_counter()
    try:
        manager.update(upd.graph, upd.changed, seed=seed * 1000 + round_no)
    except Exception:  # a failed update is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        client.failed += 1
        return
    times.append(time.perf_counter() - start)
    if served:
        client.updated()


def run(spec: Spec, seed: int, seconds: float, tracer: Optional[Tracer] = None) -> Run:
    """Set up, build, serve and update; every timed region is closed loop."""
    try:
        return _run(spec, seed, seconds, tracer)
    finally:
        gc.enable()


def _build(inputs: Inputs, tracer: Optional[Tracer]) -> Tuple[Any, float, int]:
    """One timed ``build_rne``; returns the RNE, its seconds and its span."""
    span_index = -1
    start = time.perf_counter()
    if tracer is not None:
        with tracer.span("build") as span:
            rne = build_rne(inputs.graph, RNEConfig())
        span_index = tracer.spans.index(span)
    else:
        rne = build_rne(inputs.graph, RNEConfig())
    return rne, time.perf_counter() - start, span_index


def build_points(builds: int, windows: int) -> List[int]:
    """Serving windows each build runs before (``windows``: after the last).

    The builds are spread evenly over the run, first and last at its two
    ends, so the median build samples the machine across the whole run.
    """
    if builds <= 1:
        return [0] * builds
    return [round(b * windows / (builds - 1)) for b in range(builds)]


def _run(spec: Spec, seed: int, seconds: float, tracer: Optional[Tracer]) -> Run:
    _phase(tracer, "setup")
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = make_inputs(spec, seed)
        setup_times.append(time.perf_counter() - start)

    # Both workloads serve the three query kinds round-robin, so each kind
    # is timed across the same stretch of the run.  city-live splits the
    # serving time into one window per update; metro-serve serves three
    # windows and applies its updates to the served model as a tail, after
    # the error is measured, and to each unserved rebuild.
    windows = spec.updates if spec.interleaved else METRO_WINDOWS
    points = build_points(spec.builds, windows)
    update_seed = spec.map_seed if spec.map_updates else seed

    # The same graph and config are built ``spec.builds`` times, spread over
    # the run; build_s is the median.  The first build is the one served,
    # and only its spans count as the "build" phase of a traced run.  Every
    # later build must give its embedding bit for bit.
    build_times: List[float] = []
    update_times: List[float] = []
    build_mismatches = 0
    build_span = -1

    def rebuild() -> None:
        nonlocal build_mismatches
        _phase(tracer, "rebuild")
        again, elapsed, _ = _build(inputs, tracer)
        build_times.append(elapsed)
        if not np.array_equal(again.model.matrix, first):
            build_mismatches += 1
            print(f"perfbench: build {len(build_times) - 1} differs from build 0", file=sys.stderr)
        if not spec.interleaved:
            # The unserved copy takes the same first update as the served
            # model's tail, so update_s is sampled across the run too.
            _phase(tracer, "update")
            _update(LiveUpdateManager(again), client, inputs, update_seed, 0, update_times, served=False)

    _phase(tracer, "build")
    rne, elapsed, build_span = _build(inputs, tracer)
    build_times.append(elapsed)
    first = rne.model.matrix.copy()
    index_bytes = int(rne.index_bytes())

    _phase(tracer, "prepare")
    engine = BatchQueryEngine.from_rne(rne)
    manager = LiveUpdateManager(rne, engines=(engine,))
    client = Client(engine, inputs, spec)

    _warmup(client, tracer)
    for round_no in range(windows):
        for _ in range(points[1:].count(round_no)):
            rebuild()
        _phase(tracer, "serve")
        end = time.perf_counter() + seconds / windows
        while time.perf_counter() < end:
            for kind in KINDS:
                client.serve(kind)
        if spec.interleaved:
            _phase(tracer, "update")
            _update(manager, client, inputs, update_seed, round_no, update_times)
    for _ in range(points[1:].count(windows)):
        rebuild()
    _phase(tracer, "eval")
    mean_rel_err = _mean_rel_err(engine, inputs)
    if not spec.interleaved:
        for round_no in range(spec.updates):
            _phase(tracer, "update")
            _update(manager, client, inputs, update_seed, round_no, update_times)
    _phase(tracer, "verify")
    client.verify()
    return Run(inputs, setup_times, build_times, build_mismatches, mean_rel_err, index_bytes,
               update_times, client, rne, build_span)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def _window_qps(latencies: List[float], items: List[int]) -> float:
    rates = [
        sum(items[i : i + QPS_WINDOW]) / sum(latencies[i : i + QPS_WINDOW])
        for i in range(0, len(latencies) - QPS_WINDOW + 1, QPS_WINDOW)
    ]
    return float(statistics.median(rates)) if rates else float("nan")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(result: Run) -> Dict[str, Tuple[float, str]]:
    c = result.client
    return {
        "setup_s": (statistics.median(result.setup_times), "s"),
        "build_s": (result.build_s, "s"),
        "mean_rel_err": (result.mean_rel_err, "ratio"),
        "index_mb": (result.index_bytes / 1e6, "MB"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "dist_qps": (_window_qps(c.latencies["dist"], c.items["dist"]), "pairs/s"),
        "knn_p50_ms": (percentile(c.latencies["knn"], 50) * 1e3, "ms"),
        "knn_p90_ms": (percentile(c.latencies["knn"], 90) * 1e3, "ms"),
        "range_p50_ms": (percentile(c.latencies["range"], 50) * 1e3, "ms"),
        "range_p90_ms": (percentile(c.latencies["range"], 90) * 1e3, "ms"),
        "update_s": (statistics.median(result.update_times) if result.update_times else float("nan"), "s"),
        "ok_frac": (1.0 - result.failed / max(1, result.attempted), "ratio"),
    }


def is_correct(result: Run) -> bool:
    return result.failed == 0 and math.isfinite(result.mean_rel_err)
