"""Micro-batching front door: text queries in, batched engine calls out.

``rne serve`` reads one query per line from a stream and ``rne query
--batch`` takes them from the command line; both funnel through
:class:`MicroBatcher`, which accumulates up to ``batch_size`` queries,
groups them by (operation, parameter) so each group becomes *one* engine
call, and emits answers back in input order.  This is the standard
trade-off of learned-index serving: a tiny admission delay buys
vector-width execution on the hot path.

Query grammar (one per line, ``#`` comments and blank lines skipped)::

    dist <s> <t>          approximate distance between two vertices
    knn <s> <k>           k nearest targets to s       (needs a target set)
    range <s> <tau>       targets within tau of s      (needs a target set)

Malformed lines yield ``error: <reason>`` answers (counted in stats)
without poisoning the rest of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..core.index import PreparedTargets
from .engine import BatchQueryEngine

__all__ = ["Query", "MicroBatcher", "parse_query", "serve_lines"]


@dataclass(frozen=True)
class Query:
    """One parsed front-door query."""

    op: str  # "dist" | "knn" | "range"
    source: int
    #: second vertex for "dist", k for "knn", tau for "range"
    param: float


def parse_query(line: str) -> Optional[Query]:
    """Parse one query line; returns ``None`` for blanks/comments.

    Raises ``ValueError`` with a human-readable reason for malformed lines.
    """
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    parts = text.split()
    op = parts[0].lower()
    if op not in ("dist", "knn", "range"):
        raise ValueError(f"unknown operation {parts[0]!r}")
    if len(parts) != 3:
        raise ValueError(f"{op} takes 2 arguments, got {len(parts) - 1}")
    try:
        source = int(parts[1])
    except ValueError:
        raise ValueError(f"bad vertex id {parts[1]!r}")
    try:
        param = int(parts[2]) if op in ("dist", "knn") else float(parts[2])
    except ValueError:
        raise ValueError(f"bad {op} parameter {parts[2]!r}")
    if op == "knn" and param < 1:
        raise ValueError(f"k must be >= 1, got {parts[2]}")
    if op == "range" and not param >= 0:  # also rejects NaN
        raise ValueError(f"tau must be >= 0, got {parts[2]}")
    return Query(op=op, source=source, param=float(param))


def _format_ids(ids: np.ndarray) -> str:
    return " ".join(str(int(v)) for v in ids)


class MicroBatcher:
    """Accumulates queries and flushes them as grouped engine batches.

    Parameters
    ----------
    engine:
        The serving engine (or anything engine-shaped, e.g. a
        :class:`~repro.reliability.fallback.ResilientOracle`).
    targets:
        Prepared target set for kNN/range queries; without one those
        queries answer with an error line.
    batch_size:
        Flush threshold — the micro-batching window.
    """

    def __init__(
        self,
        engine: BatchQueryEngine,
        *,
        targets: Optional[Union[np.ndarray, PreparedTargets]] = None,
        batch_size: int = 256,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.engine = engine
        self.prepared = engine.prepare(targets) if targets is not None else None
        self.batch_size = batch_size
        self.errors = 0
        self._pending: List[Tuple[int, Query]] = []
        self._answers: Dict[int, str] = {}
        self._next_id = 0

    def submit(self, line: str) -> Optional[int]:
        """Queue one query line; returns its ticket or ``None`` (blank).

        Malformed lines are answered immediately with an error string.
        """
        ticket = self._next_id
        try:
            query = parse_query(line)
        except ValueError as exc:
            self.errors += 1
            self._answers[ticket] = f"error: {exc}"
            self._next_id += 1
            return ticket
        if query is None:
            return None
        self._next_id += 1
        self._pending.append((ticket, query))
        if len(self._pending) >= self.batch_size:
            self.flush()
        return ticket

    def flush(self) -> None:
        """Run every pending query group as one engine call each."""
        pending, self._pending = self._pending, []
        groups: Dict[Tuple[str, float], List[Tuple[int, Query]]] = {}
        for ticket, query in pending:
            groups.setdefault((query.op, query.param), []).append((ticket, query))
        for (op, param), entries in sorted(groups.items()):
            tickets = [t for t, _ in entries]
            sources = np.array([q.source for _, q in entries], dtype=np.int64)
            try:
                self._run_group(op, param, tickets, sources)
            except (ValueError, IndexError) as exc:
                self.errors += len(tickets)
                for ticket in tickets:
                    self._answers[ticket] = f"error: {exc}"

    def _run_group(
        self, op: str, param: float, tickets: List[int], sources: np.ndarray
    ) -> None:
        # Engines without a model (exact-only, or a degraded oracle's)
        # serve the same grammar through the exact_* operations.
        exact = self.engine.model is None
        if op == "dist":
            pairs = np.stack(
                [sources, np.full_like(sources, int(param))], axis=1
            )
            values = (
                self.engine.exact_distances(pairs)
                if exact
                else self.engine.distances(pairs)
            )
            for ticket, value in zip(tickets, values):
                self._answers[ticket] = f"{float(value):.6f}"
            return
        if self.prepared is None:
            self.errors += len(tickets)
            for ticket in tickets:
                self._answers[ticket] = "error: no target set configured"
            return
        if op == "knn":
            id_lists = (
                self.engine.exact_knn(sources, self.prepared, int(param))
                if exact
                else self.engine.knn(sources, self.prepared, int(param))
            )
        else:
            id_lists = (
                self.engine.exact_range(sources, self.prepared, param)
                if exact
                else self.engine.range_query(sources, self.prepared, param)
            )
        for ticket, ids in zip(tickets, id_lists):
            self._answers[ticket] = _format_ids(ids)

    def take(self, ticket: int) -> str:
        """The answer for ``ticket`` (flushes if still pending)."""
        if ticket not in self._answers:
            self.flush()
        return self._answers.pop(ticket)


def serve_lines(
    lines: Iterable[str],
    engine: BatchQueryEngine,
    *,
    targets: Optional[Union[np.ndarray, PreparedTargets]] = None,
    batch_size: int = 256,
) -> Iterator[str]:
    """Serve an iterable of query lines, yielding answers in input order.

    Answers are emitted per micro-batch: after every ``batch_size``
    parsed queries (and at end of input) the pending window flushes and
    its answers stream out in submission order.
    """
    batcher = MicroBatcher(engine, targets=targets, batch_size=batch_size)
    window: List[int] = []
    for line in lines:
        ticket = batcher.submit(line)
        if ticket is None:
            continue
        window.append(ticket)
        if len(window) >= batch_size:
            for t in window:
                yield batcher.take(t)
            window = []
    for t in window:
        yield batcher.take(t)
