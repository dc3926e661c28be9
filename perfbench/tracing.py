"""Outside-in spans: wrap the program's public names inside this process.

No program file changes.  :class:`Tracer` replaces a function binding (or
a class attribute) with a wrapper that records a :class:`Span` around every
call, then puts the original back on :meth:`Tracer.uninstall`.  A name
that does not resolve — deleted or renamed by a later change — is recorded
in ``Tracer.absent`` and its layer reads as zero; it never crashes the run.

Spans nest per thread: a span's parent is the innermost open span *on the
same thread*, so the prefetch thread's labelling never counts as a child
of the main thread's SGD.  Self time is a span's duration minus the union
of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

Info = Callable[[inspect.BoundArguments, Any], Dict[str, float]]


@dataclass
class Span:
    name: str
    thread: int
    start: float
    end: float
    parent: int
    phase: str
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Workload phase stamped on every span ("setup", "build", ...).
        self.phase = "setup"
        self.absent: List[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, threading.get_ident(), time.perf_counter(), float("nan"),
                    stack[-1] if stack else -1, self.phase)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record a span around a ``with`` block on the calling thread."""
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    # -- installation ----------------------------------------------------
    def _wrapper(self, original: Callable[..., Any], name: str, info: Optional[Info]) -> Callable[..., Any]:
        try:
            signature: Optional[inspect.Signature] = inspect.signature(original)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self.close(index)
                if info is not None and signature is not None:
                    try:
                        bound = signature.bind(*args, **kwargs)
                        self.spans[index].info = info(bound, result)
                    except (TypeError, AttributeError, KeyError, IndexError, ValueError):
                        pass

        return traced

    def wrap(self, target: str, name: str, *, info: Optional[Info] = None,
             scope: Optional[Sequence[str]] = None) -> bool:
        """Trace calls to ``target`` (``"module:attr"`` or ``"module:Class.attr"``).

        A function is re-bound in every loaded ``repro`` module that holds
        it (only in ``scope`` modules when given), so callers that imported
        it by name are traced too.  A class attribute is replaced on the
        class.  Returns False, and records ``name`` as absent, when the
        target does not resolve.
        """
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(name)
            return False
        if inspect.isclass(owner):
            if isinstance(original, (staticmethod, classmethod)):
                self.absent.append(name)
                return False
            self._patch(owner, attr, original, self._wrapper(original, name, info))
            return True
        wrapper = self._wrapper(original, name, info)
        for module in _repro_modules(scope):
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, original, wrapper)
        return True

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- queries ---------------------------------------------------------
    def select(self, name: str, phase: Optional[str] = None) -> List[Span]:
        return [s for s in self.spans if s.name == name and (phase is None or s.phase == phase)]

    def total(self, name: str, phase: Optional[str] = None) -> float:
        return sum(s.seconds for s in self.select(name, phase))

    def info_sum(self, name: str, key: str, phase: Optional[str] = None) -> float:
        return float(sum(s.info.get(key, 0.0) for s in self.select(name, phase)))


def _repro_modules(scope: Optional[Sequence[str]]) -> Iterator[Any]:
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        if scope is None or module_name in scope:
            yield module


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [s.seconds - covered(children.get(i, ()), s.start, s.end) for i, s in enumerate(spans)]


def coverage(spans: Sequence[Span], index: int) -> float:
    """Share of span ``index`` covered by its children (same thread)."""
    outer = spans[index]
    if outer.seconds <= 0:
        return 0.0
    inner = [(s.start, s.end) for s in spans if s.parent == index]
    return covered(inner, outer.start, outer.end) / outer.seconds
