"""Runtime array contracts: shape / dtype / finiteness checks at boundaries.

The hand-derived numpy math in :mod:`repro.core` fails *silently* under
dtype drift or mis-shaped inputs (broadcasting hides most mistakes), so
module-boundary functions declare their array expectations with
:func:`shapes`::

    @shapes(pairs="(k,2):int", phi="(k,):float:finite", ret="(k,):float")
    def predict(pairs, phi): ...

Spec grammar (colon-separated segments, first is the shape):

* ``(n,d)`` — dimension symbols are unified across every spec of one call,
  so ``pairs="(k,2)"`` and ``phi="(k,)"`` must agree on ``k``.
* integer literals pin a dimension exactly; ``*`` matches any size.
* a leading ``...`` (``"(...,d)"``) allows any number of batch dimensions.
* ``()`` matches a scalar (Python number or 0-d array).
* dtype segment: ``float`` | ``int`` | ``bool`` | ``any`` (numpy kind check,
  so ``float32``/``float64`` both satisfy ``float``).
* ``finite`` segment: rejects NaN / infinity.
* a ``?`` prefix makes the argument optional (``None`` is accepted).

The reserved spec name ``ret`` validates the return value.

Checks run only while contracts are enabled.  The switch is the
``REPRO_CONTRACTS`` environment variable, read at import time (``off`` /
``0`` / ``false`` / ``no`` disable), plus :func:`set_contracts_enabled` for
tests.  When disabled at import time the decorator returns the function
*unwrapped* — benchmarks pay literally zero per-call cost; when disabled at
runtime the wrapper's only cost is one global bool check.
"""

from __future__ import annotations

import functools
import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

__all__ = [
    "ContractError",
    "contracts_enabled",
    "set_contracts_enabled",
    "shapes",
    "check_array",
]

F = TypeVar("F", bound=Callable[..., Any])

_FALSY = frozenset({"off", "0", "false", "no"})

_ENABLED: bool = os.environ.get("REPRO_CONTRACTS", "on").strip().lower() not in _FALSY
#: Whether the decorator was a no-op at import time (zero-cost mode).
_IMPORT_DISABLED: bool = not _ENABLED

_DTYPE_KINDS = {
    "float": "f",
    "int": "iu",
    "bool": "b",
    "any": None,
}


class ContractError(ValueError):
    """An array argument or return value violated its declared contract."""


def contracts_enabled() -> bool:
    """Whether contract validation currently runs."""
    return _ENABLED


def set_contracts_enabled(enabled: bool) -> bool:
    """Toggle validation at runtime (tests); returns the previous state.

    Has no effect on functions decorated while ``REPRO_CONTRACTS=off`` was
    set at import time — those were left unwrapped for zero cost.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


class _Spec:
    """One parsed contract spec string."""

    __slots__ = ("raw", "optional", "scalar", "dims", "variadic", "kind", "finite")

    def __init__(self, raw: str) -> None:
        self.raw = raw
        text = raw.strip()
        self.optional = text.startswith("?")
        if self.optional:
            text = text[1:].strip()
        segments = [seg.strip() for seg in text.split(":")]
        shape = segments[0]
        if not (shape.startswith("(") and shape.endswith(")")):
            raise ValueError(f"bad contract spec {raw!r}: shape must be '(...)'")
        body = shape[1:-1].strip().rstrip(",")
        dims = [d.strip() for d in body.split(",")] if body else []
        self.variadic = bool(dims) and dims[0] == "..."
        if self.variadic:
            dims = dims[1:]
        if any(d == "..." for d in dims):
            raise ValueError(f"bad contract spec {raw!r}: '...' must lead")
        self.dims: List[str] = dims
        self.scalar = not dims and not self.variadic
        self.kind: Optional[str] = None
        self.finite = False
        for seg in segments[1:]:
            if seg == "finite":
                self.finite = True
            elif seg in _DTYPE_KINDS:
                self.kind = _DTYPE_KINDS[seg]
            elif seg:
                raise ValueError(f"bad contract spec {raw!r}: unknown segment {seg!r}")


def _check_value(
    where: str,
    name: str,
    value: Any,
    spec: _Spec,
    bindings: Dict[str, int],
) -> None:
    if value is None:
        if spec.optional:
            return
        raise ContractError(f"{where}: argument '{name}' must not be None")
    arr = np.asarray(value)
    if spec.scalar:
        if arr.ndim != 0:
            raise ContractError(
                f"{where}: '{name}' must be a scalar, got shape {arr.shape}"
            )
    else:
        rank = len(spec.dims)
        if spec.variadic:
            if arr.ndim < rank:
                raise ContractError(
                    f"{where}: '{name}' must have rank >= {rank} "
                    f"(spec {spec.raw!r}), got shape {arr.shape}"
                )
            actual: Tuple[int, ...] = arr.shape[arr.ndim - rank :]
        else:
            if arr.ndim != rank:
                raise ContractError(
                    f"{where}: '{name}' must have rank {rank} "
                    f"(spec {spec.raw!r}), got shape {arr.shape}"
                )
            actual = arr.shape
        for sym, size in zip(spec.dims, actual):
            if sym == "*":
                continue
            if sym.isdigit():
                if size != int(sym):
                    raise ContractError(
                        f"{where}: '{name}' dimension must be {sym} "
                        f"(spec {spec.raw!r}), got shape {arr.shape}"
                    )
            elif sym in bindings:
                if bindings[sym] != size:
                    raise ContractError(
                        f"{where}: dimension '{sym}' of '{name}' is {size}, "
                        f"but '{sym}' = {bindings[sym]} elsewhere in the call"
                    )
            else:
                bindings[sym] = size
    if spec.kind is not None and arr.dtype.kind not in spec.kind:
        raise ContractError(
            f"{where}: '{name}' must have dtype kind [{spec.kind}] "
            f"(spec {spec.raw!r}), got dtype {arr.dtype}"
        )
    if spec.finite and arr.size and not np.isfinite(arr).all():
        raise ContractError(f"{where}: '{name}' must be finite (no NaN/inf)")


def check_array(
    name: str,
    value: Any,
    spec: str,
    *,
    bindings: Optional[Dict[str, int]] = None,
) -> None:
    """Imperative one-off contract check (same spec grammar as ``@shapes``).

    ``bindings`` lets successive calls share dimension symbols.
    """
    _check_value("check_array", name, value, _Spec(spec), bindings if bindings is not None else {})


def shapes(**specs: str) -> Callable[[F], F]:
    """Declare array contracts for named arguments (and ``ret``).

    See the module docstring for the spec grammar.  Unknown argument names
    raise ``TypeError`` at decoration time, so contracts cannot silently
    drift away from a changed signature.
    """
    parsed = {name: _Spec(raw) for name, raw in specs.items()}
    ret_spec = parsed.pop("ret", None)

    def decorate(fn: F) -> F:
        if _IMPORT_DISABLED:
            return fn
        import inspect

        sig = inspect.signature(fn)
        unknown = set(parsed) - set(sig.parameters)
        if unknown:
            raise TypeError(
                f"@shapes on {fn.__qualname__}: no such argument(s) {sorted(unknown)}"
            )
        # Precompute positional indices so the hot path avoids sig.bind().
        positions: Dict[str, int] = {}
        for i, pname in enumerate(sig.parameters):
            if pname in parsed:
                positions[pname] = i
        defaults = {
            pname: param.default
            for pname, param in sig.parameters.items()
            if pname in parsed and param.default is not inspect.Parameter.empty
        }
        where = fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if _ENABLED:
                bindings: Dict[str, int] = {}
                for pname, spec in parsed.items():
                    idx = positions[pname]
                    if idx < len(args):
                        value = args[idx]
                    elif pname in kwargs:
                        value = kwargs[pname]
                    elif pname in defaults:
                        value = defaults[pname]
                    else:  # missing required arg: let Python raise its own error
                        return fn(*args, **kwargs)
                    _check_value(where, pname, value, spec, bindings)
                out = fn(*args, **kwargs)
                if ret_spec is not None:
                    _check_value(where, "return", out, ret_spec, bindings)
                return out
            return fn(*args, **kwargs)

        wrapper.__contract_specs__ = dict(specs)  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate


def expected_entry_points() -> Dict[str, Sequence[str]]:
    """Hot-path entry points that must carry a ``@shapes`` contract.

    Keyed by path suffix relative to the repo; values are function names or
    ``Class.method`` names.  The linter's RNE009 rule enforces this list —
    keeping it here (next to the decorator) makes the contract layer and
    its static verification impossible to update independently by accident.
    """
    return {
        "repro/core/model.py": (
            "lp_distance",
            "lp_gradient",
            "RNEModel.query_pairs",
        ),
        "repro/core/training.py": ("train_flat", "train_hierarchical"),
        "repro/core/finetune.py": ("active_finetune",),
        "repro/core/index.py": (
            "EmbeddingTreeIndex.prepare",
            "EmbeddingTreeIndex.refresh_rows",
        ),
        "repro/core/hierarchical.py": (
            "HierarchicalRNE.global_vectors",
            "HierarchicalRNE.query_pairs",
        ),
        "repro/graph/hierarchy.py": ("PartitionHierarchy.from_ancestor_rows",),
    }
