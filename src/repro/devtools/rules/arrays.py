"""RNE002 / RNE003: array-discipline rules.

The L1 SGD math in ``core/`` runs in the dtype of the parameter block it
trains (float32 for built models, float64 for ``RNEModel`` tables) and
assumes callers' arrays are not mutated behind their back.  A constructor
whose dtype defaults to float64 silently promotes a float32 kernel, and a
mutated caller array silently corrupts training, so both are enforced
statically.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .base import FileContext, Rule, Violation, np_call_name

#: Constructors whose dtype defaults silently drift with the platform /
#: numpy version.  ``np.array``/``asarray`` are excluded: they convert
#: existing data, where forcing a dtype can itself be the bug.
_DTYPE_CONSTRUCTORS = frozenset({"zeros", "ones", "empty", "full"})


def _root_name(node: ast.AST) -> Optional[str]:
    """Leftmost ``Name`` of an assignment target / argument expression."""
    cursor = node
    while isinstance(cursor, (ast.Attribute, ast.Subscript, ast.Starred)):
        cursor = cursor.value
    if isinstance(cursor, ast.Name):
        return cursor.id
    return None


class ExplicitDtype(Rule):
    code = "RNE002"
    name = "explicit-dtype"
    description = (
        "np.zeros/ones/empty/full in src/repro must pass an explicit dtype= "
        "so numeric precision never drifts with defaults"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return "src/repro/" in ctx.relpath or ctx.relpath.startswith("repro/")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = np_call_name(node)
            if (
                dotted
                and len(dotted) == 2
                and dotted[0] in ("np", "numpy")
                and dotted[1] in _DTYPE_CONSTRUCTORS
            ):
                if not any(kw.arg == "dtype" for kw in node.keywords):
                    yield self.violation(
                        ctx,
                        node,
                        f"np.{dotted[1]}() without an explicit dtype=; "
                        "pin the dtype to keep numeric behaviour deterministic",
                    )


class HiddenParameterMutation(Rule):
    code = "RNE003"
    name = "hidden-parameter-mutation"
    description = (
        "in-place ops / out= targeting function parameters in core/ "
        "(shared embedding arrays) need an explicit mutation-ok waiver"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return "repro/core/" in ctx.relpath

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AugAssign):
                root = _root_name(node.target)
                if root is None or root == "self":
                    continue
                fn = ctx.enclosing_function(node)
                if fn is not None and root in ctx.function_params(fn):
                    yield self.violation(
                        ctx,
                        node,
                        f"in-place update of parameter '{root}' mutates the "
                        "caller's array; document with '# mutation-ok' if "
                        "in-place semantics are the contract",
                    )
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg != "out":
                        continue
                    root = _root_name(kw.value)
                    if root is None or root == "self":
                        continue
                    fn = ctx.enclosing_function(node)
                    if fn is not None and root in ctx.function_params(fn):
                        yield self.violation(
                            ctx,
                            node,
                            f"out= writes into parameter '{root}'; document "
                            "with '# mutation-ok' if intentional",
                        )
