"""RNE004: no Python-level loops over vertices/pairs in hot-path modules.

``core/training.py``, ``core/finetune.py``, the build driver
``core/pipeline.py``, ``core/index.py`` and the serving engine/front door
are the modules every query and every training step flows through; a Python ``for`` over per-vertex or per-pair data
there is an O(n) interpreter loop hiding inside an otherwise vectorised
path.  Loops that are genuinely bounded by something small (epochs,
levels, tree fanout, cache bookkeeping) carry a ``# perf: loop-ok``
waiver explaining why.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import FileContext, Rule, Violation

HOT_PATH_FILES = (
    "core/training.py",
    "core/finetune.py",
    "core/pipeline.py",
    "core/index.py",
    "core/sampling.py",
    "core/update.py",
    "serving/engine.py",
    "serving/frontdoor.py",
    "live/update.py",
)

#: Identifiers that mark an iterable as per-vertex / per-pair sized.
_HOT_IDENTIFIERS = frozenset(
    {"pairs", "vertices", "verts", "members", "nodes", "targets", "batch"}
)


def _mentions_hot_identifier(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in _HOT_IDENTIFIERS:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in (_HOT_IDENTIFIERS | {"n"}):
            return True
    return False


class HotPathPythonLoop(Rule):
    code = "RNE004"
    name = "hot-path-python-loop"
    description = (
        "Python for-loops over vertices/pairs in the training, sampling, "
        "indexing, serving and live-update hot paths require a "
        "'# perf: loop-ok' waiver"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return any(ctx.relpath.endswith(suffix) for suffix in HOT_PATH_FILES)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.For):
                continue
            if _mentions_hot_identifier(node.iter):
                yield self.violation(
                    ctx,
                    node,
                    "Python-level loop over vertex/pair-sized data in a "
                    "hot-path module; vectorise it or justify with "
                    "'# perf: loop-ok (<reason>)'",
                )
