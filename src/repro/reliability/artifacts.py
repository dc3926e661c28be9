"""Crash-safe, self-validating ``.npz`` artifacts.

Every persisted artefact of the system (trained embeddings, full RNE
indexes, training checkpoints) goes through this module, which guarantees:

* **Atomicity** — data is written to a temp file in the same directory,
  fsync'd, then moved into place with ``os.replace``.  A crash at any
  point leaves either the previous artifact or no artifact, never a torn
  file under the final name.
* **Integrity** — a JSON manifest (stored inside the archive) records a
  schema version, the artifact kind, and per-array shape / dtype / CRC32.
  :func:`load_artifact` re-verifies every byte, so truncation or bit rot
  surfaces as a typed :class:`ArtifactError` instead of wrong distances.
* **Graph binding** — artifacts trained against a graph embed its
  fingerprint (``n``, ``m``, CRC32 of the edge arrays).  Loading against a
  *different* graph — the silent-wrong-answer failure mode of learned
  indexes — is rejected.

The module deliberately depends only on numpy and the stdlib (plus the
fault hooks) so the graph IO layer can use it without importing the model
stack.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

import numpy as np

from . import faults

if TYPE_CHECKING:  # import-light: only the type, never the graph stack
    from ..graph.graph import Graph

__all__ = [
    "ArtifactError",
    "SCHEMA_VERSION",
    "artifact_version",
    "graph_fingerprint",
    "load_artifact",
    "save_artifact",
    "validate_embedding_payload",
]

#: Bump when the manifest layout changes incompatibly.
SCHEMA_VERSION = 1

#: dtypes a persisted embedding matrix may have; it is served in the same.
_EMBEDDING_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

#: Archive member holding the JSON manifest (uint8 bytes).
_MANIFEST_KEY = "__manifest__"


class ArtifactError(RuntimeError):
    """A persisted artifact is missing, corrupt, or bound to another graph.

    Raised *instead of* returning data whenever an artifact cannot be
    proven valid — the serving layer treats it as "fall back to exact".
    """


def graph_fingerprint(graph: "Graph") -> Dict[str, int]:
    """Identity of a graph for artifact binding: ``n``, ``m``, weight hash.

    The hash covers endpoints *and* weights of the canonical undirected
    edge list, so reweighting a single road changes the fingerprint.
    """
    us, vs, ws = graph.edge_array()
    digest = zlib.crc32(np.ascontiguousarray(us).tobytes())
    digest = zlib.crc32(np.ascontiguousarray(vs).tobytes(), digest)
    digest = zlib.crc32(np.ascontiguousarray(ws).tobytes(), digest)
    return {"n": int(graph.n), "m": int(graph.m), "weight_hash": int(digest)}


def _array_checksum(arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes())


def artifact_version(manifest: Mapping[str, Any]) -> int:
    """Embedding version recorded in an artifact manifest.

    Artifacts written before live updates existed carry no version and
    revive as version ``0``; anything present must be a non-negative
    integer (a stamp that cannot be ordered would defeat the staleness
    contract, so malformed values raise instead of defaulting).
    """
    meta = manifest.get("meta") or {}
    raw = meta.get("version", 0)
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 0:
        raise ArtifactError(
            f"artifact carries invalid embedding version {raw!r} "
            "(expected a non-negative integer)"
        )
    return int(raw)


def save_artifact(
    path: str | os.PathLike,
    arrays: Mapping[str, np.ndarray],
    *,
    kind: str,
    graph: Optional["Graph"] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Atomically persist ``arrays`` with a validating manifest.

    Parameters
    ----------
    arrays:
        Named arrays (scalars are fine; they round-trip as 0-d arrays).
    kind:
        Artifact type tag (``"embedding"``, ``"rne"``, ``"checkpoint"``);
        :func:`load_artifact` refuses kind mismatches.
    graph:
        When given, the graph's fingerprint is embedded and enforced at
        load time.
    meta:
        Extra JSON-serialisable payload (config echoes, RNG state, ...).
    """
    if _MANIFEST_KEY in arrays:
        raise ValueError(f"array name {_MANIFEST_KEY!r} is reserved")
    path = os.fspath(path)
    named = {name: np.asarray(value) for name, value in arrays.items()}
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "arrays": {
            name: {
                "shape": list(arr.shape),
                "dtype": arr.dtype.str,
                "crc32": _array_checksum(arr),
            }
            for name, arr in named.items()
        },
        "graph": graph_fingerprint(graph) if graph is not None else None,
        "meta": meta if meta is not None else {},
    }
    payload = np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )

    faults.fire("artifact.pre_write", path)
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **{_MANIFEST_KEY: payload}, **named)
            fh.flush()
            os.fsync(fh.fileno())
        faults.fire("artifact.pre_replace", path)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    _fsync_directory(os.path.dirname(path) or ".")
    faults.fire("artifact.post_replace", path)


def _fsync_directory(directory: str) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # platform without directory fds; rename is still atomic
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def load_artifact(
    path: str | os.PathLike,
    *,
    expect_kind: Optional[str] = None,
    graph: Optional["Graph"] = None,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Load and fully verify an artifact written by :func:`save_artifact`.

    Returns ``(arrays, manifest)``.  Raises :class:`ArtifactError` — never
    returns partial data — when the file is missing, truncated, bit-flipped,
    schema-incompatible, of the wrong kind, or bound to a different graph.
    """
    path = os.fspath(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            if _MANIFEST_KEY not in data.files:
                raise ArtifactError(
                    f"{path}: no manifest — not a reliability artifact "
                    "(legacy or foreign .npz); re-save it with the current "
                    "version to get integrity checking"
                )
            try:
                manifest = json.loads(bytes(data[_MANIFEST_KEY]).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ArtifactError(f"{path}: manifest does not parse: {exc}") from exc
            _check_manifest(path, manifest, expect_kind)
            arrays: Dict[str, np.ndarray] = {}
            for name, spec in manifest["arrays"].items():
                if name not in data.files:
                    raise ArtifactError(
                        f"{path}: array '{name}' listed in manifest is missing"
                    )
                arr = np.array(data[name])
                _check_array(path, name, arr, spec)
                arrays[name] = arr
    except ArtifactError:
        raise
    except (OSError, EOFError, zipfile.BadZipFile, zlib.error, ValueError, KeyError) as exc:
        # np.load raises a zoo of exceptions on damaged archives; collapse
        # them all into the one typed error callers are promised.
        raise ArtifactError(
            f"{path}: artifact unreadable ({exc.__class__.__name__}: {exc})"
        ) from exc
    if graph is not None:
        _check_graph(path, manifest, graph)
    return arrays, manifest


def _check_manifest(
    path: str, manifest: Any, expect_kind: Optional[str]
) -> None:
    if not isinstance(manifest, dict) or "arrays" not in manifest:
        raise ArtifactError(f"{path}: manifest is malformed")
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ArtifactError(
            f"{path}: schema version {version!r} is not supported "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    if expect_kind is not None and manifest.get("kind") != expect_kind:
        raise ArtifactError(
            f"{path}: artifact kind is {manifest.get('kind')!r}, "
            f"expected {expect_kind!r}"
        )


def _check_array(path: str, name: str, arr: np.ndarray, spec: Any) -> None:
    if list(arr.shape) != list(spec["shape"]) or arr.dtype.str != spec["dtype"]:
        raise ArtifactError(
            f"{path}: array '{name}' has shape {arr.shape} dtype {arr.dtype}, "
            f"manifest says shape {tuple(spec['shape'])} dtype {spec['dtype']}"
        )
    checksum = _array_checksum(arr)
    if checksum != spec["crc32"]:
        raise ArtifactError(
            f"{path}: checksum mismatch for array '{name}' "
            f"(stored {spec['crc32']}, computed {checksum}) — artifact is corrupt"
        )


def validate_embedding_payload(
    path: str | os.PathLike,
    matrix: np.ndarray,
    p: np.ndarray | float,
    *,
    expect_n: Optional[int] = None,
) -> Tuple[np.ndarray, float]:
    """Validate a loaded ``(matrix, p)`` embedding payload.

    Shared by every loader that revives a queryable model: the matrix must
    be a 2-d, fully finite float32 or float64 array, kept in its dtype so a
    loaded model serves what was saved; ``p`` a finite scalar ``>= 1`` (the
    serving metrics; fractional-``p`` ablations are an in-memory
    experiment, not a persisted artefact); and with ``expect_n`` the row
    count must match the live graph.  Violations raise
    :class:`ArtifactError` so callers never serve distances from a
    half-trusted payload.
    """
    path = os.fspath(path)
    matrix = np.asarray(matrix)
    if matrix.dtype not in _EMBEDDING_DTYPES:
        raise ArtifactError(
            f"{path}: embedding matrix must be float32 or float64, "
            f"got {matrix.dtype}"
        )
    if matrix.ndim != 2:
        raise ArtifactError(
            f"{path}: embedding matrix must be 2-d, got shape {matrix.shape}"
        )
    if matrix.size and not np.isfinite(matrix).all():
        raise ArtifactError(f"{path}: embedding matrix contains NaN/inf values")
    if expect_n is not None and matrix.shape[0] != expect_n:
        raise ArtifactError(
            f"{path}: embedding has {matrix.shape[0]} rows "
            f"for a graph of {expect_n} vertices"
        )
    p_arr = np.asarray(p, dtype=np.float64)
    if p_arr.ndim != 0:
        raise ArtifactError(f"{path}: metric order p must be a scalar")
    p_val = float(p_arr)
    if not np.isfinite(p_val) or p_val < 1.0:
        raise ArtifactError(
            f"{path}: metric order p must be finite and >= 1, got {p_val}"
        )
    return matrix, p_val


def _check_graph(path: str, manifest: Dict[str, Any], graph: "Graph") -> None:
    stored = manifest.get("graph")
    if stored is None:
        raise ArtifactError(
            f"{path}: artifact carries no graph fingerprint but a graph "
            "binding check was requested"
        )
    live = graph_fingerprint(graph)
    if stored != live:
        raise ArtifactError(
            f"{path}: artifact was built for a different graph "
            f"(stored n={stored.get('n')} m={stored.get('m')} "
            f"hash={stored.get('weight_hash')}, live n={live['n']} "
            f"m={live['m']} hash={live['weight_hash']})"
        )
