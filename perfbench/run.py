"""Benchmark entry point.

    python3 perfbench/run.py --workload {metro-serve,city-live} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ``src/`` next
to this directory; without it the command fails before printing a result.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics untraced,
per-layer metrics traced); the line before it records provenance.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Steadiness controls, applied before numpy is imported.
ENVIRONMENT = {
    "REPRO_CONTRACTS": "off",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(ENVIRONMENT)
    os.environ.pop("REPRO_WORKERS", None)
    sys.path[:0] = [str(SRC), str(ROOT)]

    import json
    import math

    import numpy as np
    import scipy

    import repro
    from perfbench import harness
    from perfbench.inputs import WORKLOADS

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from perfbench import layers
        from perfbench.tracing import Tracer

        tracer = Tracer()
        layers.install(tracer)
    try:
        result = harness.run(spec, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    metrics = layers.per_layer(result, tracer) if tracer is not None else harness.end_to_end(result)
    finite = all(math.isfinite(value) for value, _ in metrics.values())
    correct = harness.is_correct(result) and finite
    provenance = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sha256": result.inputs.digest,
        "vertices": result.inputs.graph.n,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "environment": {k: os.environ.get(k) for k in [*ENVIRONMENT, "REPRO_WORKERS"]},
        "git_commit": _git_commit(),
        "checked_batches": result.client.checked,
        "build_times": result.build_times,
        "update_times": result.update_times,
        "absent_layers": tracer.absent if tracer is not None else [],
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
