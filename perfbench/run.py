"""Step-level training benchmark: one workload, one run, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload burst-long --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones, by the names and units ``BENCHMARK.json`` declares.  The last line
of standard output is the result object; the line before it records the
environment.  Exit status is 0 only for a run whose outputs were correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def pin_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may run on; must run
    before NumPy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git (and
    without looking above the checkout); ``None`` outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Digest of ``src/`` (the commit stand-in for a plain checkout)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(nproc: int, seed: int, backend: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": nproc,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "backend": backend,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        known = ", ".join(harness.WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; one of {known}",
              file=sys.stderr)
        return 2
    report = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for message in report.errors:
        print(f"perfbench: {message}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = report.per_layer if args.trace else report.end_to_end
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
        if m["name"] in measured
    }
    print(json.dumps({
        "workload": args.workload,
        "samples": report.samples,
        "environment": environment(nproc, args.seed, harness.BACKEND),
        "end_to_end": report.end_to_end,
    }))
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
