"""Times one cold set-up of a workload in a fresh process.

Run from the repository root::

    python3 perfbench/setup_probe.py --workload burst-long --seed 1

The time covers importing the program (``repro``), constructing
``BurstEngine`` and the discarded warm-up steps: everything a user waits
for before the first steady-state step, once-per-process work included.
The benchmark's own checks between steps are not timed.  Prints one JSON
line ``{"seconds", "attempted", "failed", "errors"}``; the exit status is
0 only when every warm-up step passed its checks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import SRC, pin_blas_threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    pin_blas_threads()
    import numpy  # noqa: F401  (the environment's import, not timed)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import harness

    imported = time.perf_counter() - t0
    workload = harness.WORKLOADS[args.workload]
    report = harness.Report(workload=args.workload)
    with harness.use_backend(harness.BACKEND):
        _, spent = harness.set_up(
            workload, harness.batches(workload, args.seed),
            harness.Stepper(report), report,
        )
    print(json.dumps({
        "seconds": imported + spent,
        "attempted": report.attempted,
        "failed": report.failed,
        "errors": report.errors,
    }))
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
