"""Process preparation shared by the benchmark, and its set-up probe.

Run as a script, this is one fresh process that imports numpy and royroot
from the checkout, builds the inputs of a workload's first round, and
prints its own import timings as JSON.  ``run.py`` starts it several times
and times each start to exit, which is the ``setup_s`` metric.

    python3 perfbench/probe.py <workload> <seed>
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# one BLAS thread per process, so that the Monte Carlo pool at workers = 2
# runs at most two compute threads on a two-core machine
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_process() -> None:
    """Pin BLAS to one thread and import royroot from this checkout's sources.

    Must run before numpy is imported.  Exits with status 2 when the
    checkout holds no royroot sources, so that no stale or installed copy
    is measured in their place.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "royroot" / "__init__.py").is_file():
        sys.exit(f"perfbench: no royroot sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def main(workload: str, seed: int) -> None:
    import json

    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import royroot
    t2 = time.perf_counter()
    import workloads
    workloads.make_plan(workload, seed, royroot).primary(0)
    t3 = time.perf_counter()
    print(json.dumps({"import_numpy_s": t1 - t0, "import_royroot_s": t2 - t1,
                      "inputs_s": t3 - t2}))


if __name__ == "__main__":
    prepare_process()
    main(sys.argv[1], int(sys.argv[2]))
