"""Benchmark entry point.  Run from the repository root:

    python3 perfbench/run.py --workload mnist_d1_cost --seed 0 --seconds 30 --trace 0

The last line of standard output is the JSON result; perfbench/README.md
describes the workloads and metrics.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# OpenBLAS splits matmuls by thread count, which changes the last bits of the
# results: golden.json was recorded with this many threads.
BLAS_THREADS = 2


def prepare() -> None:
    """Run OpenBLAS on BLAS_THREADS threads (at most nproc) and import catfed
    from this checkout.

    Must run before numpy is imported.  Exits with status 1 when the
    checkout holds no program to benchmark.
    """
    nproc = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(BLAS_THREADS, nproc))
    src = ROOT / "src"
    if not (src / "catfed" / "__init__.py").is_file():
        sys.exit(f"error: no program to benchmark, {src / 'catfed'} is missing")
    sys.path.insert(0, str(src))


if __name__ == "__main__":
    prepare()
    import bench

    sys.exit(bench.main(sys.argv[1:]))
