"""Run one qbattery benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_d4 --seed 1 --seconds 30 --trace 0

Workloads: mc_d4, sweep_d4, large_d8 (see README.md).  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  BLAS
runs with at most two threads; the count is recorded in the manifest.
"""

import os
import sys

if __name__ == "__main__":
    threads = str(min(2, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads  # before numpy loads BLAS
    from harness import main

    sys.exit(main())
