"""Makes the checkout's own `src/` importable and caps numpy's thread pools.

Every benchmark script calls `prepare()` before it imports numpy or skewconv,
so the library under test is always the one in this checkout, never an
installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The benchmark runs in one process with no worker threads; one BLAS/OpenMP
# thread keeps numpy from oversubscribing the cores (at most nproc threads).
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    if not (SRC / "skewconv" / "__init__.py").is_file():
        sys.exit(f"perfbench: no skewconv sources under {SRC}")
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
