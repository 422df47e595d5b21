"""Process set-up shared by the benchmark entry points.

Pins the BLAS/OpenMP pools to one thread before numpy is imported (the
reference machine has two cores shared with other load) and imports
cpnbergman from the checkout's own ``src/`` tree, never from an installed
copy, so the benchmark always measures the code next to it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class SetupError(Exception):
    """The checkout does not hold the library the benchmark measures."""


def load_library():
    """Pin thread pools, then import and return the checkout's cpnbergman."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    init = SRC / "cpnbergman" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"library sources not found: {init}")
    sys.path.insert(0, str(SRC))
    import cpnbergman

    if Path(cpnbergman.__file__).resolve() != init.resolve():
        raise SetupError(f"imported cpnbergman from {cpnbergman.__file__}, expected {init}")
    return cpnbergman
