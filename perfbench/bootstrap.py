"""Process set-up shared by the benchmark entry points.

Import this module before numpy: it caps the BLAS thread pools and puts the
checkout's ``src`` directory first on the import path, so the benchmark always
measures the source tree it sits in and never an installed copy.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

if not os.path.isfile(os.path.join(SRC, "qexpfam", "__init__.py")):
    sys.stderr.write(f"perfbench: no qexpfam sources under {SRC}\n")
    sys.exit(2)
sys.path.insert(0, SRC)
