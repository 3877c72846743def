"""Test-session setup for the whole repository (tests/ and perfbench/).

BLAS runs on one thread, as in the benchmark (perfbench/run.py), unless
the caller sets a thread count.  Round-off, and with it the iteration
counts some tests bound, depends on the BLAS thread count, so the suite
checks the setting the benchmark measures.  The variables take effect
only if set before numpy is imported; pytest imports this file before
any test module.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
