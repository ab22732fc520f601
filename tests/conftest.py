"""Pin BLAS to one thread before the tests import numpy.

The BLAS library reads its thread count once, when it loads, and the
summation order of its kernels changes with that count, and with it the
ties the simplex sees: pivot counts and the last bits of LP values would
otherwise depend on the host's core count.  A value already set in the
environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
