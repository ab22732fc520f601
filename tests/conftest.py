"""Pin a BLAS that the package does not reach to one thread.

`adjrobust.lp.solve_lp` runs numpy's bundled OpenBLAS on one thread
itself (module docstring of adjrobust.lp, "Threads").  Where numpy links
MKL or a system OpenBLAS instead, only the environment can pin it, and
the library reads its thread count once, when it loads: so this sets
the variables before the tests import numpy.  The summation order of
the BLAS kernels changes with the count, and with it the ties the
simplex sees, so pivot counts and the last bits of LP values would
otherwise depend on the host's core count.  A value already set in the
environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
