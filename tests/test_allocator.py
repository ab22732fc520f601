import os
import platform
import subprocess
import sys

import pytest

import adjrobust

# solves the m=16 worst-case affine LP and vertex oracle once to warm up,
# then prints the minor page faults of a second, identical pair
_PROBE = """
import resource
from adjrobust import adjustable, affine, instances

inst = instances.gen_worst_case(16, randomized=True, seed=0)


def pair():
    affine.solve_affine(inst)
    adjustable.solve_adjustable_vertex_oracle(inst)


pair()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
pair()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator pin is glibc's mallopt")
@pytest.mark.parametrize("pad", [0, 400])
def test_repeated_solves_reuse_heap_pages(pad):
    # without fixed mmap and trim thresholds, whether the solve's
    # multi-MB arrays reuse freed heap pages or fault in fresh ones
    # depends on glibc's allocation history, which the size of the
    # environment shifts: a repeat of the pair then faulted about 5,150
    # pages
    src = os.path.dirname(os.path.dirname(os.path.abspath(adjrobust.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, ADJROBUST_TEST_PAD="x" * pad,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) < 500


# sets numpy's bundled OpenBLAS to two threads, then prints its thread
# count after importing the package, inside a solve and after it, or
# "none" where numpy has no such library
_BLAS_PROBE = """
import ctypes
import numpy as np
try:
    umath = ctypes.CDLL(np._core._multiarray_umath.__file__)
    get = umath.scipy_openblas_get_num_threads64_
    put = umath.scipy_openblas_set_num_threads64_
except (AttributeError, OSError):
    print("none")
    raise SystemExit
put(2)
from adjrobust import lp

seen = []
run = lp._Tableau.run


def spy(tb):
    seen.append(get())
    return run(tb)


lp._Tableau.run = spy
after_import = get()
sol = lp.solve_lp(lp.LinearProgram.from_arrays(
    "max", [1.0, 1.0], [[1.0, 2.0]], ["<="], [4.0]))
assert sol.status == "optimal" and seen
print(after_import, seen[0], get())
"""


def test_solves_run_blas_on_one_thread():
    # a threaded BLAS sums in another order, which moves the pivot path
    # (module docstring of adjrobust.lp, "Threads"); a solve runs on one
    # thread and gives the caller's count back, and the import leaves it
    src = os.path.dirname(os.path.dirname(os.path.abspath(adjrobust.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    out = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    if out.stdout.strip() == "none":
        pytest.skip("numpy has no bundled scipy-openblas")
    assert out.stdout.split() == ["2", "1", "2"]
