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


# sets numpy's bundled OpenBLAS to two threads, or prints "none" where
# numpy has no such library
_BLAS_TWO_THREADS = """
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
"""

# prints the thread count after importing the package, inside a solve
# and after it
_BLAS_PROBE = _BLAS_TWO_THREADS + """
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


def _run_blas_probe(probe):
    """Run ``probe`` in a fresh interpreter that imports this checkout;
    its printed words, or skip where numpy has no bundled OpenBLAS."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(adjrobust.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    if out.stdout.strip() == "none":
        pytest.skip("numpy has no bundled scipy-openblas")
    return out.stdout.split()


def test_solves_run_blas_on_one_thread():
    # a threaded BLAS sums in another order, which moves the pivot path
    # (module docstring of adjrobust.lp, "Threads"); a solve runs on one
    # thread and gives the caller's count back, and the import leaves it
    assert _run_blas_probe(_BLAS_PROBE) == ["2", "1", "2"]


# solve A holds its solve open until solve B, started on another thread
# once A is inside, is inside its own; B then waits for A's solve_lp to
# return and reads the thread count it runs on; prints that count, then
# the count once both are done
_BLAS_RACE_PROBE = _BLAS_TWO_THREADS + """
import threading
from adjrobust import lp

run = lp._Tableau.run
a_inside, b_inside, a_done = (threading.Event(), threading.Event(),
                              threading.Event())
seen = []


def spy(tb):
    if threading.current_thread().name == "A":
        a_inside.set()
        b_inside.wait(30)
    else:
        b_inside.set()
        a_done.wait(30)
        seen.append(get())
    return run(tb)


def solve():
    sol = lp.solve_lp(lp.LinearProgram.from_arrays(
        "max", [1.0, 1.0], [[1.0, 2.0]], ["<="], [4.0]))
    assert sol.status == "optimal"
    if threading.current_thread().name == "A":
        a_done.set()


lp._Tableau.run = spy
a = threading.Thread(target=solve, name="A")
a.start()
assert a_inside.wait(30)
b = threading.Thread(target=solve, name="B")
b.start()
a.join()
b.join()
print(seen[0], get())
"""


def test_concurrent_solves_share_one_blas_pin():
    # the thread count is process-wide: a solve that starts while another
    # runs must still run on one thread after the other returns, and the
    # last solve to return sets the caller's count back
    assert _run_blas_probe(_BLAS_RACE_PROBE) == ["1", "2"]
