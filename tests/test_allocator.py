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
