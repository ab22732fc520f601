"""Smoke test of tools/lp_digest.py, the bit-identity harness of the LP
kernel, on the benchmark's workloads at m=4."""

import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

import lp_digest  # noqa: E402


def test_the_digest_of_a_pass_repeats():
    # one pass of each workload, twice: the same LPs, pivots and bits
    workloads = lp_digest.workloads
    for wl, seeds in ((workloads.TableM10(m=4), [0, 1]),
                      (workloads.WorstCase(m=4), [0]),
                      (workloads.CutLoopHRep(m=2), [0, 1])):
        first = lp_digest.digest(lambda: lp_digest.workload_pass(wl, seeds))
        lps, pivots, hexdigest = first
        assert lps > 0 and pivots > 0 and len(hexdigest) == 16
        assert lp_digest.digest(
            lambda: lp_digest.workload_pass(wl, seeds)) == first
