"""The benchmark's workloads, run small through every step the benchmark
runner takes: setup, one pass, the per-pass check and the once-per-run
gates.  The workloads reach into the package by name (for example
`Digitization.eps_total` in the cut loop's check and
`solve_affine_symmetric_worstcase` in the worst-case gate), so a change
that renames or breaks one of those fails here, not only in a benchmark
run."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


@pytest.mark.parametrize("wl,seeds", [
    (workloads.TableM10(m=4), [0, 1]),
    (workloads.WorstCase(m=4), [0]),
    (workloads.CutLoopHRep(m=2), [0, 1]),
], ids=["table", "worstcase", "cutloop"])
def test_workload_passes_its_gates(wl, seeds):
    inputs = wl.setup(seeds)
    solves = wl.run_pass(inputs)
    assert len(solves) == 2 * len(seeds)
    assert wl.check(inputs, solves) == []
    _, failures = wl.gate_once()
    assert failures == []
