"""Bit-identity digest of the LP kernel's work on the benchmark's inputs.

Runs, one pass each, the benchmark's three workloads on perfbench's own
inputs and the HRep affine LP at m=20 and m=30 (uniform, seed 0), and
prints one line per run: the number of LPs solved, their pivots, and a
16-hex digest of every LP's ``(status, iterations, repr(objective))``
and every value the run returns.  Two checkouts whose kernels take the
same pivots to the same bits print the same lines, so a change meant to
keep the arithmetic is checked by running this in both checkouts.

Run from the root of a checkout (BLAS is pinned to one thread before
numpy loads):

    python3 tools/lp_digest.py                  # the five default runs
    python3 tools/lp_digest.py cutloop-hrep cutloop-m3

``cutloop-m3`` (the m=3 cut loops, eps 0.1, mip_tol 0.01, seeds 0-19)
runs only when named.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import env  # noqa: E402

if __name__ == "__main__":
    env.pin_threads()
env.add_source_path()

from adjrobust import adjustable, affine, bench, lp  # noqa: E402

import workloads  # noqa: E402


def workload_pass(wl, seeds) -> list:
    """One pass of a perfbench workload: each solve's instance, route,
    value and error, without its time."""
    return [(s.instance, s.route, s.value, s.error)
            for s in wl.run_pass(wl.setup(list(seeds)))]


def affine_value(m: int) -> list:
    inst = bench.generate_bench_instance("uniform", m, m, 0)
    return [affine.solve_affine(inst).objective]


def cut_loops_m3() -> list:
    return [adjustable.solve_adjustable(workloads.mixed_instance(3, 3, s),
                                        eps=0.1, mip_tol=0.01).z_ar
            for s in range(20)]


RUNS = {
    "table-m10": lambda: workload_pass(workloads.TableM10(), range(30)),
    "worstcase-m16": lambda: workload_pass(workloads.WorstCase(), range(12)),
    "cutloop-hrep": lambda: workload_pass(workloads.CutLoopHRep(), range(40)),
    "affine-m20": lambda: affine_value(20),
    "affine-m30": lambda: affine_value(30),
    "cutloop-m3": cut_loops_m3,
}
DEFAULT = ("table-m10", "worstcase-m16", "cutloop-hrep", "affine-m20",
           "affine-m30")


def digest(run) -> tuple[int, int, str]:
    """Call ``run()`` with every LP solve recorded: the number of LPs,
    their pivots, and the digest of the LPs and of what ``run`` returns."""
    solve, seen = lp._solve, []

    def recorded(*args):
        sol = solve(*args)
        seen.append((sol.status, sol.iterations, repr(sol.objective)))
        return sol

    lp._solve = recorded
    try:
        values = run()
    finally:
        lp._solve = solve
    h = hashlib.sha256(repr(seen).encode())
    h.update(repr(values).encode())
    return len(seen), sum(s[1] for s in seen), h.hexdigest()[:16]


def main(names) -> int:
    unknown = [n for n in names if n not in RUNS]
    if unknown:
        print(f"unknown run {unknown[0]!r}; runs: {', '.join(RUNS)}",
              file=sys.stderr)
        return 1
    for name in names or DEFAULT:
        lps, pivots, hexdigest = digest(RUNS[name])
        print(f"{name}: lps={lps} pivots={pivots} digest={hexdigest}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
