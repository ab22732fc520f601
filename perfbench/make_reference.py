"""Record the table-m10 reference values the benchmark's gate compares to.

    python3 perfbench/make_reference.py --count 1000

Writes perfbench/reference_m10.json: z_aff and z_ar of
run_benchmark(uniform, m=10) for seeds 0 .. count-1, with BLAS threads
pinned as in a benchmark run.  A row that does not finish `ok` is
recorded as null with its status; the benchmark counts such a row as
failed whenever its seed is in a pass.  Re-record only when a change is
meant to move these values, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

import env


def main(argv=None) -> int:
    env.pin_threads()
    if not env.add_source_path():
        print(f"no adjrobust package under {env.SRC}", file=sys.stderr)
        return 2
    from adjrobust import bench
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--count", type=int, default=1000)
    args = p.parse_args(argv)
    rows, _ = bench.run_benchmark(bench.BenchConfig(
        kind="uniform", m_list=[10], count=args.count, jobs=1))
    doc = {"kind": "uniform", "m": 10, "machine": env.machine(),
           "rows": {str(r.seed): [r.z_aff, r.z_ar] if r.status == "ok"
                    else None for r in rows},
           "not_ok": {str(r.seed): r.status for r in rows
                      if r.status != "ok"}}
    with open(workloads.REFERENCE_M10, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
