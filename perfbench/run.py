"""Benchmark runner: one workload, timed passes, gates, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table-m10 --seed 0 --seconds 30 \
        --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each is there):

    table-m10       run_benchmark(uniform, m=10, count=30 seeds), jobs=1
    worstcase-m16   solve_affine + vertex oracle on gen_worst_case(16,
                    randomized=True, seed), 12 seeds per pass
    cutloop-hrep    solve_affine + solve_adjustable(eps=0.5, mip_tol=0.05)
                    on the m=n=2 HRep mixed recipe, 40 seeds per pass

The seed list of a pass is `--seed`, `--seed`+1, ..., `--count` seeds in
all (default per workload, above).  For table-m10 the list starts at
`--seed` mod 971 instead (971 = 1000 - 30 for the default count), so it
lies within the seeds 0..999 recorded in reference_m10.json, whose
values its gate compares with.  Passes repeat closed loop, one solve
after another, while another pass still fits in `--seconds`; at least
one runs.  BLAS threads are pinned to 1 before numpy loads.

End-to-end metrics (`--trace 0`), medians over the run's passes.  Times
are reference seconds: the measured time multiplied by the host's speed
during the pass, sampled by speed.py (the raw pass times are printed
too):
    wall_s       seconds for one pass
    t_aff_s      time of one call that returns z_aff, trimmed mean (middle
                 80%) over the pass's instances
    t_ar_s       the same for z_ar
    cpu_s        process user + system CPU seconds for one pass
    peak_rss_mb  peak resident memory of this process (ran one workload)
    setup_s      median over 5 fresh interpreters of the time from start
                 through `import adjrobust` and instance generation
                 (measured under `--trace 0` only)
Failed solves over attempted solves is the result's `failed`/`attempted`
pair, printed as `failed_frac`.

`--trace 1` alternates untraced and traced passes, and reports the
per-layer metrics of spans.py (medians over traced passes) plus
`trace.overhead_frac`.  Their times are reference seconds too; the
instance generation done before the passes is scaled by the host speed
sampled while it ran.  Spans go to
perfbench/out/spans-<workload>-seed<seed>.jsonl.

Gates run after the timed region; every failure is printed with its
exception type and message.  The last stdout line is the JSON result.

A trimmed mean stands in for the median of per-instance times.  The
host's speed changes within a pass, so the nearly equal per-row times
of the m=10 table split into a fast and a slow cluster whose median
jumps between the clusters from run to run (22% spread over ten seeds,
against 14% for wall_s, before times were scaled by host speed).  The
trimmed mean follows the share of slow time smoothly and still drops
outlier instances, such as the 3-6 s cut loops among 0.4-1.5 s ones.

Not measured, on purpose (each is too slow or too noisy for a run of
about 30 s): the HRep affine LP at m=20 (62 s per solve); separation
MIPs at m=3 (26-200 s per instance); the worst-case family at m=25
(about 25 s per randomized instance, so one sample per run, whose
oracle time spread 31% over five seeds) and at m=20 (about 7 s per
instance; four instances per pass spread 14-17% over five seeds, as
the same LP re-solved on a 2-vCPU host varied by up to 20%, against
7-9% for twelve instances at m=16); the deterministic worst-case
instance through the timed routes (it is gated through its cheap
routes); and the tier-1 test suite (900 s).  `analysis` has no span and
no `lp.s_by_parent` entry: `kappa_sandwich` is one LP per call and no
workload calls it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 5
END_TO_END = (("wall_s", "s"), ("t_aff_s", "s"), ("t_ar_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


@dataclass
class Pass:
    traced: bool
    wall_s: float
    cpu_s: float
    solves: list
    speed: float     # host speed during the pass, relative to the reference


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _parse(argv, names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(names))
    p.add_argument("--seed", type=int, default=0,
                   help="first seed of the pass's seed list")
    p.add_argument("--count", type=int, default=None,
                   help="seeds per pass (default depends on the workload)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measure for about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.count is not None and args.count < 1:
        p.error("--count must be at least 1")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def measure_setup(args, count: int) -> float:
    """Median wall time from spawning a fresh interpreter until it has
    imported the package and generated the pass's pre-timing inputs,
    scaled by the host speed sampled around each spawn."""
    import speed
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--count", str(count), "--setup-probe"]
    times = []
    kernel = speed.Kernel()
    for _ in range(SETUP_PROBES):
        samples = [speed.time_kernel(kernel) for _ in range(5)]
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True, cwd=env.ROOT)
        raw = float(done.stdout.split()[-1]) - t0
        samples += [speed.time_kernel(kernel) for _ in range(5)]
        times.append(raw * speed.speed(kernel, samples))
    return statistics.median(times)


def _median(values) -> float:
    return float(statistics.median(values))


def trimmed_mean(values) -> float:
    """Mean of the middle 80%: drops the slowest and fastest tenth."""
    vals = sorted(values)
    cut = len(vals) // 10
    return float(statistics.fmean(vals[cut:len(vals) - cut]))


def _consistency(passes: list[Pass], workloads) -> list:
    """Every pass repeats the same inputs, so it must return the same
    values (traced passes included)."""
    first = {(s.instance, s.route): s.value for s in passes[0].solves}
    fails = []
    for k, p in enumerate(passes[1:], start=1):
        for s in p.solves:
            want = first.get((s.instance, s.route))
            if s.value is not None and want is not None and s.value != want:
                fails.append((k, workloads.Failure(
                    s.instance, s.route,
                    f"pass {k} value {s.value!r} != pass 0 value {want!r}")))
    return fails


def main(argv=None) -> int:
    env.pin_threads()
    if not env.add_source_path():
        print(f"perfbench: no adjrobust package under {env.SRC}",
              file=sys.stderr)
        return 2
    import spans        # these import numpy, which must load after pinning
    import speed
    import workloads

    args = _parse(argv, workloads.WORKLOADS)
    wl = workloads.WORKLOADS[args.workload]()
    count = args.count or wl.default_count
    try:
        seeds = wl.seeds(args.seed, count)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        wl.setup(seeds)
        print(repr(time.monotonic()))
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.pass_id = "setup"
    sampler = speed.SpeedSampler(speed.Kernel())
    sampler.start()
    try:
        inputs = wl.setup(seeds)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        setup_speed = sampler.stop()
    setup_s = None if args.trace else measure_setup(args, count)

    passes: list[Pass] = []
    begin = time.monotonic()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if tracer is not None:
            tracer.pass_id = len(passes) if traced else None
        sampler.start()
        c0, t0 = _cpu(), time.perf_counter()
        solves = wl.run_pass(inputs)
        wall = time.perf_counter() - t0
        cpu = _cpu() - c0
        host = sampler.stop()
        if tracer is not None:
            tracer.pass_id = None
        passes.append(Pass(traced, wall, cpu, solves, host))
        if tracer is not None and len(passes) < 2:
            continue
        if time.monotonic() - begin + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    # gates, outside the timed region
    attempted = sum(len(p.solves) for p in passes)
    tagged = [(k, f) for k, p in enumerate(passes)
              for f in wl.check(inputs, p.solves)]
    tagged += _consistency(passes, workloads)
    once, fails = wl.gate_once()
    attempted += once
    tagged += [("once", f) for f in fails]
    failed = len({(k, f.instance, f.route) for k, f in tagged})

    print(f"# perfbench workload={args.workload} seeds={seeds[0]}.."
          f"{seeds[-1]} ({count}) passes={len(passes)} trace={args.trace}")
    print("# env " + json.dumps(env.machine()))
    for k, f in tagged:
        print("# failure " + json.dumps({"pass": k, **f.to_dict()}))
    print("# host speed per pass (reference = 1; times below are scaled by "
          "it): " + json.dumps([round(p.speed, 4) for p in passes]))
    print("# raw wall_s per pass: " + json.dumps([round(p.wall_s, 4)
                                                  for p in passes]))

    plain = [p for p in passes if not p.traced]
    if tracer is None:
        def route_time(p, route):
            mine = [s for s in p.solves if s.route == route]
            return trimmed_mean([s.seconds for s in mine if not s.error]
                                or [s.seconds for s in mine])
        values = {
            "wall_s": _median([p.wall_s * p.speed for p in plain]),
            "t_aff_s": _median([route_time(p, "aff") * p.speed
                                for p in plain]),
            "t_ar_s": _median([route_time(p, "ar") * p.speed for p in plain]),
            "cpu_s": _median([p.cpu_s * p.speed for p in plain]),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        per_pass = [spans.layer_metrics([s for s in tracer.spans
                                         if s.pass_id == k], p.speed)
                    for k, p in enumerate(passes) if p.traced]
        values = {name: _median([m[name] for m in per_pass])
                  for name in per_pass[0]}
        values["instances.generate_s"] += spans.layer_metrics(
            [s for s in tracer.spans if s.pass_id == "setup"],
            setup_speed)["instances.generate_s"]
        values["trace.overhead_frac"] = (
            _median([p.wall_s * p.speed for p in passes if p.traced])
            / _median([p.wall_s * p.speed for p in plain]) - 1.0)
        metrics = {name: {"value": v, "unit": spans.unit_of(name)}
                   for name, v in values.items()}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
                     {"workload": args.workload, "seeds": seeds,
                      "env": env.machine()})

    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        label = "  (computed from LP shapes, not measured)" \
            if m["unit"] == "cells-computed" else ""
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}{label}")
    print(f"{'failed_frac':<{width}}  {failed / attempted:.6g} 1  "
          f"({failed} of {attempted} solves)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
