"""Command-line front end.

Subcommands: generate, solve-affine, solve-adjustable, sandwich,
bounds, bench, worst-case.  Exit codes: 0 success, 1 usage or input
error, 2 solver failure.  The ADJROBUST_SEED environment variable
overrides the default seed everywhere a --seed flag exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .adjustable import (SeparationError, adjustable_special_case,
                         solve_adjustable, solve_adjustable_vertex_oracle)
from .affine import solve_affine
from .analysis import (kappa_sandwich, theorem1_bound, theorem2_bound,
                       worstcase_lower_bound)
from .bench import BenchConfig, generate_bench_instance, run_benchmark
from .instances import (RandomSpec, enumerate_vertices, gen_worst_case,
                        read_instance, write_instance)
from .lp import LpError
from .mip import MipError

_DISTS = ("uniform", "bernoulli", "folded-normal",
          "worst-case-deterministic", "worst-case-randomized")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad flags; route that to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)


def _env_seed(fallback: int = 0) -> int:
    raw = os.environ.get("ADJROBUST_SEED")
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"ADJROBUST_SEED must be an integer, got {raw!r}")


def _build_parser() -> _Parser:
    p = _Parser(prog="adjrobust",
                description="Two-stage adjustable robust optimization "
                            "with right-hand-side uncertainty")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random instance document")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, default=None, help="defaults to m")
    g.add_argument("--dist", choices=_DISTS, default="uniform")
    g.add_argument("--p", type=float, default=0.5,
                   help="bernoulli success probability")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", required=True)

    sa = sub.add_parser("solve-affine",
                        help="best affine policy for an instance document")
    sa.add_argument("instance")
    sa.add_argument("--policy-out", default=None,
                    help="write x, P, q, z_aff as JSON")

    sj = sub.add_parser("solve-adjustable",
                        help="fully adjustable value for an instance document")
    sj.add_argument("instance")
    sj.add_argument("--eps", type=float, default=1e-3)
    sj.add_argument("--engine", choices=("auto", "special", "oracle"),
                    default="auto",
                    help="auto: cutting plane; special: exact separation at "
                         "x=0 on enumerated vertices (needs A=0, c=0); "
                         "oracle: one LP over all vertices")
    sj.add_argument("--max-iters", type=int, default=100)
    sj.add_argument("--cuts-out", default=None)

    sw = sub.add_parser("sandwich",
                        help="simplex-sandwich report for an instance's B")
    sw.add_argument("instance")
    sw.add_argument("--b", type=float, default=None,
                    help="entry bound; defaults to the largest entry")
    sw.add_argument("--mu", type=float, default=None,
                    help="entry mean, enables the closed-form prediction")

    bo = sub.add_parser("bounds", help="closed-form ratio bounds")
    bo.add_argument("--dist", choices=("uniform", "bernoulli",
                                       "folded-normal"), default="uniform")
    bo.add_argument("--m", type=int, required=True)
    bo.add_argument("--n", type=int, default=None)
    bo.add_argument("--p", type=float, default=0.5)

    be = sub.add_parser("bench", help="ratio sweep over random instances")
    be.add_argument("--dist", choices=_DISTS, default="uniform")
    be.add_argument("--m", type=int, action="append", required=True,
                    help="repeatable")
    be.add_argument("--n", type=int, action="append", default=None,
                    help="repeatable, pairs with --m; defaults to n=m")
    be.add_argument("--count", type=int, default=20)
    be.add_argument("--p", type=float, default=0.5)
    be.add_argument("--time-limit", type=float, default=None)
    be.add_argument("--seed", type=int, default=None, help="seed base")
    be.add_argument("--jobs", type=int, default=1)
    be.add_argument("--out", default=None, help="CSV path; default stdout")

    wc = sub.add_parser("worst-case",
                        help="exact ratios for the structured hard family")
    wc.add_argument("--m", type=int, action="append", required=True,
                    help="repeatable")
    return p


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _cmd_generate(args) -> int:
    seed = _env_seed(0) if args.seed is None else args.seed
    n = args.m if args.n is None else args.n
    p = args.p if args.dist == "bernoulli" else None
    inst = generate_bench_instance(args.dist, args.m, n, seed, p)
    write_instance(inst, args.out)
    print(f"wrote {args.out}: dist={args.dist} m={inst.m} n={inst.n} "
          f"seed={seed}")
    return 0


def _cmd_solve_affine(args) -> int:
    inst = read_instance(args.instance)
    t0 = time.perf_counter()
    res = solve_affine(inst)
    t = time.perf_counter() - t0
    if res.status != "optimal":
        print(f"affine solve ended {res.status}", file=sys.stderr)
        return 2
    print(f"z_aff={res.objective!r} t_s={t:.3f}")
    if args.policy_out:
        _write_json(args.policy_out, {
            "z_aff": res.objective, "x": res.x.tolist(),
            "P": res.P.tolist(), "q": res.q.tolist()})
    return 0


def _cmd_solve_adjustable(args) -> int:
    inst = read_instance(args.instance)
    t0 = time.perf_counter()
    if args.engine == "oracle":
        z = solve_adjustable_vertex_oracle(inst)
        t = time.perf_counter() - t0
        print(f"z_ar={z!r} engine=oracle t_s={t:.3f}")
        return 0
    if args.engine == "special":
        if inst.uncertainty.is_hrep:
            inst = inst.with_uncertainty(enumerate_vertices(inst.uncertainty))
        z = adjustable_special_case(inst, eps=args.eps)
        t = time.perf_counter() - t0
        print(f"z_ar={z!r} engine=special t_s={t:.3f}")
        return 0
    res = solve_adjustable(inst, eps=args.eps, max_iters=args.max_iters)
    t = time.perf_counter() - t0
    print(f"z_ar={res.z_ar!r} engine=auto status={res.status} "
          f"iterations={res.iterations} cuts={len(res.cuts)} t_s={t:.3f}")
    if args.cuts_out:
        _write_json(args.cuts_out, {"cuts": [
            {"h": c.h.tolist(), "w": c.w.tolist(), "value": c.value}
            for c in res.cuts]})
    if res.status != "optimal":
        lo, hi = res.bracket
        print(f"bracket=[{lo!r}, {hi!r}]", file=sys.stderr)
        return 2
    return 0


def _cmd_sandwich(args) -> int:
    inst = read_instance(args.instance)
    rep = kappa_sandwich(inst.B, d_bar=inst.d_bar, b=args.b, mu=args.mu)
    pred = "nan" if math.isnan(rep.predicted_bound) else repr(
        rep.predicted_bound)
    print(f"kappa_emp={rep.kappa_emp!r} inner_radius={rep.inner_radius!r} "
          f"contains_S={str(rep.contains_S).lower()} "
          f"simplex_sum_max={rep.simplex_sum_max!r} "
          f"predicted_bound={pred} b={rep.b!r} "
          f"b_empirical={str(rep.b_empirical).lower()}")
    return 0


def _cmd_bounds(args) -> int:
    n = args.m if args.n is None else args.n
    if args.dist == "folded-normal":
        try:
            val = theorem2_bound(args.m, n)
            print(f"theorem2: ratio_bound={val!r} regime_valid=true")
        except ValueError as exc:
            print(f"theorem2: regime_valid=false ({exc})")
    else:
        spec = RandomSpec(args.dist,
                          args.p if args.dist == "bernoulli" else None)
        rep = theorem1_bound(spec.support_bound, spec.mu, args.m, n)
        print(f"theorem1: epsilon={rep.epsilon!r} tau={rep.tau!r} "
              f"ratio_bound={rep.ratio_bound!r} "
              f"regime_valid={str(rep.regime_valid).lower()}")
    print(f"worst_case_lower_bound={worstcase_lower_bound(args.m)!r}")
    return 0


def _cmd_bench(args) -> int:
    seed = _env_seed(0) if args.seed is None else args.seed
    config = BenchConfig(
        kind=args.dist, m_list=tuple(args.m),
        n_list=None if args.n is None else tuple(args.n),
        count=args.count, time_limit_s=args.time_limit,
        seed_base=seed, output_path=args.out,
        p=args.p if args.dist == "bernoulli" else None, jobs=args.jobs)
    rows, summaries = run_benchmark(config)
    if args.out is None:
        from .bench import format_csv
        sys.stdout.write(format_csv(rows, summaries))
    else:
        for s in summaries:
            print(f"m={s.m} completed={s.completed}/{s.total} "
                  f"r_avg={s.r_avg} r_max={s.r_max}")
    if any(r.status == "error" for r in rows):
        return 2
    return 0


def _cmd_worst_case(args) -> int:
    # rejects every m < 2 before the first solve
    bounds = [worstcase_lower_bound(m) for m in args.m]
    for m, bound in zip(args.m, bounds):
        inst = gen_worst_case(m)
        z_ar = solve_adjustable_vertex_oracle(inst)
        res = solve_affine(inst)
        ratio = res.objective / z_ar
        print(f"m={m} z_ar={z_ar!r} z_aff={res.objective!r} "
              f"ratio={ratio!r} lower_bound={bound!r}")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "solve-affine": _cmd_solve_affine,
    "solve-adjustable": _cmd_solve_adjustable,
    "sandwich": _cmd_sandwich,
    "bounds": _cmd_bounds,
    "bench": _cmd_bench,
    "worst-case": _cmd_worst_case,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError:
        return 1
    except SystemExit as exc:          # argparse --help
        return int(exc.code or 0)
    # InstanceError, InstanceFormatError, DimensionCapError and
    # json.JSONDecodeError are all ValueErrors
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LpError, MipError, SeparationError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
