"""Benchmark sweeps over random instance families.

Each row generates one instance from (kind, m, n, seed), times the
affine solve and the fully adjustable solve, and records the ratio.
The adjustable side exploits that every generated family has A = 0 and
c = 0: the value comes from a single exact separation at x = 0.  On the
budget set that separation searches the set's vertices, written down
once per m in closed form, up to m = VERTEX_ROUTE_MAX_M, and solves the
top-k MIP on the HRep set above it.
Failures and timeouts mark the row and never abort the sweep; an
error row keeps its exception as "Type: message" in `BenchRow.error`.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .adjustable import adjustable_special_case
from .affine import solve_affine
from .instances import (Instance, RandomSpec, UncertaintySet,
                        budget_vertices, gen_iid, gen_worst_case)

CSV_HEADER = "m,n,seed,z_aff,z_ar,ratio,t_aff_s,t_ar_s,status"

_WORST = ("worst-case-deterministic", "worst-case-randomized")

# Largest m whose budget-set rows separate over the closed-form vertices;
# larger m solve the top-k MIP (adjustable.TopK).  Measured per row on
# seeds 0-9, best of 3 (2 vCPU, one BLAS thread), vertex route against
# top-k MIP: uniform m=10 6.1 vs 6.7 ms, m=11 11.7 vs 9.1 ms, m=12 17.0
# vs 11.4 ms, m=13 27.0 vs 11.1 ms; folded-normal m=10 3.4 vs 5.9 ms,
# m=11 5.8 vs 6.7 ms, m=12 23.9 vs 15.5 ms, m=13 30.1 vs 12.2 ms; the
# values agree to 5.3e-16 relative.
VERTEX_ROUTE_MAX_M = 11


@dataclass(frozen=True)
class BenchConfig:
    kind: str
    m_list: tuple[int, ...]
    n_list: tuple[int, ...] | None = None   # None means n = m
    count: int = 20
    eps: float = 1e-3
    time_limit_s: float | None = None
    seed_base: int = 0
    output_path: str | None = None
    p: float | None = None                  # bernoulli parameter
    jobs: int = 1

    def __post_init__(self):
        object.__setattr__(self, "m_list", tuple(int(m) for m in self.m_list))
        if self.n_list is not None:
            if len(self.n_list) != len(self.m_list):
                raise ValueError("n_list length must match m_list")
            object.__setattr__(self, "n_list",
                               tuple(int(n) for n in self.n_list))
        if min(self.m_list, default=1) < 1:
            raise ValueError("every m must be >= 1")
        if min(self.n_list or (1,)) < 1:
            raise ValueError("every n must be >= 1")
        if self.kind in _WORST and self.n_list not in (None, self.m_list):
            raise ValueError(f"{self.kind} instances have n = m, got "
                             f"n_list {list(self.n_list)}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.time_limit_s is not None and not self.time_limit_s > 0:
            raise ValueError("time_limit_s must be positive")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        RandomSpec(self.kind, self.p)  # validates the kind/p pairing

    def sizes(self) -> list[tuple[int, int]]:
        if self.n_list is None:
            return [(m, m) for m in self.m_list]
        return list(zip(self.m_list, self.n_list))


@dataclass
class BenchRow:
    m: int
    n: int
    seed: int
    z_aff: float | None
    z_ar: float | None
    ratio: float | None
    t_aff_s: float
    t_ar_s: float
    status: str                              # ok | timeout | error
    error: str | None = None                 # "Type: message" of an error


@dataclass
class BenchSummary:
    m: int
    n: int
    total: int
    completed: int
    timeouts: int
    errors: int
    r_avg: float | None
    r_max: float | None
    t_aff_avg: float | None
    t_ar_avg: float | None


def generate_bench_instance(kind: str, m: int, n: int, seed: int,
                            p: float | None = None) -> Instance:
    """The instance of one benchmark row; the worst-case kinds have
    n = m, and another n raises ValueError."""
    if kind in _WORST:
        if n != m:
            raise ValueError(f"{kind} instances have n = m, got n={n}")
        return gen_worst_case(m, randomized=kind.endswith("randomized"),
                              seed=seed)
    return gen_iid(m, n, RandomSpec(kind, p), seed)


def _ratio(z_aff: float, z_ar: float) -> float:
    if abs(z_ar) <= 1e-12:
        return 1.0 if abs(z_aff) <= 1e-12 else float("inf")
    return z_aff / z_ar


def solve_bench_row(config: BenchConfig, m: int, n: int, seed: int,
                    vertices: UncertaintySet | None) -> BenchRow:
    """One benchmark row; `vertices` carries the per-m budget vertex
    cache, or None where the row separates on its own uncertainty set."""
    limit = config.time_limit_s
    z_aff = z_ar = ratio = None
    t_aff = t_ar = 0.0
    status, error = "ok", None
    try:
        inst = generate_bench_instance(config.kind, m, n, seed, config.p)

        t0 = time.perf_counter()
        aff = solve_affine(inst)
        t_aff = time.perf_counter() - t0
        if aff.status != "optimal":
            raise RuntimeError(f"affine solve ended {aff.status}")
        z_aff = float(aff.objective)
        if limit is not None and t_aff > limit:
            return BenchRow(m, n, seed, None, None, None, t_aff, 0.0,
                            "timeout")

        if vertices is not None:
            inst = inst.with_uncertainty(vertices)
        t0 = time.perf_counter()
        z_ar = float(adjustable_special_case(inst, eps=config.eps))
        t_ar = time.perf_counter() - t0
        if limit is not None and t_ar > limit:
            return BenchRow(m, n, seed, z_aff, None, None, t_aff, t_ar,
                            "timeout")
        ratio = _ratio(z_aff, z_ar)
    except Exception as exc:
        status, error = "error", f"{type(exc).__name__}: {exc}"
    return BenchRow(m, n, seed, z_aff, z_ar, ratio, t_aff, t_ar, status,
                    error)


def run_benchmark(config: BenchConfig) -> tuple[list[BenchRow],
                                                list[BenchSummary]]:
    """All rows of the sweep plus one summary per problem size.

    Rows are generated from seed_base + index within each size, solved
    (in parallel when jobs > 1), and written to config.output_path when
    set.  Summaries aggregate completed rows only.
    """
    rows: list[BenchRow] = []
    summaries: list[BenchSummary] = []
    for m, n in config.sizes():
        verts = None
        if config.kind not in _WORST and m <= VERTEX_ROUTE_MAX_M:
            verts = budget_vertices(m)
        seeds = [config.seed_base + i for i in range(config.count)]
        if config.jobs > 1:
            with ThreadPoolExecutor(max_workers=config.jobs) as pool:
                block = list(pool.map(
                    lambda s: solve_bench_row(config, m, n, s, verts), seeds))
        else:
            block = [solve_bench_row(config, m, n, s, verts) for s in seeds]
        rows.extend(block)
        summaries.append(_summarize(m, n, block))
    if config.output_path:
        write_csv(config.output_path, rows, summaries)
    return rows, summaries


def _summarize(m: int, n: int, block: list[BenchRow]) -> BenchSummary:
    done = [r for r in block if r.status == "ok" and r.ratio is not None]
    timeouts = sum(r.status == "timeout" for r in block)
    errors = sum(r.status == "error" for r in block)
    ratios = [r.ratio for r in done]
    return BenchSummary(
        m=m, n=n, total=len(block), completed=len(done),
        timeouts=timeouts, errors=errors,
        r_avg=float(np.mean(ratios)) if ratios else None,
        r_max=float(np.max(ratios)) if ratios else None,
        t_aff_avg=float(np.mean([r.t_aff_s for r in done])) if done else None,
        t_ar_avg=float(np.mean([r.t_ar_s for r in done])) if done else None)


def _cell(value) -> str:
    return "" if value is None else repr(float(value))


def format_csv(rows: list[BenchRow], summaries: list[BenchSummary]) -> str:
    """Rows under the fixed header, then '#'-prefixed summary lines.

    Ratio cells in a summary print '**' when any row of that size timed
    out, mirroring how the reference tables mark incomplete sweeps.
    """
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.m},{r.n},{r.seed},{_cell(r.z_aff)},{_cell(r.z_ar)},"
                     f"{_cell(r.ratio)},{r.t_aff_s:.3f},{r.t_ar_s:.3f},"
                     f"{r.status}")
    for s in summaries:
        if s.timeouts:
            r_avg = r_max = t_ar = "**"
        else:
            r_avg = "" if s.r_avg is None else f"{s.r_avg:.2f}"
            r_max = "" if s.r_max is None else f"{s.r_max:.2f}"
            t_ar = "" if s.t_ar_avg is None else f"{s.t_ar_avg:.3f}"
        t_aff = "" if s.t_aff_avg is None else f"{s.t_aff_avg:.3f}"
        lines.append(f"# m={s.m} n={s.n} completed={s.completed}/{s.total} "
                     f"timeouts={s.timeouts} errors={s.errors} "
                     f"r_avg={r_avg} r_max={r_max} "
                     f"t_aff_avg={t_aff} t_ar_avg={t_ar}")
    return "\n".join(lines) + "\n"


def write_csv(path, rows: list[BenchRow],
              summaries: list[BenchSummary]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_csv(rows, summaries))
