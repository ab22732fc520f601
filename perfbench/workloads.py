"""The benchmark's three workloads: inputs, one timed pass, correctness gates.

A pass is closed loop: one solve after another, one thread.  Inputs come
only from the seed list (`Workload.seeds(first, count)`), so a run on
another seed list exercises the same code and must pass the same gates.

Every solve the pass attempts becomes a `Solve`.  `check` runs after the
timed region and returns one `Failure` per solve that raised, ended in a
non-optimal status or error row, or failed its correctness check.

All calls into the package go through module attributes
(`affine.solve_affine`, ...), so a tracer that rebinds those names sees
them.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from adjrobust import adjustable, affine, analysis, bench, instances

REFERENCE_M10 = Path(__file__).resolve().parent / "reference_m10.json"


@dataclass
class Solve:
    instance: str
    route: str                 # aff | ar
    value: float | None
    seconds: float
    error: str | None = None   # set when the call raised or ended non-optimal


@dataclass
class Failure:
    instance: str
    route: str
    reason: str

    def to_dict(self) -> dict:
        return {"instance": self.instance, "route": self.route,
                "reason": self.reason}


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _timed(instance: str, route: str, call) -> Solve:
    """Time one top-level call; `call` returns (value, error-or-None)."""
    t0 = time.perf_counter()
    try:
        value, error = call()
    except Exception as exc:  # a failed solve is recorded, never fatal
        return Solve(instance, route, None, time.perf_counter() - t0,
                     _describe(exc))
    return Solve(instance, route, value, time.perf_counter() - t0, error)


def _affine_value(inst):
    res = affine.solve_affine(inst)
    if res.status != "optimal":
        return None, f"solve_affine ended {res.status}"
    return float(res.objective), None


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


class Workload:
    """`setup(seeds)` builds the inputs before timing, `run_pass(inputs)`
    is the timed pass, `check(inputs, solves)` gates one pass's solves,
    and `gate_once()` returns (solves attempted, failures) of checks that
    run once per run."""

    name: str
    default_count: int

    def __init__(self):
        self._refs: dict[str, object] = {}

    def seeds(self, first: int, count: int) -> list[int]:
        """The pass's seed list for `--seed first`."""
        return list(range(first, first + count))

    def gate_once(self) -> tuple[int, list[Failure]]:
        return 0, []

    def _untimed(self, key: str, call):
        """An untimed cross-check route, run once per instance: its result,
        or the exception it raised."""
        if key not in self._refs:
            try:
                self._refs[key] = call()
            except Exception as exc:
                self._refs[key] = exc
        return self._refs[key]


def _split(solves: list[Solve]):
    """Failures of solves that raised or ended badly, values of the rest."""
    fails = [Failure(s.instance, s.route, s.error) for s in solves if s.error]
    values = {(s.instance, s.route): s.value for s in solves if not s.error}
    return fails, values


# ---------------------------------------------------------------------------
# table-m10: the paper's ratio table through run_benchmark


class TableM10(Workload):
    """`run_benchmark(BenchConfig(kind="uniform", m_list=[m], count=N))`.

    At m = 10 every row is compared with the values recorded in
    reference_m10.json for seeds 0 .. n-1.  `seeds` folds any `--seed`
    into that range (the window starts at `first mod (n - count + 1)`),
    and `setup` refuses a list that reaches past it.  Other m (quick
    tests) have no recorded values.
    """

    name = "table-m10"
    default_count = 30
    ref_tol = 1e-6

    def __init__(self, m: int = 10):
        super().__init__()
        self.m = m
        self.reference: dict[int, tuple[float, float] | None] | None = None
        if m == 10:
            with open(REFERENCE_M10, encoding="utf-8") as fh:
                rows = json.load(fh)["rows"]
            self.reference = {int(k): (v[0], v[1]) if v else None
                              for k, v in rows.items()}

    def setup(self, seeds: list[int]) -> bench.BenchConfig:
        if seeds != list(range(seeds[0], seeds[0] + len(seeds))):
            raise ValueError("table-m10 needs consecutive seeds")
        if self.reference is not None:
            missing = [s for s in seeds if s not in self.reference]
            if missing:
                raise ValueError(
                    f"table-m10 has reference values for seeds "
                    f"{min(self.reference)}..{max(self.reference)} only, "
                    f"not {missing[0]}..{missing[-1]}; record more with "
                    f"perfbench/make_reference.py")
        return bench.BenchConfig(kind="uniform", m_list=[self.m],
                                 count=len(seeds), seed_base=seeds[0], jobs=1)

    def seeds(self, first: int, count: int) -> list[int]:
        if self.reference is None:
            return super().seeds(first, count)
        windows = len(self.reference) - count + 1
        if windows < 1:
            raise ValueError(f"table-m10 has reference values for "
                             f"{len(self.reference)} seeds, fewer than "
                             f"--count {count}")
        return super().seeds(first % windows, count)

    def run_pass(self, config: bench.BenchConfig) -> list[Solve]:
        rows, _ = bench.run_benchmark(config)
        solves = []
        for r in rows:
            key = f"seed={r.seed}"
            bad = None if r.status == "ok" else f"row status {r.status}"
            solves.append(Solve(key, "aff", r.z_aff, r.t_aff_s, bad))
            solves.append(Solve(key, "ar", r.z_ar, r.t_ar_s, bad))
        return solves

    def _rerun(self, config: bench.BenchConfig, seed: int, verts) -> dict:
        """Repeat a failed row's calls outside timing to get the reason
        that `solve_bench_row` folds into a bare status."""
        reasons = {}
        try:
            inst = bench.generate_bench_instance(config.kind, self.m, self.m,
                                                 seed, config.p)
        except Exception as exc:
            return {"aff": _describe(exc), "ar": _describe(exc)}
        try:
            _, err = _affine_value(inst)
            if err:
                reasons["aff"] = err
        except Exception as exc:
            reasons["aff"] = _describe(exc)
        try:
            adjustable.adjustable_special_case(
                inst.with_uncertainty(verts), eps=config.eps)
        except Exception as exc:
            reasons["ar"] = _describe(exc)
        return reasons

    def check(self, config: bench.BenchConfig,
              solves: list[Solve]) -> list[Failure]:
        fails: list[Failure] = []
        by_key: dict[str, dict[str, Solve]] = {}
        for s in solves:
            by_key.setdefault(s.instance, {})[s.route] = s
        for key, pair in by_key.items():
            seed = int(key.split("=")[1])
            aff, ar = pair["aff"], pair["ar"]
            if aff.error or ar.error:
                verts = self._untimed("vertices", lambda: (
                    instances.enumerate_vertices(
                        instances.budget_set(self.m))))
                reasons = self._untimed(
                    key, lambda: self._rerun(config, seed, verts))
                for s in (aff, ar):
                    if s.error:
                        why = reasons.get(s.route, (
                            "the row stopped at the other call; "
                            "this one alone succeeds"))
                        fails.append(Failure(key, s.route,
                                             f"{s.error}; {why}"))
                continue
            if aff.value < ar.value - 1e-6:
                fails.append(Failure(key, "ar", f"z_aff {aff.value!r} < "
                                     f"z_ar {ar.value!r}"))
            if self.reference is None:
                continue
            ref = self.reference[seed]
            if ref is None:
                fails += [Failure(key, s.route, (
                    "row is ok now but failed when the reference was "
                    "recorded, so it has no value to compare"))
                    for s in (aff, ar)]
                continue
            for s, want in ((aff, ref[0]), (ar, ref[1])):
                if not _close(s.value, want, self.ref_tol):
                    fails.append(Failure(key, s.route, f"value {s.value!r} "
                                         f"differs from reference {want!r}"))
        return fails


# ---------------------------------------------------------------------------
# worstcase-m16: the structured family's large dense LPs


class WorstCase(Workload):
    """Timed `solve_affine` and `solve_adjustable_vertex_oracle` on
    `gen_worst_case(m, randomized=True, seed=s)`.

    The deterministic instance is gated on every run through its cheap
    routes (the cut loop for z_ar, the symmetric affine LP for z_aff).
    """

    name = "worstcase-m16"
    default_count = 12
    oracle_tol = 1e-3 + 1e-5      # criterion 4's cut-loop/oracle agreement

    def __init__(self, m: int = 16):
        super().__init__()
        self.m = m

    def setup(self, seeds: list[int]):
        return [(f"seed={s}", instances.gen_worst_case(self.m, randomized=True,
                                                       seed=s))
                for s in seeds]

    def run_pass(self, insts) -> list[Solve]:
        solves = []
        for key, inst in insts:
            solves.append(_timed(key, "aff", lambda: _affine_value(inst)))
            solves.append(_timed(key, "ar", lambda: (
                adjustable.solve_adjustable_vertex_oracle(inst), None)))
        return solves

    def check(self, insts, solves: list[Solve]) -> list[Failure]:
        fails, values = _split(solves)
        for key, inst in insts:
            aff, ar = values.get((key, "aff")), values.get((key, "ar"))
            if ar is not None:
                cut = self._untimed(
                    key, lambda: adjustable.solve_adjustable(inst))
                if isinstance(cut, Exception):
                    fails.append(Failure(key, "ar",
                                         f"cut loop: {_describe(cut)}"))
                elif (cut.status != "optimal"
                      or abs(cut.z_ar - ar) > self.oracle_tol):
                    fails.append(Failure(key, "ar", (
                        f"oracle {ar!r} vs cut loop {cut.z_ar!r} "
                        f"({cut.status})")))
            if aff is not None and ar is not None and aff < ar - 1e-6:
                fails.append(Failure(key, "aff",
                                     f"z_aff {aff!r} < z_ar {ar!r}"))
        return fails

    def gate_once(self) -> tuple[int, list[Failure]]:
        """z_ar = 1 and z_aff >= the family's lower bound on the
        deterministic instance, by its cheap routes: (solves, failures)."""
        key = "deterministic"
        fails = []
        inst = instances.gen_worst_case(self.m)
        try:
            z_ar = adjustable.solve_adjustable(inst).z_ar
            if abs(z_ar - 1.0) > 1e-5:
                fails.append(Failure(key, "ar", f"z_ar {z_ar!r} != 1"))
        except Exception as exc:
            fails.append(Failure(key, "ar", _describe(exc)))
        try:
            z_aff = affine.solve_affine_symmetric_worstcase(self.m)[0]
            bound = analysis.worstcase_lower_bound(self.m)
            if z_aff < bound - 1e-6:
                fails.append(Failure(key, "aff", (
                    f"z_aff {z_aff!r} < lower bound {bound!r}")))
        except Exception as exc:
            fails.append(Failure(key, "aff", _describe(exc)))
        return 2, fails


# ---------------------------------------------------------------------------
# cutloop-hrep: the digitized separation MIP inside the cut loop


def mixed_instance(m: int, n: int, seed: int) -> instances.Instance:
    """Random c, A, B over the HRep budget set (the unit tests' recipe)."""
    rng = np.random.default_rng(seed)
    return instances.Instance(
        m=m, n=n, c=0.2 * rng.random(n), A=0.3 * rng.random((m, n)),
        B=0.1 + rng.random((m, n)), d_bar=1.0,
        uncertainty=instances.budget_set(m), seed=seed)


class CutLoopHRep(Workload):
    """Timed `solve_affine` and `solve_adjustable(eps, mip_tol)` on
    `mixed_instance(m, m, s)`."""

    name = "cutloop-hrep"
    # Cut-loop times are heavy-tailed (median 0.8 s, a few 2-4 s), so the
    # pass time of a seed window varies with how many slow instances it
    # holds: resampled from 155 instances, 28 per pass spread 18% between
    # seeds (quartile distance over median), 40 per pass 15%.
    default_count = 40
    eps = 0.5
    mip_tol = 0.05

    def __init__(self, m: int = 2):
        super().__init__()
        self.m = m

    def setup(self, seeds: list[int]):
        return [(f"seed={s}", mixed_instance(self.m, self.m, s))
                for s in seeds]

    def _adjustable_value(self, inst):
        res = adjustable.solve_adjustable(inst, eps=self.eps,
                                          mip_tol=self.mip_tol)
        if res.status != "optimal":
            return res.z_ar, f"solve_adjustable ended {res.status}"
        return float(res.z_ar), None

    def run_pass(self, insts) -> list[Solve]:
        solves = []
        for key, inst in insts:
            solves.append(_timed(key, "aff", lambda: _affine_value(inst)))
            solves.append(_timed(key, "ar",
                                 lambda: self._adjustable_value(inst)))
        return solves

    def check(self, insts, solves: list[Solve]) -> list[Failure]:
        fails, values = _split(solves)
        for key, inst in insts:
            oracle = self._untimed(
                key, lambda: adjustable.solve_adjustable_vertex_oracle(inst))
            if isinstance(oracle, Exception):
                fails.append(Failure(key, "ar",
                                     f"oracle: {_describe(oracle)}"))
                continue
            slack = (adjustable.Digitization.from_instance(inst, self.eps)
                     .eps_total + 10 * self.mip_tol)
            ar = values.get((key, "ar"))
            if ar is not None and not (oracle - slack - 1e-7 <= ar
                                       <= oracle + 1e-7):
                fails.append(Failure(key, "ar", (
                    f"z_ar {ar!r} outside [oracle - {slack:g}, oracle] "
                    f"with oracle {oracle!r}")))
            aff = values.get((key, "aff"))
            if aff is not None and aff < oracle - 1e-7:
                fails.append(Failure(key, "aff",
                                     f"z_aff {aff!r} < oracle {oracle!r}"))
        return fails


WORKLOADS = {w.name: w for w in (TableM10, WorstCase, CutLoopHRep)}
