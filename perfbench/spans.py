"""Spans around the package's layer boundaries, recorded from outside.

`Tracer.install()` rebinds the traced functions in every module of the
package that holds them by name (a module that did `from .lp import
solve_lp` has its own binding, so each binding is replaced), and
`uninstall()` restores the originals.  No file of the package changes.

A span records its name, start, end, parent span id and pass id, plus a
few counts read off the call's arguments or result (LP pivots and shape,
B&B nodes, cut-loop iterations and cuts, vertex counts).  Spans stay in
memory until the run writes them out.  Calls made while no pass is
active (`pass_id is None`) are not recorded.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field

# module that defines the function -> traced function names
TRACED = {
    "lp": ("solve_lp",),
    "mip": ("solve_mip",),
    "affine": ("solve_affine",),
    "adjustable": ("solve_adjustable", "adjustable_special_case", "separate",
                   "build_separation_mip", "_solve_master",
                   "solve_adjustable_vertex_oracle"),
    "instances": ("enumerate_vertices", "gen_iid", "gen_worst_case"),
    "bench": ("run_benchmark",),
}
MODULES = ("lp", "mip", "affine", "adjustable", "analysis", "instances",
           "bench", "cli")
# generators of the benchmark's own inputs: (module, function, span name)
OUTSIDE = (("workloads", "mixed_instance", "instances.generate"),)


def _lp_counts(args, kwargs, result) -> dict:
    lp = args[0] if args else kwargs["lp"]
    return {"pivots": result.iterations,
            "cells": lp.num_rows * lp.num_vars}


def _iterations(args, kwargs, result) -> dict:
    return {"pivots": result.iterations}


def _adjustable_counts(args, kwargs, result) -> dict:
    return {"iterations": result.iterations, "cuts": len(result.cuts)}


def _vertices(args, kwargs, result) -> dict:
    return {"vertices": len(result.vertices)}


def _rows(args, kwargs, result) -> dict:
    return {"rows": len(result[0])}


def _nodes(args, kwargs, result) -> dict:
    return {"nodes": result.nodes}


COUNTS = {
    "lp.solve_lp": _lp_counts,
    "mip.solve_mip": _nodes,
    "affine.solve_affine": _iterations,
    "adjustable.solve_adjustable": _adjustable_counts,
    "instances.enumerate_vertices": _vertices,
    "bench.run_benchmark": _rows,
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int | str
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "pass": self.pass_id,
                **self.counts}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id: int | str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counts = COUNTS.get(name)

        def traced(*args, **kwargs):
            if self.pass_id is None:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(sid, name, time.perf_counter(), 0.0, parent,
                        self.pass_id)
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind TRACED in the package and OUTSIDE in the benchmark."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, fname, name in OUTSIDE:
            mod = importlib.import_module(modname)
            self._saved.append((mod, fname, getattr(mod, fname)))
            setattr(mod, fname, self._wrap(name, getattr(mod, fname)))
        package = importlib.import_module("adjrobust")
        mods = [package] + [importlib.import_module(f"adjrobust.{m}")
                            for m in MODULES]
        for home, names in TRACED.items():
            defining = importlib.import_module(f"adjrobust.{home}")
            for fname in names:
                original = getattr(defining, fname)
                wrapper = self._wrap(f"{home}.{fname}", original)
                for mod in mods:
                    if getattr(mod, fname, None) is original:
                        self._saved.append((mod, fname, original))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved.clear()

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics of one pass


def child_seconds(spans: list[Span]) -> dict[int, float]:
    out: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            out[s.parent] = out.get(s.parent, 0.0) + s.seconds
    return out


# `analysis` is not a parent: no workload calls it
LP_PARENTS = ("affine", "mip", "adjustable", "instances")


def layer_metrics(spans: list[Span], speed: float = 1.0) -> dict[str, float]:
    """Per-layer numbers of one pass; ratios with a zero base read 0.
    Times are multiplied by `speed`, the host's speed during the pass
    relative to the reference host (see speed.py)."""
    by_id = {s.id: s for s in spans}
    kids = child_seconds(spans)

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(ss):
        return sum(s.seconds for s in ss)

    def self_s(ss):
        return sum(s.seconds - kids.get(s.id, 0.0) for s in ss)

    def ratio(a, b):
        return a / b if b else 0.0

    def parent_name(s):
        return by_id[s.parent].name if s.parent is not None else ""

    def count(ss, key):
        return sum(s.counts.get(key, 0) for s in ss)

    lps = named("lp.solve_lp")
    lp_s = total(lps)
    pivots = count(lps, "pivots")
    mips = named("mip.solve_mip")
    nodes = count(mips, "nodes")
    node_lps = [s for s in lps if parent_name(s) == "mip.solve_mip"]
    affs = named("affine.solve_affine")
    loops = named("adjustable.solve_adjustable")
    adj = named("adjustable.solve_adjustable",
                "adjustable.adjustable_special_case",
                "adjustable.solve_adjustable_vertex_oracle")
    seps = named("adjustable.separate")
    benches = named("bench.run_benchmark")
    enums = named("instances.enumerate_vertices")

    m = {
        "instances.enumerate_s": total(enums),
        "instances.vertices": count(enums, "vertices"),
        "instances.generate_s": total(named("instances.gen_iid",
                                            "instances.gen_worst_case",
                                            "instances.generate")),
        "lp.calls": len(lps),
        "lp.s": lp_s,
        "lp.ms_per_call": 1e3 * ratio(lp_s, len(lps)),
        "lp.pivots": pivots,
        "lp.us_per_pivot": 1e6 * ratio(lp_s, pivots),
        "lp.cells_max": max((s.counts.get("cells", 0) for s in lps),
                            default=0),
    }
    for mod in LP_PARENTS:
        m[f"lp.s_by_parent.{mod}"] = total(
            s for s in lps if parent_name(s).split(".")[0] == mod)
    m.update({
        "mip.calls": len(mips),
        "mip.s": total(mips),
        "mip.self_s": self_s(mips),
        "mip.nodes": nodes,
        "mip.lp_per_node": ratio(len(node_lps), nodes),
        "mip.pivots_per_node": ratio(count(node_lps, "pivots"), nodes),
        "affine.calls": len(affs),
        "affine.s": total(affs),
        "affine.self_s": self_s(affs),
        "affine.pivots": count(affs, "pivots"),
        "adjustable.calls": len(adj),
        "adjustable.s": total(adj),
        "adjustable.iterations": count(loops, "iterations"),
        "adjustable.cuts": count(loops, "cuts"),
        "adjustable.separate_calls": len(seps),
        "adjustable.separate_s": total(seps),
        "adjustable.master_s": total(
            s for s in lps if parent_name(s) == "adjustable._solve_master"),
        "adjustable.build_mip_s": total(
            named("adjustable.build_separation_mip")),
        "adjustable.oracle_s": total(
            named("adjustable.solve_adjustable_vertex_oracle")),
        "bench.rows": count(benches, "rows"),
        "bench.self_s": self_s(benches),
    })
    return {name: v * speed if unit_of(name) in ("s", "ms", "us") else v
            for name, v in m.items()}


def unit_of(name: str) -> str:
    if name == "lp.cells_max":
        return "cells-computed"
    if name == "lp.ms_per_call":
        return "ms"
    if name == "lp.us_per_pivot":
        return "us"
    if name == "trace.overhead_frac" or name.endswith("_per_node"):
        return "ratio"
    if name.endswith(("_s", ".s")) or name.startswith("lp.s_by_parent."):
        return "s"
    return "count"
