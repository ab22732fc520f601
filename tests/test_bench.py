import re

import numpy as np
import pytest

from adjrobust import bench
from adjrobust.adjustable import adjustable_special_case
from adjrobust.affine import solve_affine
from adjrobust.bench import (CSV_HEADER, BenchConfig, _ratio, format_csv,
                             generate_bench_instance, run_benchmark,
                             write_csv)
from adjrobust.instances import budget_vertices

ROW_RE = re.compile(
    r"^\d+,\d+,\d+,[^,]*,[^,]*,[^,]*,\d+\.\d{3},\d+\.\d{3},(ok|timeout|error)$")
SUMMARY_RE = re.compile(
    r"^# m=\d+ n=\d+ completed=\d+/\d+ timeouts=\d+ errors=\d+ "
    r"r_avg=\S* r_max=\S* t_aff_avg=\S* t_ar_avg=\S*$")


def small_config(**kw):
    base = dict(kind="uniform", m_list=[2], count=3, eps=0.5)
    base.update(kw)
    return BenchConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="count must be >= 1"):
        BenchConfig(kind="uniform", m_list=[2], count=0)
    with pytest.raises(ValueError):
        BenchConfig(kind="uniform", m_list=[2], eps=0.0)
    with pytest.raises(ValueError):
        BenchConfig(kind="uniform", m_list=[2], jobs=0)
    with pytest.raises(ValueError):
        BenchConfig(kind="uniform", m_list=[2, 3], n_list=[2])
    with pytest.raises(Exception):
        BenchConfig(kind="no-such-kind", m_list=[2])
    # sizes below 1 and a time limit that is not positive are input
    # errors, on every kind, not rows that fail
    for kind in ("uniform", "worst-case-randomized"):
        with pytest.raises(ValueError, match="every m must be >= 1"):
            BenchConfig(kind=kind, m_list=[2, 0])
        with pytest.raises(ValueError, match="every m must be >= 1"):
            BenchConfig(kind=kind, m_list=[-1])
        with pytest.raises(ValueError, match="every n must be >= 1"):
            BenchConfig(kind=kind, m_list=[2, 3], n_list=[2, 0])
    # the worst-case family has n = m: another n is an input error, not
    # a row that silently solves n = m
    for kind in ("worst-case-deterministic", "worst-case-randomized"):
        with pytest.raises(ValueError, match="have n = m"):
            BenchConfig(kind=kind, m_list=[4], n_list=[2])
        assert BenchConfig(kind=kind, m_list=[4, 5],
                           n_list=[4, 5]).sizes() == [(4, 4), (5, 5)]
    for limit in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="time_limit_s must be positive"):
            BenchConfig(kind="uniform", m_list=[2], time_limit_s=limit)
    assert BenchConfig(kind="uniform", m_list=[1], n_list=[1],
                       time_limit_s=1e-12).time_limit_s == 1e-12
    # n defaults to m, explicit n_list pairs up
    assert small_config().sizes() == [(2, 2)]
    assert BenchConfig(kind="uniform", m_list=[2, 3],
                       n_list=[4, 5]).sizes() == [(2, 4), (3, 5)]


def test_generate_bench_instance_kinds():
    inst = generate_bench_instance("uniform", 3, 2, seed=0)
    assert inst.m == 3 and inst.n == 2
    assert not inst.A.any() and not inst.c.any()
    assert inst.uncertainty.is_hrep
    wc = generate_bench_instance("worst-case-deterministic", 4, 4, seed=0)
    assert not wc.uncertainty.is_hrep
    assert len(wc.uncertainty.vertices) == 2 * 4 + 1
    with pytest.raises(ValueError, match="have n = m"):
        generate_bench_instance("worst-case-randomized", 4, 2, seed=0)


def test_ratio_edge_cases():
    assert _ratio(0.0, 0.0) == 1.0
    assert _ratio(1.0, 0.0) == float("inf")
    assert _ratio(3.0, 2.0) == pytest.approx(1.5)


def test_run_benchmark_rows_and_ratios():
    rows, summaries = run_benchmark(small_config(count=4, seed_base=11))
    assert [r.seed for r in rows] == [11, 12, 13, 14]
    assert all(r.status == "ok" and r.error is None for r in rows)
    for r in rows:
        assert r.ratio >= 1.0 - 1e-6          # affine is never better than AR
        assert r.z_aff >= r.z_ar - 1e-9
    s, = summaries
    assert (s.total, s.completed, s.timeouts, s.errors) == (4, 4, 0, 0)
    assert s.r_max >= s.r_avg >= 1.0 - 1e-6


def test_rows_rederivable_from_seed():
    # a published row must be reproducible from its (kind, m, n, seed) alone
    rows, _ = run_benchmark(small_config(count=2, seed_base=5))
    for r in rows:
        inst = generate_bench_instance("uniform", r.m, r.n, r.seed)
        assert solve_affine(inst).objective == r.z_aff


def test_jobs_deterministic():
    def values(rows):
        return [(r.m, r.n, r.seed, r.z_aff, r.z_ar, r.ratio, r.status)
                for r in rows]
    rows1, _ = run_benchmark(small_config(count=4))
    rowsN, _ = run_benchmark(small_config(count=4, jobs=3))
    assert values(rows1) == values(rowsN)


def test_worst_case_kind_rows():
    cfg = BenchConfig(kind="worst-case-deterministic", m_list=[4], count=2)
    rows, _ = run_benchmark(cfg)
    for r in rows:
        assert r.z_ar == pytest.approx(1.0, abs=1e-5)
        assert r.z_aff == pytest.approx(8.0 / 7.0, abs=1e-6)


def test_csv_format():
    rows, summaries = run_benchmark(small_config())
    text = format_csv(rows, summaries)
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert text.endswith("\n") and "\r" not in text
    for ln in lines[1:1 + len(rows)]:
        assert ROW_RE.match(ln), ln
        cells = ln.split(",")
        # value cells round-trip through float exactly
        assert repr(float(cells[3])) == cells[3]
        assert repr(float(cells[5])) == cells[5]
    summary_lines = [ln for ln in lines if ln.startswith("#")]
    assert len(summary_lines) == 1
    assert SUMMARY_RE.match(summary_lines[0]), summary_lines[0]


def test_csv_timeout_masks_summary():
    rows, summaries = run_benchmark(small_config(count=2, time_limit_s=1e-12))
    assert all(r.status == "timeout" for r in rows)
    text = format_csv(rows, summaries)
    summary = [ln for ln in text.split("\n") if ln.startswith("#")][0]
    assert "r_avg=** r_max=**" in summary and "t_ar_avg=**" in summary
    # timed-out rows leave their value cells empty
    first = text.split("\n")[1]
    assert first.split(",")[3:6] == ["", "", ""]
    assert first.endswith("timeout")


def test_write_csv_file(tmp_path):
    rows, summaries = run_benchmark(small_config(count=2))
    path = tmp_path / "out.csv"
    write_csv(path, rows, summaries)
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.decode() == format_csv(rows, summaries)


def test_error_row_keeps_exception_text(monkeypatch):
    def boom(inst):
        raise ZeroDivisionError("pivot on zero")
    monkeypatch.setattr(bench, "solve_affine", boom)
    rows, summaries = run_benchmark(small_config(count=2))
    assert [(r.status, r.error) for r in rows] == [
        ("error", "ZeroDivisionError: pivot on zero")] * 2
    assert summaries[0].errors == 2
    # the CSV keeps its columns; the text is on the row object only
    text = format_csv(rows, summaries)
    assert text.split("\n")[0] == CSV_HEADER
    assert all(ROW_RE.match(ln) for ln in text.split("\n")[1:3])
    assert "pivot on zero" not in text


def test_the_budget_set_route_switches_at_the_break_even(monkeypatch):
    # up to VERTEX_ROUTE_MAX_M a row separates over the closed-form
    # vertices (the m=10 table among them); above it, over the HRep
    # budget set by the top-k MIP, to the vertex route's value
    seen = []

    def spy(inst, **kw):
        seen.append(inst.uncertainty.is_hrep)
        return adjustable_special_case(inst, **kw)

    monkeypatch.setattr(bench, "adjustable_special_case", spy)
    assert 10 <= bench.VERTEX_ROUTE_MAX_M < 13
    for m, hrep in ((10, False), (13, True)):
        seen.clear()
        (row,), _ = run_benchmark(BenchConfig(kind="uniform", m_list=[m],
                                              count=1, seed_base=3))
        assert row.status == "ok" and seen == [hrep]
        inst = generate_bench_instance("uniform", m, m, 3)
        vertex = adjustable_special_case(
            inst.with_uncertainty(budget_vertices(m)))
        assert row.z_ar == pytest.approx(vertex, rel=1e-9)
