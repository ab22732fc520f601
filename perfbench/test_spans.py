"""The benchmark's own checks of its tracer, on small instances.

    python3 -m pytest perfbench

Traced passes must return the same values as untraced ones, spans must
nest (children inside their parent's time), and every branch-and-bound
call must show at least one LP span per node.
"""

import pytest

import spans
import workloads
from adjrobust import adjustable, bench, lp, mip


def small_workloads():
    return [(workloads.TableM10(m=4), [0, 1]),
            (workloads.WorstCase(m=4), [0]),
            (workloads.CutLoopHRep(m=2), [0, 1])]


def traced_pass(wl, inputs):
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.pass_id = 0
        solves = wl.run_pass(inputs)
    finally:
        tracer.pass_id = None
        tracer.uninstall()
    return solves, tracer.spans


@pytest.fixture(scope="module", params=[0, 1, 2],
                ids=["table", "worstcase", "cutloop"])
def traced(request):
    wl, seeds = small_workloads()[request.param]
    inputs = wl.setup(seeds)
    plain = wl.run_pass(inputs)
    solves, recorded = traced_pass(wl, inputs)
    return wl, inputs, plain, solves, recorded


def test_traced_values_equal_untraced(traced):
    wl, inputs, plain, solves, _ = traced
    assert [(s.instance, s.route, s.value) for s in solves] == \
        [(s.instance, s.route, s.value) for s in plain]
    assert not [s for s in solves if s.error]
    assert wl.check(inputs, solves) == []


def test_children_fit_inside_parent(traced):
    recorded = traced[4]
    assert recorded
    kids = spans.child_seconds(recorded)
    for s in recorded:
        assert s.end >= s.start
        assert kids.get(s.id, 0.0) <= s.seconds + 1e-9, s.name


def test_mip_spans_have_an_lp_per_node(traced):
    recorded = traced[4]
    mips = [s for s in recorded if s.name == "mip.solve_mip"]
    if isinstance(traced[0], workloads.CutLoopHRep):
        assert mips
    for s in mips:
        lps = [c for c in recorded
               if c.parent == s.id and c.name == "lp.solve_lp"]
        assert len(lps) >= s.counts["nodes"] > 0


def test_layer_metrics_count_the_pass(traced):
    wl, _, _, solves, recorded = traced
    m = spans.layer_metrics(recorded)
    assert m["lp.calls"] == sum(s.name == "lp.solve_lp" for s in recorded)
    assert m["lp.pivots"] > 0
    assert m["adjustable.calls"] == len([s for s in solves
                                         if s.route == "ar"])
    assert m["lp.s"] >= sum(m[f"lp.s_by_parent.{p}"]
                            for p in spans.LP_PARENTS) - 1e-9
    assert m["adjustable.master_s"] <= m["lp.s_by_parent.adjustable"] + 1e-9
    if isinstance(wl, workloads.CutLoopHRep):
        assert m["adjustable.master_s"] > 0


def test_uninstall_restores_every_binding():
    before = (lp.solve_lp, mip.solve_lp, adjustable.solve_lp,
              adjustable.solve_mip, adjustable.separate, bench.solve_affine,
              bench.gen_iid, workloads.mixed_instance)
    tracer = spans.Tracer()
    tracer.install()
    assert adjustable.separate is not before[4]
    assert bench.solve_affine is not before[5]
    tracer.uninstall()
    after = (lp.solve_lp, mip.solve_lp, adjustable.solve_lp,
             adjustable.solve_mip, adjustable.separate, bench.solve_affine,
             bench.gen_iid, workloads.mixed_instance)
    assert after == before


def test_table_refuses_seeds_without_reference():
    wl = workloads.TableM10()
    last = max(wl.reference)
    assert wl.setup([last - 1, last]).seed_base == last - 1
    with pytest.raises(ValueError, match="reference values for seeds 0.."):
        wl.setup([last, last + 1])


def test_table_folds_any_seed_into_the_reference():
    wl = workloads.TableM10()
    n = len(wl.reference)
    assert wl.seeds(3, 30) == list(range(3, 33))
    for first in (n - 30, n - 29, 10**9 + 7, -5):
        seeds = wl.seeds(first, 30)
        assert len(seeds) == 30 and wl.setup(seeds).count == 30
    assert wl.seeds(n - 29, 30)[0] == 0
    assert wl.seeds(7, 30) == wl.seeds(7, 30)
    with pytest.raises(ValueError, match="fewer than --count"):
        wl.seeds(0, n + 1)


def test_failed_row_reports_its_exception(monkeypatch):
    def broken(inst, tol=1e-8):
        raise RuntimeError("boom")

    monkeypatch.setattr(bench, "solve_affine", broken)
    monkeypatch.setattr(workloads.affine, "solve_affine", broken)
    wl = workloads.TableM10(m=4)
    config = wl.setup([0])
    solves = wl.run_pass(config)
    fails = wl.check(config, solves)
    assert [(f.route, f.reason) for f in fails] == [
        ("aff", "row status error; RuntimeError: boom"),
        ("ar", "row status error; the row stopped at the other call; "
         "this one alone succeeds")]


def test_speed_sampler_restores_the_alarm_handler():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    kernel = speed.Kernel()
    sampler = speed.SpeedSampler(kernel)
    sampler.start()
    end = time.perf_counter() + 3 * speed.INTERVAL_S
    while time.perf_counter() < end:
        kernel.run()
    host = sampler.stop()
    assert len(sampler.samples) >= 4
    assert host > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
