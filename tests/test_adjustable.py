import os
from dataclasses import replace

import numpy as np
import pytest

from adjrobust import adjustable
from adjrobust.adjustable import (Digitization, SeparationError, TopK,
                                  _separate_vrep, adjustable_special_case,
                                  build_separation_mip, separate,
                                  solve_adjustable,
                                  solve_adjustable_vertex_oracle)
from adjrobust.instances import (Instance, InstanceError, RandomSpec,
                                 UnboundedSetError, UncertaintySet,
                                 budget_set, budget_vertices,
                                 enumerate_vertices, gen_iid, gen_worst_case)
from adjrobust.lp import LE, LinearProgram, solve_lp
from adjrobust.mip import solve_mip

SQRT2 = float(np.sqrt(2.0))


def box_instance():
    """m = n = 1, B = [1], U = [0, 1]: max h*w = 1 at the corner."""
    uset = UncertaintySet.hrep(np.array([[1.0]]), np.array([1.0]))
    return Instance(m=1, n=1, c=np.zeros(1), A=np.zeros((1, 1)),
                    B=np.array([[1.0]]), d_bar=1.0, uncertainty=uset, seed=0)


def identity_instance(m=2):
    return Instance(m=m, n=m, c=np.zeros(m), A=np.zeros((m, m)),
                    B=np.eye(m), d_bar=1.0, uncertainty=budget_set(m), seed=0)


def mixed_instance(m, n, seed, vrep=False):
    rng = np.random.default_rng(seed)
    uset = enumerate_vertices(budget_set(m)) if vrep else budget_set(m)
    return Instance(m=m, n=n, c=0.2 * rng.random(n), A=0.3 * rng.random((m, n)),
                    B=0.1 + rng.random((m, n)), d_bar=1.0,
                    uncertainty=uset, seed=seed)


# ---------------------------------------------------------------------------
# digitization bookkeeping


def test_digitization_fields():
    dig = Digitization.from_instance(identity_instance(), 0.01)
    # caps are 1 on both sides, so both exponents collapse to zero
    assert dig.delta_u == 0 and dig.delta_w == 0
    # 2^-s * m * (1 + 2^du) <= eps
    assert 2.0 ** (-dig.s) * 2 * 2 <= 0.01 + 1e-15
    assert 2.0 ** (-(dig.s - 1)) * 2 * 2 > 0.01
    assert dig.eps_total == pytest.approx(0.01 * 2)
    assert dig.bits_u == dig.s + 1
    # only h is digitized
    assert dig.binaries(2) == 2 * dig.bits_u


def test_digitization_rejects_bad_eps():
    with pytest.raises(ValueError):
        Digitization.from_instance(box_instance(), 0.0)


def test_unbounded_set_is_a_typed_error():
    # h_2 has no cap on {h >= 0 : h_1 <= 1}, so no bit layout exists
    loose = UncertaintySet.hrep([[1.0, 0.0]], [1.0])
    inst = Instance(m=2, n=1, c=np.zeros(1), A=np.zeros((2, 1)),
                    B=np.ones((2, 1)), d_bar=1.0, uncertainty=loose, seed=0)
    for solve in (solve_adjustable, adjustable_special_case):
        with pytest.raises(UnboundedSetError, match="coordinate 1"):
            solve(inst)


def test_digitization_unbounded_w():
    inst = Instance(m=2, n=1, c=np.zeros(1), A=np.zeros((2, 1)),
                    B=np.array([[1.0], [0.0]]), d_bar=1.0,
                    uncertainty=budget_set(2), seed=0)
    with pytest.raises(SeparationError):
        Digitization.from_instance(inst, 0.1)


def test_dualized_set():
    # the caps of W = {w >= 0 : B^T w <= d_bar e} in closed form agree
    # with one LP per coordinate
    inst = replace(mixed_instance(3, 2, seed=0), d_bar=0.7)
    ref = [solve_lp(LinearProgram.from_arrays("max", np.eye(3)[i], inst.B.T,
                                              ["<="] * 2, np.full(2, 0.7))
                    ).objective for i in range(3)]
    np.testing.assert_allclose(adjustable._w_caps(inst), ref, rtol=1e-9)
    # a zero row of B leaves W unbounded
    bad = Instance(m=2, n=1, c=np.zeros(1), A=np.zeros((2, 1)),
                   B=np.array([[1.0], [0.0]]), d_bar=1.0,
                   uncertainty=budget_set(2))
    with pytest.raises(SeparationError, match="W is unbounded"):
        adjustable._w_caps(bad)


# ---------------------------------------------------------------------------
# separation MIP


def test_separation_zero_set():
    # U = {0}: the only demand is zero, nothing to separate
    uset = UncertaintySet.hrep(np.eye(2), np.zeros(2))
    inst = Instance(m=2, n=2, c=np.zeros(2), A=np.zeros((2, 2)), B=np.eye(2),
                    d_bar=1.0, uncertainty=uset, seed=0)
    dig = Digitization.from_instance(inst, 0.1)
    prob = build_separation_mip(inst, np.zeros(2), dig)
    sol = solve_mip(prob, mip_tol=1e-6)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    h, _, _ = adjustable._recover_pair(inst, np.zeros(2), sol.x, dig)
    np.testing.assert_allclose(h, 0.0, atol=1e-9)


def test_separation_box_corner():
    inst = box_instance()
    dig = Digitization.from_instance(inst, 0.02)
    h, w, val = separate(inst, np.zeros(1), -np.inf, dig, mip_tol=5e-3)
    assert abs(val - 1.0) <= dig.eps_total + 5e-3
    assert val <= 1.0 + 5e-3 + 1e-9       # digitized points are feasible
    assert h[0] == pytest.approx(1.0, abs=dig.eps_total)
    assert w[0] == pytest.approx(1.0, abs=dig.eps_total)


def test_separation_identity_budget():
    inst = identity_instance()
    dig = Digitization.from_instance(inst, 0.25)
    h, w, val = separate(inst, np.zeros(2), -np.inf, dig, mip_tol=0.1)
    assert abs(val - SQRT2) <= dig.eps_total + 0.1
    assert val <= SQRT2 + 0.1 + 1e-9


def test_separation_returns_feasible_pair():
    inst = mixed_instance(2, 2, seed=3)
    dig = Digitization.from_instance(inst, 0.25)
    x_hat = np.full(2, 0.2)
    h, w, val = separate(inst, x_hat, -np.inf, dig, mip_tol=0.05)
    R, r = inst.uncertainty.R, inst.uncertainty.r
    assert (h >= -1e-9).all() and (w >= -1e-9).all()
    assert (R @ h <= r + 1e-8).all()
    assert (inst.B.T @ w <= inst.d_bar + 1e-8).all()
    # the reported value is the exact bilinear value of the returned pair
    assert val == pytest.approx(float((h - inst.A @ x_hat) @ w), abs=1e-12)


def test_separation_no_violation():
    inst = box_instance()
    dig = Digitization.from_instance(inst, 0.02)
    assert separate(inst, np.zeros(1), 1.01, dig, mip_tol=5e-3) is None


def test_separation_budget_guard():
    inst = identity_instance(3)
    dig = Digitization.from_instance(inst, 1e-30)
    assert dig.binaries(3) > adjustable.BINARY_BUDGET
    with pytest.raises(SeparationError, match="relax epsilon"):
        build_separation_mip(inst, np.zeros(3), dig)


def test_separation_mip_one_sided_bound_and_size():
    # per m: the digitization epsilon; mip_tol is a quarter of it
    plan = {2: 0.1, 3: 0.25, 4: 0.5}
    rng = np.random.default_rng(5)
    for m, eps in plan.items():
        for seed in range(10):
            if seed % 2:
                inst = gen_iid(m, m, RandomSpec("uniform"), 2000 + seed)
                x_hat = np.zeros(m)
            else:
                inst = mixed_instance(m, m, seed)
                x_hat = 0.3 * rng.random(m)
            dig = Digitization.from_instance(inst, eps)
            prob = build_separation_mip(inst, x_hat, dig)
            # w, the h bits and one continuous product per bit, two rows
            # each; h is no column, and every row is <=
            k = m * dig.bits_u
            assert len(prob.binary_vars) == dig.binaries(m) == k
            assert prob.lp.num_vars == m + 2 * k
            assert (prob.lp.rel == LE).all()
            prods = prob.lp.A[:, m + k:]
            assert ((prods != 0).sum(axis=0) == 2).all()

            tol = eps / 4
            sol = solve_mip(prob, mip_tol=tol)
            assert sol.status == "optimal"
            UV = enumerate_vertices(inst.uncertainty).vertices
            W = UncertaintySet.hrep(inst.B.T, np.full(inst.n, inst.d_bar))
            WV = enumerate_vertices(W).vertices
            true = float(((UV - inst.A @ x_hat) @ WV.T).max())
            under = m * 2.0 ** (dig.delta_w - dig.s)
            assert true - (under + tol) - 1e-9 <= sol.objective
            assert sol.objective <= true + tol + 1e-9
            # the h decoded from the bits lies in U
            h, _, _ = adjustable._recover_pair(inst, x_hat, sol.x, dig)
            R, r = inst.uncertainty.R, inst.uncertainty.r
            assert (h >= 0).all() and (R @ h <= r + 1e-9).all()


def test_separation_needs_hrep():
    inst = mixed_instance(2, 2, seed=0, vrep=True)
    dig = Digitization(epsilon=0.1, s=4, delta_u=0, delta_w=0)
    with pytest.raises(InstanceError):
        build_separation_mip(inst, np.zeros(2), dig)


# ---------------------------------------------------------------------------
# top-k separation on the budget set


def test_topk_route_recognizes_the_budget_set_only():
    for m, k in ((1, 1), (2, 1), (4, 2), (10, 3), (16, 4)):
        topk = TopK.of(budget_set(m))
        assert (topk.k, topk.theta) == (k, np.sqrt(m) - k)
        assert len(topk.sets) == (1 if m in (1, 4, 16) else 2)
    # a budget of another size, a reordered R and a VRep set are not it
    R, r = budget_set(3).R, budget_set(3).r
    assert TopK.of(UncertaintySet.hrep(R, r * 0.99)) is None
    assert TopK.of(UncertaintySet.hrep(R[::-1], r[::-1])) is None
    assert TopK.of(enumerate_vertices(budget_set(3))) is None
    inst = mixed_instance(3, 3, seed=0)
    assert isinstance(adjustable._route(inst, 0.1), TopK)
    other = replace(inst, uncertainty=UncertaintySet.hrep(R, r * 0.99))
    assert isinstance(adjustable._route(other, 0.1), Digitization)


def _topk_cases():
    """(instance, x_hat) on budget sets, with A = 0 at x = 0 and with a
    first stage that makes some objective coefficients negative."""
    rng = np.random.default_rng(11)
    for m in (1, 2, 3, 4, 5, 7, 9):
        yield gen_iid(m, m, RandomSpec("uniform"), 40 + m), np.zeros(m)
        yield mixed_instance(m, m, seed=m), 2.0 * rng.random(m)


def test_topk_separation_returns_an_exact_feasible_pair():
    for inst, x_hat in _topk_cases():
        topk = TopK.of(inst.uncertainty)
        h, w, val = separate(inst, x_hat, -np.inf, topk, mip_tol=1e-9)
        R, r = inst.uncertainty.R, inst.uncertainty.r
        assert (h >= 0).all() and (R @ h <= r + 1e-12).all()
        assert (w >= -1e-12).all()
        assert (inst.B.T @ w <= inst.d_bar + 1e-9).all()
        assert val == float((h - inst.A @ x_hat) @ w)
        want = _separate_vrep(
            inst.with_uncertainty(budget_vertices(inst.m)), x_hat)[2]
        assert val == pytest.approx(want, rel=1e-9, abs=1e-12)


def _special_case_pairs(m, kind, seeds):
    verts = budget_vertices(m)
    for seed in seeds:
        inst = gen_iid(m, m, RandomSpec(kind), seed)
        topk = adjustable_special_case(inst, mip_tol=1e-9)
        vertex = adjustable_special_case(inst.with_uncertainty(verts))
        yield seed, topk, vertex


@pytest.mark.parametrize("m", [10, 13, 16])
@pytest.mark.parametrize("kind", ["uniform", "folded-normal"])
def test_topk_route_matches_the_vertex_route(m, kind):
    for seed, topk, vertex in _special_case_pairs(m, kind, range(20)):
        assert topk == pytest.approx(vertex, rel=1e-9), seed


@pytest.mark.skipif(not os.environ.get("ADJROBUST_SLOW"),
                    reason="about 2 min; set ADJROBUST_SLOW=1 to run")
@pytest.mark.parametrize("kind", ["uniform", "folded-normal"])
def test_topk_route_matches_the_vertex_route_at_m20(kind):
    for seed, topk, vertex in _special_case_pairs(20, kind, range(20)):
        assert topk == pytest.approx(vertex, rel=1e-9), seed


def test_topk_cut_loops_match_the_oracle():
    # criterion 4's sizes on the HRep budget set, with A = 0 (criterion
    # 4's instances) and with a first stage
    sizes = [3] * 17 + [4] * 17 + [5] * 16
    for i, m in enumerate(sizes):
        for inst in (gen_iid(m, m, RandomSpec("uniform"), seed=i),
                     mixed_instance(m, m, seed=i)):
            res = solve_adjustable(inst, mip_tol=1e-7)
            assert res.status == "optimal"
            assert res.z_ar == pytest.approx(
                solve_adjustable_vertex_oracle(inst), rel=0, abs=1e-9)


def test_topk_bracket_has_no_digitization_slack():
    # an iteration-capped loop on the budget set brackets z_AR by its
    # master and c.x + value + mip_tol, with no eps_total in the slack
    inst = mixed_instance(4, 3, seed=8)
    res = solve_adjustable(inst, eps=0.5, max_iters=1, mip_tol=1e-3)
    z = solve_adjustable_vertex_oracle(inst)
    assert res.status == "iteration_limit"
    lo, hi = res.bracket
    assert hi == max(lo, float(inst.c @ res.x) + res.cuts[-1].value + 1e-3)
    assert lo - 1e-7 <= z <= hi + 1e-7
    assert hi - lo < Digitization.from_instance(inst, 0.5).eps_total


# ---------------------------------------------------------------------------
# VRep separation against one LP per vertex


def exhaustive_vrep_value(inst, x_hat):
    """max over the vertices h of max (h - A x_hat).w over W, one LP each."""
    ax = inst.A @ x_hat
    best = -np.inf
    for h in inst.uncertainty.vertices:
        lp = LinearProgram.from_arrays("max", h - ax, inst.B.T,
                                       ["<="] * inst.n,
                                       np.full(inst.n, inst.d_bar))
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        best = max(best, float(sol.objective))
    return best


def assert_exact_vrep_separation(inst, x_hat):
    h, w, val = _separate_vrep(inst, x_hat)
    want = exhaustive_vrep_value(inst, x_hat)
    assert abs(val - want) <= 1e-12 * (1.0 + abs(want))
    # the pair is a vertex of U and a point of W that reproduce the value
    assert np.any(np.all(inst.uncertainty.vertices == h, axis=1))
    assert (w >= -1e-9).all() and (inst.B.T @ w <= inst.d_bar + 1e-8).all()
    assert val == float((h - inst.A @ x_hat) @ w)


def test_vrep_separation_exact_on_budget_tables():
    cases = [(m, 100 + m) for m in range(5, 11)]
    # the search usually meets the optimum early, so a stopping rule that
    # quits too soon shows only on a few seeds: sweep many small ones
    cases += [(m, seed) for m in (4, 5) for seed in range(40)]
    for m, seed in cases:
        b = gen_iid(m, m, RandomSpec("uniform"), seed)
        assert_exact_vrep_separation(b.with_uncertainty(budget_vertices(m)),
                                     np.zeros(m))


def test_vrep_separation_exact_with_first_stage():
    rng = np.random.default_rng(7)
    for seed, (m, n) in enumerate([(3, 3), (4, 2), (5, 4), (6, 6)]):
        inst = mixed_instance(m, n, seed, vrep=True)
        x_hat = 2.0 * rng.random(n)
        # some objective coefficients h_i - (A x_hat)_i are negative
        assert (inst.uncertainty.vertices - inst.A @ x_hat).min() < 0
        assert_exact_vrep_separation(inst, x_hat)


def test_vrep_separation_exact_on_worst_case_family():
    for m, seed in ((4, 0), (9, 1), (16, 2)):
        inst = gen_worst_case(m, randomized=True, seed=seed)
        assert_exact_vrep_separation(inst, np.zeros(m))


def test_vrep_separation_prunes_vertex_lps(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(adjustable, "solve_lp", counting)
    inst = gen_iid(10, 10, RandomSpec("uniform"), 0)
    inst = inst.with_uncertainty(budget_vertices(10))
    _separate_vrep(inst, np.zeros(10))
    assert 1 <= len(calls) < len(inst.uncertainty.vertices) == 1016


def test_vrep_separation_lp_count_is_stable(monkeypatch):
    # a table-m10 instance with A = I, so that x_hat moves the vertex
    # objectives h - x_hat; a stop rule without a tolerance solved 25 LPs
    # at x_hat = 0 and 18 at x_hat = -1e-13
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(adjustable, "solve_lp", counting)
    inst = gen_iid(10, 10, RandomSpec("uniform"), 0)
    inst = replace(inst.with_uncertainty(budget_vertices(10)), A=np.eye(10))
    counts = []
    for x_hat in (np.zeros(10), np.full(10, 1e-13), np.full(10, -1e-13)):
        calls.clear()
        _separate_vrep(inst, x_hat)
        counts.append(len(calls))
    assert counts == [18, 18, 18]


# ---------------------------------------------------------------------------
# cutting-plane solver


def test_adjustable_zero_uncertainty():
    uset = UncertaintySet.vrep(np.zeros((1, 2)))
    inst = Instance(m=2, n=2, c=np.ones(2), A=np.zeros((2, 2)), B=np.eye(2),
                    d_bar=1.0, uncertainty=uset, seed=0)
    res = solve_adjustable(inst, eps=0.1)
    assert res.status == "optimal"
    assert res.z_ar == pytest.approx(0.0, abs=1e-8)


def test_adjustable_vrep_matches_oracle():
    for seed in (0, 1, 2):
        inst = mixed_instance(3 + seed, 3, seed, vrep=True)
        res = solve_adjustable(inst, eps=1e-3)
        z = solve_adjustable_vertex_oracle(inst)
        assert res.status == "optimal" and res.nodes == 0
        assert abs(res.z_ar - z) <= 1e-3 + 1e-5
        assert res.bracket[0] <= res.bracket[1] + 1e-12


@pytest.mark.parametrize("m,seeds,eps,mip_tol", [(2, range(10), 0.5, 0.05),
                                                  (3, range(5), 0.1, 0.01)])
def test_warm_separation_roots_stay_in_the_oracle_bracket(m, seeds, eps,
                                                         mip_tol, monkeypatch):
    # each separation MIP's root starts from the previous root's basis;
    # the budget set's top-k MIPs are exact, so the loop ends within
    # mip_tol + sep_tol of the oracle, and its nodes are its searches'
    warm, nodes = [], []

    def record(prob, **kw):
        warm.append(kw.get("start") is not None)
        sol = solve_mip(prob, **kw)
        nodes.append(sol.nodes)
        return sol

    monkeypatch.setattr(adjustable, "solve_mip", record)
    for seed in seeds:
        inst = mixed_instance(m, m, seed)
        made = len(nodes)
        res = solve_adjustable(inst, eps=eps, mip_tol=mip_tol)
        z = solve_adjustable_vertex_oracle(inst)
        assert res.status == "optimal"
        assert res.nodes == sum(nodes[made:]) > 0
        assert res.z_ar <= z + 1e-7
        assert res.z_ar >= z - 11 * mip_tol - 1e-7
    # all but the first separation of each loop
    assert sum(warm) == len(warm) - len(seeds) > 0


@pytest.mark.parametrize("m,seeds,eps,mip_tol", [(2, range(20), 0.5, 0.05),
                                                  (3, range(5), 0.1, 0.01)])
def test_separation_cutoff_keeps_the_cut_loops(m, seeds, eps, mip_tol,
                                               monkeypatch):
    # past the first separation, the MIP prunes against the loop's
    # threshold z_hat + sep_tol: the loops end with the same values and
    # cuts, in fewer nodes
    nodes = {}

    def run(prune):
        def search(prob, cutoff=None, **kw):
            sol = solve_mip(prob, cutoff=cutoff if prune else None, **kw)
            nodes[prune] = nodes.get(prune, 0) + sol.nodes
            return sol

        monkeypatch.setattr(adjustable, "solve_mip", search)
        return [solve_adjustable(mixed_instance(m, m, seed), eps=eps,
                                 mip_tol=mip_tol) for seed in seeds]

    for a, b in zip(run(False), run(True)):
        assert (b.status, b.iterations, b.z_ar) == (a.status, a.iterations,
                                                    a.z_ar)
        assert [c.value for c in b.cuts] == [c.value for c in a.cuts]
    assert nodes[True] < nodes[False]


def test_adjustable_hrep_digitized_loop():
    # full loop with MIP separation, coarse digitization, on an HRep set
    # that is not the budget set (which separates by the top-k MIP)
    inst = replace(mixed_instance(3, 3, seed=42),
                   uncertainty=UncertaintySet.hrep(budget_set(3).R,
                                                   [1.0, 1.0, 1.0, 1.5]))
    dig = Digitization.from_instance(inst, 0.5)
    res = solve_adjustable(inst, eps=0.5, mip_tol=0.05)
    z = solve_adjustable_vertex_oracle(inst)
    assert res.status == "optimal"
    # master is a relaxation; separation certifies up to its own slack
    assert res.z_ar <= z + 1e-7
    assert res.z_ar >= z - (dig.eps_total + 10 * 0.05) - 1e-7


def test_adjustable_iteration_limit_brackets_oracle():
    inst = mixed_instance(4, 3, seed=8, vrep=True)
    res = solve_adjustable(inst, eps=1e-3, max_iters=1)
    z = solve_adjustable_vertex_oracle(inst)
    assert res.status in ("iteration_limit", "optimal")
    if res.status == "iteration_limit":
        lo, hi = res.bracket
        assert lo - 1e-7 <= z <= hi + 1e-7


def test_adjustable_stalls_on_a_repeated_pair(monkeypatch):
    # separation keeps returning the loop's first separated pair with h
    # shifted: within 1e-9 of a cut the loop stops as stalled at once;
    # further off, the pair becomes a cut and is found on the next round
    real = adjustable.separate
    for shift, iters in ((1e-10, 1), (1e-8, 2)):
        first = []

        def fake(inst, x_hat, z_hat, dig, **kw):
            if not first:
                first.append(real(inst, x_hat, z_hat, dig, **kw))
                return first[0]
            h = first[0][0] + shift
            w = first[0][1]
            return h, w, float((h - inst.A @ x_hat) @ w)

        monkeypatch.setattr(adjustable, "separate", fake)
        res = solve_adjustable(mixed_instance(3, 3, seed=0, vrep=True))
        assert res.status == "stalled" and res.iterations == iters
        assert len(res.cuts) == 1 + iters
        assert res.bracket[0] <= res.bracket[1]


def test_adjustable_rejects_bad_max_iters():
    with pytest.raises(ValueError):
        solve_adjustable(box_instance(), eps=0.1, max_iters=0)


def test_adjustable_unbounded_w():
    inst = Instance(m=2, n=1, c=np.zeros(1), A=np.zeros((2, 1)),
                    B=np.array([[1.0], [0.0]]), d_bar=1.0,
                    uncertainty=budget_set(2), seed=0)
    with pytest.raises(SeparationError):
        solve_adjustable(inst, eps=0.1)


def _zero_row_instances(vrep):
    """Instances whose row 2 of B is zero, with A covering it: the
    instance file of the CLI test (z_ar = z_aff = 2) and m = 3 mixed
    instances with row 2 of B zeroed."""
    uset = (UncertaintySet.vrep([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) if vrep
            else UncertaintySet.hrep([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                                     [1.0, 1.0, 1.4]))
    insts = [Instance(m=2, n=2, c=[0.1, 0.1], A=[[0.1, 0.0], [0.0, 0.1]],
                      B=[[1.0, 0.5], [0.0, 0.0]], d_bar=1.0,
                      uncertainty=uset)]
    for seed in range(4):
        inst = mixed_instance(3, 3, seed, vrep=vrep)
        B = inst.B.copy()
        B[1] = 0.0
        insts.append(replace(inst, B=B))
    return insts


@pytest.mark.parametrize("vrep", [True, False])
def test_a_zero_row_of_B_that_A_covers_matches_the_oracle(vrep):
    # e_2 is a ray of W, so the inner max is finite exactly where
    # A_2 x >= cap_2, and then w_2 = 0 attains it: the master takes that
    # row, and separation holds w_2 at 0
    mip_tol = 1e-11 if vrep else 0.01
    for inst in _zero_row_instances(vrep):
        res = solve_adjustable(inst, eps=0.1, mip_tol=mip_tol)
        z = solve_adjustable_vertex_oracle(inst)
        assert res.status == "optimal"
        assert all(cut.w[1] == 0.0 for cut in res.cuts)
        assert inst.A[1] @ res.x >= inst.uncertainty.caps[1] - 1e-9
        if vrep:
            assert res.z_ar == pytest.approx(z, rel=0, abs=1e-9)
        else:
            slack = Digitization.from_instance(inst, 0.1).eps_total
            assert z - slack - 10 * mip_tol - 1e-7 <= res.z_ar <= z + 1e-7


def test_special_case_requires_degenerate_first_stage():
    with pytest.raises(InstanceError):
        adjustable_special_case(mixed_instance(2, 2, seed=0, vrep=True))


def test_special_case_matches_full_loop():
    b = gen_iid(3, 3, RandomSpec("uniform"), 17)
    inst = b.with_uncertainty(enumerate_vertices(b.uncertainty))
    sp = adjustable_special_case(inst, eps=1e-3)
    full = solve_adjustable(inst, eps=1e-3)
    assert sp == pytest.approx(full.z_ar, abs=1e-6)


# ---------------------------------------------------------------------------
# vertex oracle


def test_oracle_identity_budget():
    assert solve_adjustable_vertex_oracle(identity_instance()) == pytest.approx(
        SQRT2, abs=1e-8)


def test_oracle_worst_case_family():
    # perfectly adjustable recourse covers the structured family at cost 1
    for m in (4, 9):
        assert solve_adjustable_vertex_oracle(gen_worst_case(m)) == pytest.approx(
            1.0, abs=1e-8)


def extensive_oracle_value(inst):
    """z_AR from the extensive form written out in full: x, z and a
    recourse copy y_v per vertex, with every covering row of every vertex."""
    uset = inst.uncertainty
    if uset.is_hrep:
        uset = enumerate_vertices(uset)
    V = uset.vertices
    K, m, n = len(V), inst.m, inst.n
    G = np.zeros((K * (1 + m), n + 1 + K * n))
    rhs = np.zeros(K * (1 + m))
    for v, h in enumerate(V):
        row, oy = v * (1 + m), n + 1 + v * n
        G[row, n] = 1.0                       # z >= d.y_v
        G[row, oy:oy + n] = -inst.d
        G[row + 1:row + 1 + m, :n] = inst.A   # A x + B y_v >= h
        G[row + 1:row + 1 + m, oy:oy + n] = inst.B
        rhs[row + 1:row + 1 + m] = h
    obj = np.zeros(G.shape[1])
    obj[:n] = inst.c
    obj[n] = 1.0
    lower = np.zeros(G.shape[1])
    lower[n] = -np.inf
    sol = solve_lp(LinearProgram.from_arrays("min", obj, G, [">="] * len(G),
                                             rhs, lower=lower))
    assert sol.status == "optimal"
    return float(sol.objective)


def _oracle_cases():
    for m in range(2, 10):
        yield f"worst-case m={m}", gen_worst_case(m)
        yield (f"worst-case m={m} randomized",
               gen_worst_case(m, randomized=True, seed=m))
    for seed, (m, n) in enumerate([(2, 3), (3, 3), (3, 4), (4, 2), (5, 3)]):
        yield f"mixed vrep seed={seed}", mixed_instance(m, n, seed, vrep=True)
        yield f"mixed hrep seed={seed}", mixed_instance(m, n, 10 + seed)
    for m in (3, 5, 6):
        b = gen_iid(m, m, RandomSpec("uniform"), 30 + m)
        yield f"iid m={m}", b.with_uncertainty(budget_vertices(m))


def test_oracle_matches_extensive_form(monkeypatch):
    seen = []

    def record(lp, **kw):
        seen.append(lp)
        return solve_lp(lp, **kw)

    monkeypatch.setattr(adjustable, "solve_lp", record)
    for name, inst in _oracle_cases():
        seen.clear()
        z = solve_adjustable_vertex_oracle(inst)
        want = extensive_oracle_value(inst)
        assert abs(z - want) <= 1e-9 * max(1.0, abs(want)), name
        # one epigraph row per vertex plus its positive covering rows only
        (lp,) = seen
        uset = inst.uncertainty
        V = (enumerate_vertices(uset) if uset.is_hrep else uset).vertices
        assert lp.A.shape == (len(V) + np.count_nonzero(V > 1e-12),
                              inst.n + 1 + len(V) * inst.n), name


def test_oracle_accepts_hrep():
    inst = mixed_instance(3, 2, seed=5)
    a = solve_adjustable_vertex_oracle(inst)
    b = solve_adjustable_vertex_oracle(
        inst.with_uncertainty(enumerate_vertices(inst.uncertainty)))
    assert a == pytest.approx(b, abs=1e-10)
