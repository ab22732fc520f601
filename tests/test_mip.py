import heapq
import itertools

import numpy as np
import pytest

from adjrobust import adjustable, mip
from adjrobust.adjustable import (Digitization, build_separation_mip,
                                  solve_adjustable)
from adjrobust.instances import Instance, budget_set
from adjrobust.lp import LinearProgram, _Form, _Tableau, solve_lp
from adjrobust.mip import MipError, MixedBinaryProgram, solve_mip
from adjrobust.rng import SplitMix64


def knapsack():
    # max 5a + 4b + 3c s.t. 2a + 3b + c <= 3, binaries
    lp = LinearProgram.from_arrays(
        "max", [5.0, 4.0, 3.0], [[2.0, 3.0, 1.0]], ["<="], [3.0]
    )
    return MixedBinaryProgram(lp, (0, 1, 2))


def test_knapsack():
    sol = solve_mip(knapsack())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(8.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [1.0, 0.0, 1.0], atol=1e-9)
    assert sol.gap <= 1e-9
    assert sol.bound == pytest.approx(8.0, abs=1e-9)


def test_integral_relaxation_stops_at_root():
    lp = LinearProgram.from_arrays(
        "max", [1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], ["<=", "<="], [1.0, 0.0]
    )
    sol = solve_mip(MixedBinaryProgram(lp, (0, 1)))
    assert sol.status == "optimal" and sol.nodes == 1
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-9)


def test_min_sense():
    # min a + b with a + b >= 1 over binaries
    lp = LinearProgram.from_arrays("min", [1.0, 1.0], [[1.0, 1.0]], [">="], [1.0])
    sol = solve_mip(MixedBinaryProgram(lp, (0, 1)))
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.bound == pytest.approx(1.0, abs=1e-9)


def test_mixed_continuous_and_binary():
    # binary gate pays 3 but opens capacity 2 for a profit-2 continuous var
    lp = LinearProgram.from_arrays(
        "max",
        [-3.0, 2.0],
        [[-2.0, 1.0]],
        ["<="],
        [0.0],
        upper=[1.0, np.inf],
    )
    sol = solve_mip(MixedBinaryProgram(lp, (0,)))
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [1.0, 2.0], atol=1e-9)


def test_infeasible_mip():
    lp = LinearProgram.from_arrays(
        "max", [1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [">=", "<="], [2.0, 1.0]
    )
    sol = solve_mip(MixedBinaryProgram(lp, (0, 1)))
    assert sol.status == "infeasible"
    assert sol.x is None and sol.objective is None


def test_fractional_only_feasibility_is_integer_infeasible():
    # LP feasible only at a + b = 1 with a = b, so a = b = 1/2; each
    # equality is a <=/>= pair
    lp = LinearProgram.from_arrays(
        "max",
        [1.0, 0.0],
        [[1.0, 1.0], [1.0, 1.0], [1.0, -1.0], [1.0, -1.0]],
        ["<=", ">=", "<=", ">="],
        [1.0, 1.0, 0.0, 0.0],
    )
    sol = solve_mip(MixedBinaryProgram(lp, (0, 1)))
    assert sol.status == "infeasible"


def test_unbounded_mip():
    lp = LinearProgram.from_arrays("max", [0.0, 1.0], [[1.0, 0.0]], ["<="], [1.0])
    sol = solve_mip(MixedBinaryProgram(lp, (0,)))
    assert sol.status == "unbounded"


def test_node_limit_reports_honest_bound():
    rng = SplitMix64(5)
    k = 10
    w = np.array([1 + rng.next_float() * 9 for _ in range(k)])
    p = np.array([1 + rng.next_float() * 9 for _ in range(k)])
    lp = LinearProgram.from_arrays("max", p, w.reshape(1, -1), ["<="],
                                   [0.4 * w.sum()])
    prob = MixedBinaryProgram(lp, range(k))
    full = solve_mip(prob)
    cut = solve_mip(prob, node_limit=3)
    assert cut.status == "node_limit"
    assert cut.nodes <= 3
    assert cut.bound >= full.objective - 1e-9
    if cut.objective is not None:
        assert cut.objective <= full.objective + 1e-9
        assert cut.gap >= -1e-12


def test_bound_never_below_incumbent():
    sol = solve_mip(knapsack())
    assert sol.bound >= sol.objective - 1e-12


def test_determinism():
    a = solve_mip(knapsack())
    b = solve_mip(knapsack())
    assert a.nodes == b.nodes
    np.testing.assert_array_equal(a.x, b.x)


def test_branching_ties_within_roundoff_go_to_the_lowest_index():
    # two binaries equally fractional in exact arithmetic, apart by the
    # roundoff of an LP solution: the lower index is branched on
    assert mip._most_fractional(np.array([0.1, 0.4, 0.4 + 1e-15])) == 1
    assert mip._most_fractional(np.array([0.1, 0.4, 0.4 + 1e-6])) == 2


def test_binary_index_validation():
    lp = LinearProgram.from_arrays("max", [1.0], [[1.0]], ["<="], [1.0])
    with pytest.raises(MipError):
        MixedBinaryProgram(lp, (1,))
    with pytest.raises(MipError):
        MixedBinaryProgram(lp, (0, 0))


def _exhaustive_best(lp, binaries):
    """Try every 0/1 assignment, solving the residual LP each time."""
    best = None
    sgn = 1.0 if lp.sense == "max" else -1.0
    for bits in itertools.product([0.0, 1.0], repeat=len(binaries)):
        lo, up = lp.lower.copy(), lp.upper.copy()
        for j, v in zip(binaries, bits):
            lo[j] = up[j] = v
        sol = solve_lp(lp.with_bounds(lo, up))
        if sol.status == "optimal":
            val = sgn * sol.objective
            if best is None or val > best:
                best = val
    return None if best is None else sgn * best


def _fuzz_mips():
    """40 random MIPs: 3-8 binaries, 0-2 continuous columns, 2-4 rows."""
    rng = SplitMix64(777)
    for trial in range(40):
        nb = 3 + int(rng.next_float() * 6)        # 3..8 binaries
        nc = int(rng.next_float() * 3)            # 0..2 continuous
        n = nb + nc
        mrows = 2 + int(rng.next_float() * 3)
        c = np.array([rng.next_float() * 4 - 2 for _ in range(n)])
        G = np.array(
            [[rng.next_float() * 2 - 0.5 for _ in range(n)] for _ in range(mrows)]
        )
        g = np.array([rng.next_float() * 0.6 * max(nb, 1) for _ in range(mrows)])
        upper = np.concatenate([np.ones(nb), np.full(nc, 2.0)])
        sense = "max" if rng.next_float() < 0.5 else "min"
        lp = LinearProgram.from_arrays(sense, c, G, ["<="] * mrows, g,
                                       upper=upper)
        yield trial, nb, MixedBinaryProgram(lp, range(nb))


def test_fuzz_against_exhaustive_enumeration():
    solved = 0
    for trial, nb, prob in _fuzz_mips():
        lp = prob.lp
        sol = solve_mip(prob)
        ref = _exhaustive_best(lp, range(nb))
        if ref is None:
            assert sol.status == "infeasible", f"trial {trial}"
            continue
        solved += 1
        assert sol.status == "optimal", f"trial {trial}"
        assert sol.objective == pytest.approx(ref, abs=2e-6), f"trial {trial}"
    assert solved >= 15  # the generator should mostly produce feasible MIPs


def _random_knapsack(seed):
    """max p.x over 4-8 binaries with 1-3 knapsack rows at 40% capacity."""
    rng = SplitMix64(seed)
    k = 4 + int(rng.next_float() * 5)
    rows = 1 + int(rng.next_float() * 3)
    p = np.array([1 + rng.next_float() * 9 for _ in range(k)])
    W = np.array([[1 + rng.next_float() * 9 for _ in range(k)]
                  for _ in range(rows)])
    lp = LinearProgram.from_arrays("max", p, W, ["<="] * rows,
                                   0.4 * W.sum(axis=1))
    return MixedBinaryProgram(lp, range(k))


def test_node_limited_bound_never_below_optimum():
    runs = 0
    for seed in range(30):
        prob = _random_knapsack(seed)
        full = solve_mip(prob)
        assert full.status == "optimal"
        for limit in range(full.nodes):
            cut = solve_mip(prob, node_limit=limit)
            runs += 1
            assert cut.bound >= full.objective - 1e-7, (seed, limit)
    assert runs > 100


def test_warm_nodes_match_cold_solves(monkeypatch):
    warm = []

    def checked(lp, start=None, **kw):
        sol = solve_lp(lp, start=start, **kw)
        if start is not None:
            cold = solve_lp(lp, **kw)
            assert sol.status == cold.status
            if cold.status == "optimal":
                assert sol.objective == pytest.approx(cold.objective,
                                                      abs=1e-9)
            warm.append(sol.status)
        return sol

    monkeypatch.setattr(mip, "solve_lp", checked)
    for _, _, prob in _fuzz_mips():
        solve_mip(prob)
    # children and rounding LPs, some proved infeasible by the dual phase
    assert len(warm) > 100 and "infeasible" in warm and "optimal" in warm


def test_dual_phase_refreshes_keep_the_search(monkeypatch):
    plain = [solve_mip(prob) for _, _, prob in _fuzz_mips()]
    # rebuild the tableau every 2 pivots, inside the dual phase too
    init, refresh = _Tableau.__init__, _Tableau.refresh
    dual_refreshes = []

    def often(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.refresh_every = 2

    def counted(self, primal=True):
        dual_refreshes.append(not primal)
        refresh(self, primal=primal)

    monkeypatch.setattr(_Tableau, "__init__", often)
    monkeypatch.setattr(_Tableau, "refresh", counted)
    for (trial, _, prob), ref in zip(_fuzz_mips(), plain):
        sol = solve_mip(prob)
        assert sol.status == ref.status, f"trial {trial}"
        if ref.status == "optimal":
            assert sol.objective == pytest.approx(ref.objective, abs=1e-9)
    assert any(dual_refreshes)


def _cut_loop_instance(seed):
    """An m = n = 2 HRep budget instance of the cut-loop recipe."""
    rng = np.random.default_rng(seed)
    return Instance(m=2, n=2, c=0.2 * rng.random(2),
                    A=0.3 * rng.random((2, 2)),
                    B=0.1 + rng.random((2, 2)), d_bar=1.0,
                    uncertainty=budget_set(2), seed=seed)


def _run_cut_loops():
    # the cut loop's separation MIPs, eps 0.5, mip_tol 0.05
    for seed in range(10):
        solve_adjustable(_cut_loop_instance(seed), eps=0.5, mip_tol=0.05)


def test_warm_started_search_pivots_per_node(monkeypatch):
    sols = []

    def record(prob, **kw):
        sols.append(solve_mip(prob, **kw))
        return sols[-1]

    monkeypatch.setattr(adjustable, "solve_mip", record)
    _run_cut_loops()
    nodes = sum(s.nodes for s in sols)
    pivots = sum(s.pivots for s in sols)
    assert nodes > 100
    assert pivots <= 5 * nodes


@pytest.mark.parametrize("searches", ["fuzz", "cut_loops"])
def test_shared_form_and_handed_block_match_plain_warm_solves(searches,
                                                             monkeypatch):
    # every LP of a search goes through the root's standard form and,
    # below the root, its parent's inverse block; solved on its own from
    # the same basis it must give the same bits
    inverses, handed = [], []
    inv, start_warm = np.linalg.inv, _Tableau.start_warm

    def counted_inv(a):
        inverses.append(a.shape)
        return inv(a)

    def spy_start(self, priced, block=None):
        before = len(inverses)
        ok = start_warm(self, priced, block)
        if block is not None:
            handed.append(len(inverses) - before)
        return ok

    def checked(lp, start=None, **kw):
        sol = solve_lp(lp, start=start, **kw)
        assert lp._form is not None
        basis = start[0] if isinstance(start, tuple) else start
        ref = solve_lp(lp.with_bounds(lp.lower, lp.upper), start=basis, **kw)
        assert sol.status == ref.status
        assert sol.iterations == ref.iterations
        if ref.status == "optimal":
            np.testing.assert_array_equal(sol.x, ref.x)
            np.testing.assert_array_equal(sol.basis, ref.basis)
            assert sol.objective == ref.objective
        return sol

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    monkeypatch.setattr(_Tableau, "start_warm", spy_start)
    monkeypatch.setattr(mip, "solve_lp", checked)
    if searches == "fuzz":
        for _, _, prob in _fuzz_mips():
            solve_mip(prob)
    else:
        _run_cut_loops()
    # a handed block replaces the inversion of the start basis
    assert len(handed) > 100 and not any(handed)


def test_open_nodes_hold_the_square_block(monkeypatch):
    # a heap entry keeps inv(M0[N, S]) of its parent's basis, s x s for
    # the s basic structural columns, never the nr x nr basis inverse
    inst = _cut_loop_instance(2)
    prob = build_separation_mip(inst, np.zeros(2),
                                Digitization.from_instance(inst, 0.1))
    nr, nc = _Form(prob.lp).G.shape
    pushed = []
    push = heapq.heappush

    def spy(heap, entry):
        pushed.append(entry)
        push(heap, entry)

    monkeypatch.setattr(heapq, "heappush", spy)
    assert solve_mip(prob, mip_tol=0.05).status == "optimal"
    assert len(pushed) > 50
    for _, _, lo, up, (basis, block) in pushed:
        s = int((basis < nc).sum())
        assert basis.shape == (nr,) and block.shape == (s, s) and s < nr
        assert lo.size == up.size == prob.lp.num_vars
