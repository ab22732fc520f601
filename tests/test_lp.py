import contextlib
import itertools
from dataclasses import replace

import numpy as np
import pytest

from adjrobust import adjustable
from adjrobust import lp as lp_module
from adjrobust.adjustable import Digitization, build_separation_mip
from adjrobust.affine import build_affine_lp, solve_affine
from adjrobust.bench import (BenchConfig, generate_bench_instance,
                             run_benchmark)
from adjrobust.instances import (
    Instance,
    RandomSpec,
    budget_set,
    gen_iid,
    gen_worst_case,
)
from adjrobust.lp import (
    _FEAS_TOL,
    GE,
    LE,
    LinearProgram,
    LpBreakdownError,
    PIVOT_TOL,
    _Form,
    _Tableau,
    solve_lp,
)
from adjrobust.rng import SplitMix64


def _assert_farkas(lp, lam):
    """``lam`` proves ``lp`` infeasible on its own rows and bounds: with
    the sign of each relation (>= 0 on <= rows), ``lam.A x <= lam.b``
    holds wherever the rows hold, and the bounds keep ``lam.A x`` above
    ``lam.b``."""
    assert lam.shape == (lp.num_rows,)
    eps = 1e-12 * (1.0 + np.abs(lam).max())
    assert (lam[lp.rel == LE] >= -eps).all()
    assert (lam[lp.rel == GE] <= eps).all()
    v = lam @ lp.A
    v[np.abs(v) <= eps * (1.0 + np.abs(lp.A).max())] = 0.0
    least = sum(vj * (lo if vj > 0 else up)
                for vj, lo, up in zip(v, lp.lower, lp.upper) if vj)
    assert least > lam @ lp.b + 1e-9


def _assert_improving_ray(lp, ray):
    """``ray`` keeps every row and bound of ``lp`` and improves its
    objective."""
    tol = 1e-9 * (1.0 + np.abs(ray).max())
    move = lp.A @ ray
    assert (move[lp.rel == LE] <= tol).all()
    assert (move[lp.rel == GE] >= -tol).all()
    assert (ray[np.isfinite(lp.lower)] >= -tol).all()
    assert (ray[np.isfinite(lp.upper)] <= tol).all()
    assert (1.0 if lp.sense == "min" else -1.0) * (lp.obj @ ray) < -tol


def _assert_certified(lp, sol, tol=1e-9):
    """Check ``sol`` on the LP's own data: an optimal point whose duals
    prove its value, a Farkas vector, or an improving ray."""
    if sol.status == "infeasible":
        return _assert_farkas(lp, sol.farkas)
    if sol.status == "unbounded":
        return _assert_improving_ray(lp, sol.ray)
    assert sol.status == "optimal"
    x, lam = sol.x, sol.duals
    eps = tol * (1.0 + np.abs(x).max(initial=0.0)
                 + np.abs(lam).max(initial=0.0))
    move = lp.A @ x - lp.b
    assert (move[lp.rel == LE] <= eps).all()
    assert (move[lp.rel == GE] >= -eps).all()
    assert (x >= lp.lower - eps).all() and (x <= lp.upper + eps).all()
    # read as a min LP: row duals <= 0 on <= rows and >= 0 on >= rows,
    # and a reduced cost leans only on a bound its column sits at
    s = 1.0 if lp.sense == "min" else -1.0
    y = s * lam
    assert (y[lp.rel == LE] <= eps).all() and (y[lp.rel == GE] >= -eps).all()
    r = s * lp.obj - y @ lp.A
    assert ((r >= -eps) | (x >= lp.upper - eps)).all()
    assert ((r <= eps) | (x <= lp.lower + eps)).all()
    # so y.b + r.(the bound each reduced cost leans on) bounds the
    # objective, and it equals it
    at = np.where(np.abs(r) <= eps, x, np.where(r > 0, lp.lower, lp.upper))
    assert sol.objective == pytest.approx(lp.obj @ x, rel=tol, abs=eps)
    assert y @ lp.b + r @ at == pytest.approx(s * sol.objective, rel=tol,
                                              abs=10 * eps)
    # one basic column of [A | I] per row, and no other column
    assert sol.basis.shape == (lp.num_rows,)
    assert (sol.basis < lp.num_vars + lp.num_rows).all()


def small_lp():
    # max x1 + x2 s.t. x1 + 2 x2 <= 2, 3 x1 + x2 <= 3
    return LinearProgram.from_arrays(
        "max", [1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], ["<=", "<="], [2.0, 3.0]
    )


def test_small_lp_primal_and_dual():
    sol = solve_lp(small_lp())
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.objective, 1.4, atol=1e-9)
    np.testing.assert_allclose(sol.x, [0.8, 0.6], atol=1e-9)
    np.testing.assert_allclose(sol.duals, [0.4, 0.2], atol=1e-9)
    np.testing.assert_allclose(sol.dual_objective, 1.4, atol=1e-9)
    _assert_certified(small_lp(), sol)


def test_row_scaling_leaves_solution_unchanged():
    base = solve_lp(small_lp())
    lp = LinearProgram.from_arrays(
        "max",
        [1.0, 1.0],
        [[10.0, 20.0], [0.03, 0.01]],
        ["<=", "<="],
        [20.0, 0.03],
    )
    sol = solve_lp(lp)
    np.testing.assert_allclose(sol.x, base.x, atol=1e-9)
    np.testing.assert_allclose(sol.objective, base.objective, atol=1e-9)
    # duals pick up the inverse row scale
    np.testing.assert_allclose(sol.duals, [0.04, 20.0], atol=1e-8)


def test_equality_and_ge_rows():
    # min x + y s.t. x + y = 1 (as a <=/>= pair), x - y >= 0
    lp = LinearProgram.from_arrays(
        "min", [1.0, 1.0], [[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]],
        ["<=", ">=", ">="], [1.0, 1.0, 0.0]
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.objective, 1.0, atol=1e-9)
    np.testing.assert_allclose(sol.x[0] + sol.x[1], 1.0, atol=1e-9)


def test_free_and_bounded_variables():
    # free variable pushed negative, upper bound binding
    lp = LinearProgram.from_arrays(
        "min",
        [1.0, -1.0],
        [[1.0, 0.0]],
        [">="],
        [-5.0],
        lower=[-np.inf, 0.0],
        upper=[np.inf, 3.0],
    )
    sol = solve_lp(lp)
    np.testing.assert_allclose(sol.x, [-5.0, 3.0], atol=1e-9)
    np.testing.assert_allclose(sol.objective, -8.0, atol=1e-9)


def test_fixed_variable_substitution():
    # l == u keeps the column at its value; it is never priced
    lp = LinearProgram.from_arrays(
        "min",
        [1.0, 5.0],
        [[1.0, 1.0]],
        [">="],
        [4.0],
        lower=[0.0, 2.0],
        upper=[np.inf, 2.0],
    )
    sol = solve_lp(lp)
    np.testing.assert_allclose(sol.x, [2.0, 2.0], atol=1e-9)
    np.testing.assert_allclose(sol.objective, 12.0, atol=1e-9)


def test_standard_form_layout():
    # one variable of each bound kind (free, lower only, upper only, both,
    # fixed) and rows of each relation, the last two an equality as a
    # pair: the bounds stay on the columns, so the basis holds one column
    # of [A | I] per row of the LP
    lp = LinearProgram.from_arrays(
        "min",
        [1.0, 2.0, 3.0, 4.0, 5.0],
        [[1.0, 2.0, 3.0, 4.0, 5.0],
         [6.0, 7.0, 8.0, 9.0, 10.0],
         [11.0, 12.0, 13.0, 14.0, 15.0],
         [11.0, 12.0, 13.0, 14.0, 15.0]],
        ["<=", ">=", "<=", ">="],
        [10.0, 20.0, 30.0, 30.0],
        lower=[-np.inf, 1.0, -np.inf, -1.0, 2.0],
        upper=[np.inf, np.inf, 2.0, 3.0, 2.0],
    )
    sol = solve_lp(lp)
    ref = _highs(lp)
    assert ref.status == 0 and sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)
    assert sol.x[4] == 2.0
    _assert_certified(lp, sol)


def test_crossed_bounds_is_infeasible():
    lp = LinearProgram.from_arrays(
        "min", [1.0], [[1.0]], ["<="], [10.0], lower=[2.0], upper=[1.0]
    )
    assert solve_lp(lp).status == "infeasible"


def test_infeasible_with_farkas_certificate():
    # x1 + x2 <= 1 and x1 + x2 >= 3 cannot both hold
    lp = LinearProgram.from_arrays(
        "min", [0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], ["<=", ">="], [1.0, 3.0]
    )
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    _assert_farkas(lp, sol.farkas)


def test_farkas_vector_leans_on_the_bounds():
    # x + y >= 3 with x <= 1 and 0 <= y <= 1.5: the one row is satisfiable
    # on its own, and only the bounds rule it out
    lp = LinearProgram.from_arrays("max", [1.0, 1.0], [[1.0, 1.0]], [">="],
                                   [3.0], upper=[1.0, 1.5])
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    _assert_farkas(lp, sol.farkas)
    assert sol.farkas[0] < 0.0


def test_unbounded_with_ray():
    lp = LinearProgram.from_arrays("max", [1.0], [[0.0]], ["<="], [1.0])
    sol = solve_lp(lp)
    assert sol.status == "unbounded"
    assert sol.ray is not None and sol.ray[0] > 0


def test_degenerate_lp_terminates():
    # many redundant tight rows at the optimum; Bland fallback must kick in
    lp = LinearProgram.from_arrays(
        "max",
        [1.0, 1.0, 1.0],
        [
            [1.0, 1.0, 0.0],
            [1.0, 0.0, 1.0],
            [0.0, 1.0, 1.0],
            [1.0, 1.0, 1.0],
            [2.0, 2.0, 2.0],
        ],
        ["<="] * 5,
        [1.0, 1.0, 1.0, 1.5, 3.0],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.objective, 1.5, atol=1e-8)


def test_beale_cycling_lp_terminates():
    # Beale's example: Dantzig pricing with an exact min-ratio test whose
    # ties go to the smallest basic index cycles here forever
    lp = LinearProgram.from_arrays(
        "min",
        [-0.75, 20.0, -0.5, 6.0],
        [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
        ["<="] * 3,
        [0.0, 0.0, 1.0],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.objective, -1.25, atol=1e-12)
    np.testing.assert_allclose(sol.x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    # the Harris test alone, and a switch to Bland's rule after any
    # number of its pivots, ends at the same optimum
    for bland_after in [*range(8), 10**6]:
        with _bland_after(bland_after, max_iters=200):
            again = solve_lp(lp)
        assert again.objective == pytest.approx(-1.25, abs=1e-12)
        _assert_certified(lp, again)


@pytest.mark.parametrize("bland_after,pivots", [(50, 1138), (200, 541)])
def test_bland_ratio_test_on_the_m10_affine_lp(bland_after, pivots):
    # most of the primal phase runs Bland's pricing and exact min-ratio
    # test; the two-pass ratio test the one-pass one replaced took the
    # same pivots
    lp = build_affine_lp(gen_iid(10, 10, RandomSpec("uniform"), 0))
    want = solve_lp(lp).objective
    with _bland_after(bland_after):
        sol = solve_lp(lp)
    assert sol.status == "optimal" and sol.iterations == pivots
    assert sol.objective == pytest.approx(want, rel=1e-9)
    _assert_certified(lp, sol)


def test_ratio_test_passes_over_free_rows_and_tiny_entries(monkeypatch):
    # x1 (free) enters first and turns basic in row 2; then x2 enters,
    # with -1 in x1's row, which no bound stops, and 1e-11 (below
    # PIVOT_TOL) in row 3, whose slack is basic at 0.  Neither row may
    # stop x2, so it flips to its upper bound 4; HiGHS also drops the
    # 1e-11 entry
    lp = LinearProgram.from_arrays(
        "min", [-3.0, -1.0, -1.0, 0.0],
        [[1.0, -1.0, 1.0, 0.0], [1.0, -1.0, 0.0, 0.0],
         [0.0, 1e-11, 0.0, -1.0]],
        ["<="] * 3, [2.0, 1.0, 0.0],
        lower=[-np.inf, 0.0, 0.0, 0.0], upper=[np.inf, 4.0, np.inf, 1.0])
    gain, entering = _Tableau.gain, []

    def spy(self, *buffers):
        out = gain(self, *buffers)
        q = int(out.argmax())
        col = np.abs(self.store.column(q))
        free = np.isinf(self.lo_b) & np.isinf(self.up_b)
        entering.append((q, (col[free] > 0).any(),
                         ((col > 0) & (col <= PIVOT_TOL)).any()))
        return out

    monkeypatch.setattr(_Tableau, "gain", spy)
    sol = solve_lp(lp)
    assert (1, True, True) in entering
    status, value = _highs_status(lp)
    assert sol.status == status == "optimal"
    assert sol.objective == pytest.approx(value, rel=1e-9)
    np.testing.assert_allclose(sol.x, [5.0, 4.0, 1.0, 0.0], atol=1e-9)
    _assert_certified(lp, sol)


@contextlib.contextmanager
def _bland_after(pivots, max_iters=10**4):
    """Every tableau built inside switches to Bland's rule after
    ``pivots`` pivots and stops at ``max_iters``."""
    init = _Tableau.__init__

    def patched(self, *args, **kw):
        init(self, *args, **kw)
        self.bland_after, self.max_iters = pivots, max_iters

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Tableau, "__init__", patched)
        yield


def test_deterministic_iteration_count():
    a = solve_lp(small_lp())
    b = solve_lp(small_lp())
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.x, b.x)


def test_with_bounds_shares_rows():
    lp = small_lp()
    child = lp.with_bounds(lower=[0.0, 0.5], upper=[np.inf, 0.5])
    assert child.A is lp.A and child.rel is lp.rel and child.b is lp.b
    assert child.obj is lp.obj
    sol = solve_lp(child)
    np.testing.assert_allclose(sol.x[1], 0.5, atol=1e-12)


def test_tight_certificates_on_small_lp():
    sol = solve_lp(small_lp())
    lp = small_lp()
    # primal feasibility, complementary slackness and zero gap, tight
    resid = lp.A @ sol.x - lp.b
    assert resid.max() <= 1e-9
    slack = lp.b - lp.A @ sol.x
    assert abs(float(sol.duals @ slack)) <= 1e-9
    assert abs(sol.objective - sol.dual_objective) <= 1e-9


def _brute_force_value(c, G, g, upper):
    """Best vertex of {0 <= x <= upper, Gx <= g} by active-set enumeration."""
    n = len(c)
    rows = [(np.asarray(row, float), float(b)) for row, b in zip(G, g)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, float(upper[j])))
        rows.append((-e, 0.0))
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i][0] for i in combo])
        b = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        x = np.linalg.solve(M, b)
        if all(row @ x <= rhs + 1e-9 for row, rhs in rows):
            val = float(c @ x)
            if best is None or val > best:
                best = val
    return best


def test_fuzz_against_vertex_enumeration():
    rng = SplitMix64(314159)
    for trial in range(60):
        n = 2 + int(rng.next_float() * 3)
        mrows = 1 + int(rng.next_float() * 4)
        c = np.array([rng.next_float() * 2 - 1 for _ in range(n)])
        G = np.array(
            [[rng.next_float() * 2 - 1 for _ in range(n)] for _ in range(mrows)]
        )
        g = np.array([rng.next_float() * 2 for _ in range(mrows)])
        upper = np.array([0.5 + rng.next_float() * 2 for _ in range(n)])
        lp = LinearProgram.from_arrays(
            "max", c, G, ["<="] * mrows, g, upper=upper
        )
        sol = solve_lp(lp)
        ref = _brute_force_value(c, G, g, upper)
        assert sol.status == "optimal", f"trial {trial}"
        assert ref is not None
        np.testing.assert_allclose(sol.objective, ref, atol=1e-6,
                                   err_msg=f"trial {trial}")
        assert abs(sol.objective - sol.dual_objective) <= 1e-6


def test_nonfinite_data_rejected():
    with pytest.raises(ValueError):
        solve_lp(
            LinearProgram.from_arrays("min", [np.nan], [[1.0]], ["<="], [1.0])
        )


def test_unknown_relation_rejected():
    # -1 once indexed the sign table from the end and solved as <=
    # and there are no equality rows: "=", "==" and code 2 are unknown
    for rel in (-1, 7, "=<", "=", "==", 2):
        with pytest.raises(ValueError, match="relation"):
            LinearProgram.from_arrays("min", [1.0], [[1.0], [1.0]],
                                      ["<=", rel], [1.0, 2.0])
    ok = LinearProgram.from_arrays("min", [1.0], [[1.0]] * 2, [LE, GE],
                                   [1.0, 0.5])
    np.testing.assert_array_equal(ok.rel, [LE, GE])


def _dense_pivot(T, p, q):
    """Reference pivot: one eager rank-one update of every row of the
    dense tableau [T | rhs], with the kernel's right-hand-side clip."""
    pr = T[p] / T[p, q]
    colq = T[:, q].copy()
    colq[p] = 0.0
    T -= np.outer(colq, pr)
    T[p] = pr
    T[:, q] = 0.0
    T[p, q] = 1.0
    rhs = T[:, -1]
    np.copyto(rhs, 0.0, where=(rhs < 0) & (rhs > -_FEAS_TOL))


def _oracle_lp(monkeypatch, m=6):
    # the vertex oracle LP: each recourse copy touches only its own rows
    seen = []

    def record(lp, **kw):
        seen.append(lp)
        return solve_lp(lp, **kw)

    with monkeypatch.context() as mp:
        mp.setattr(adjustable, "solve_lp", record)
        adjustable.solve_adjustable_vertex_oracle(
            gen_worst_case(m, randomized=True, seed=0))
    (lp,) = seen
    return lp


def _dense_lp(monkeypatch, n=6, rows=8):
    rng = SplitMix64(2718)
    A = np.array([[0.1 + rng.next_float() for _ in range(n)]
                  for _ in range(rows)])
    # >= rows make the slack basis infeasible, and some costs are
    # negative: the dual phase runs on zero costs
    rel = ["<="] * (rows - 2) + [">="] * 2
    b = np.array([1.0 + rng.next_float() for _ in range(rows)])
    b[-2:] *= 0.2
    c = np.array([rng.next_float() - 0.3 for _ in range(n)])
    return LinearProgram.from_arrays("max", c, A, rel, b)


def _large_dense_lp(monkeypatch):
    return _dense_lp(monkeypatch, n=80, rows=60)


def _dual_costs(tb):
    """The row ``solve_lp`` prices in a cold dual phase: the costs if the
    slack basis is dual feasible on them, else zeros."""
    return tb.z if tb.gain().max() <= 0.0 else np.zeros_like(tb.z)


def _assert_eager_pivots(tb, block, monkeypatch):
    """Run both phases of ``tb`` and check every pivot against one eager
    update of the dense tableau.  A small factor block, so that pivots
    also fold full blocks into T."""
    # every column of these LPs sits at its lower bound 0, so the basic
    # values are the right-hand side of the eager tableau
    assert (tb.rhs < 0).any()
    store = tb.store
    store.U, store.V = store.U[:, :block], store.V[:block]
    ref = np.column_stack([store.T, tb.rhs])
    pivot = _Tableau.pivot
    folds = []

    def spy(self, p, q, at, col=None, row=None):
        np.testing.assert_allclose(store.column(q), ref[:, q], atol=1e-12)
        np.testing.assert_allclose(store.row(p), ref[p, :-1], atol=1e-12)
        folds.append(store.k == block)
        assert at == 0.0
        pivot(self, p, q, at, col, row)
        _dense_pivot(ref, p, q)
        np.testing.assert_allclose(self.rhs, ref[:, -1], atol=1e-12)

    monkeypatch.setattr(_Tableau, "pivot", spy)
    assert tb.run_dual(_dual_costs(tb)) == "optimal"
    assert tb.iterations > 0 and (tb.rhs >= 0).all()
    assert tb.run() == "optimal"
    assert any(folds)
    store.fold()
    assert store.k == 0
    np.testing.assert_allclose(store.T, ref[:, :-1], atol=1e-12)
    np.testing.assert_allclose(tb.rhs, ref[:, -1], atol=1e-12)


_EAGER_CASES = [(_oracle_lp, 4), (_large_dense_lp, 4), (_dense_lp, 1)]


@pytest.mark.parametrize("make_lp,block", _EAGER_CASES)
def test_deferred_pivots_match_eager_update(make_lp, block, monkeypatch):
    # without refreshes only the folds of full blocks make T current
    tb = _tableau(make_lp(monkeypatch))
    monkeypatch.setattr(_Tableau, "refresh", lambda self, primal=True: None)
    _assert_eager_pivots(tb, block, monkeypatch)


def _count_inversions(monkeypatch, inverses):
    """From now on, append the shape of every matrix ``np.linalg.inv``
    inverts to ``inverses``: the kernel inverts only to rebuild a store
    at a basis."""
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv",
                        lambda a: inverses.append(a.shape) or inv(a))


@pytest.mark.parametrize("make_lp,block", _EAGER_CASES)
def test_refreshed_pivots_match_eager_update(make_lp, block, monkeypatch):
    # a refresh after every two folds: it folds the factors into T and
    # refines the basic values and reduced costs, and T stays the eager
    # tableau, with no inversion
    tb = _tableau(make_lp(monkeypatch))
    tb.refresh_every = 2 * block + 1
    refresh, refreshes, inverses = _Tableau.refresh, [], []

    def counted(self, primal=True):
        refreshes.append(self.iterations)
        refresh(self, primal)

    monkeypatch.setattr(_Tableau, "refresh", counted)
    _count_inversions(monkeypatch, inverses)
    _assert_eager_pivots(tb, block, monkeypatch)
    assert refreshes and not inverses


def _tableau(lp):
    """The cold tableau of ``lp`` at the slack basis, with no Bland
    switch and no iteration limit."""
    tb = _Tableau(_Form(lp), lp)
    tb.bland_after = tb.max_iters = 10**6
    return tb


def _pivot_up_to(tb, run, pivots):
    """Run a phase (``run()``) for exactly ``pivots`` more pivots."""
    tb.max_iters = tb.iterations + pivots
    with pytest.raises(LpBreakdownError, match="iteration limit"):
        run()


def _basis_matrix(tb):
    """The basis columns of ``[G | I]``; the tableau stores ``G`` only."""
    G = tb.form.G
    return np.hstack([G, np.eye(G.shape[0])])[:, tb.basis]


def _basic_values(tb):
    """The basic values that the rows leave at the tableau's basis,
    ``g - N xn`` solved against the basis columns of ``[G | I]``."""
    nc = tb.nc
    return np.linalg.solve(_basis_matrix(tb),
                           tb.form.g - tb.form.G @ tb.xn[:nc] - tb.xn[nc:])


def _assert_rebuild_reproduces(tb):
    # the pivots kept the tableau, the basic values and the reduced costs
    # current.  Re-derived from the pristine data they come back: through
    # the store, factors pending, and, once the basic values have drifted
    # past the bound, through a store rebuilt at the basis, which replaces
    # the store and holds no pending factor
    store = tb.store
    assert store.k > 0
    T, rhs, z = store.copy().T, tb.rhs.copy(), tb.z.copy()
    np.testing.assert_allclose(_basic_values(tb), rhs, rtol=0, atol=1e-10)
    for drift in (0.0, 1e-5):
        tb.rhs = rhs + drift * tb.scale
        assert tb._rederive(drift=True)
        assert (tb.store is store) == (drift == 0.0)
        np.testing.assert_allclose(tb.rhs, rhs, rtol=0, atol=1e-10)
        np.testing.assert_allclose(tb.z, z, rtol=0, atol=1e-10)
    assert tb.store.k == 0
    np.testing.assert_allclose(tb.store.T, T, rtol=0, atol=1e-10)


def test_rebuild_mid_dual_phase(monkeypatch):
    tb = _tableau(_dense_lp(monkeypatch))
    _pivot_up_to(tb, lambda: tb.run_dual(_dual_costs(tb)), 1)
    assert (tb.basis >= tb.nc).any() and (tb.basis < tb.nc).any()
    _assert_rebuild_reproduces(tb)


def test_rebuild_of_a_singular_basis_leaves_the_tableau(monkeypatch):
    tb = _tableau(_dense_lp(monkeypatch))
    _pivot_up_to(tb, lambda: tb.run_dual(_dual_costs(tb)), 1)
    # a slack listed twice makes the basis singular
    p = int(np.flatnonzero(tb.basis < tb.nc)[0])
    tb.basis[p] = tb.basis[int(np.flatnonzero(tb.basis >= tb.nc)[0])]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(_basis_matrix(tb))
    _assert_rebuild_refused(tb, monkeypatch)


def test_rebuild_of_an_ill_conditioned_basis_leaves_the_tableau(
        monkeypatch):
    # two basic columns 1e-12 apart: the inverse exists, but the values
    # refined through it miss the right-hand side by far more than 1e-7
    A = [[1.0, 1.0, 0.5], [1.0, 1.0 + 1e-12, 2.0], [0.3, 0.7, 1.0]]
    tb = _tableau(LinearProgram.from_arrays("max", [1.0, 1.0, 1.0], A,
                                            ["<="] * 3, [1.0, 2.0, 3.0]))
    tb.basis = np.array([0, 1, 5])
    np.linalg.inv(_basis_matrix(tb))
    _assert_rebuild_refused(tb, monkeypatch)


def _assert_rebuild_refused(tb, monkeypatch):
    # neither the store nor one rebuilt at the basis gives values within
    # the bound: the tableau stays as it was
    store = tb.store
    T, k, rhs, z = store.T.copy(), store.k, tb.rhs.copy(), tb.z.copy()
    inverses = []
    _count_inversions(monkeypatch, inverses)
    for drift in (False, True):
        assert not tb._rederive(drift)
        assert tb.store is store and store.k == k
        np.testing.assert_array_equal(store.T, T)
        np.testing.assert_array_equal(tb.rhs, rhs)
        np.testing.assert_array_equal(tb.z, z)
    assert len(inverses) == 2


def test_rebuild_mid_dual_phase_of_the_oracle(monkeypatch):
    # the oracle's costs are nonnegative, so the dual phase from the
    # slack basis prices them: 10 pivots into it
    lp = _oracle_lp(monkeypatch, m=16)
    assert (lp.obj >= 0).all()
    tb = _tableau(lp)
    _pivot_up_to(tb, lambda: tb.run_dual(tb.z), 10)
    assert 0 < (tb.basis < tb.nc).sum() < tb.basis.size
    _assert_rebuild_reproduces(tb)


def test_rebuild_mid_primal_phase_of_the_m10_affine_lp():
    # past a refresh, with factors pending, and free columns basic
    tb = _tableau(build_affine_lp(gen_iid(10, 10, RandomSpec("uniform"), 0)))
    assert tb.run_dual(np.zeros_like(tb.z)) == "optimal"
    _pivot_up_to(tb, lambda: tb._primal(shift=False), 200)
    assert tb.fresh > 0
    assert np.isinf(tb.lo[tb.basis]).any()
    _assert_rebuild_reproduces(tb)


def test_tableau_holds_one_column_per_variable_and_row(monkeypatch):
    # the HRep affine LP of the m=10 table (free z, P and q), a separation
    # MIP (bits in [0, 1]) and the vertex oracle's LP: every tableau is
    # the LP's rows by its columns and one slack per row
    inst = gen_iid(3, 3, RandomSpec("uniform"), 0)
    lps = [build_affine_lp(gen_iid(10, 10, RandomSpec("uniform"), 0)),
           build_separation_mip(inst, np.zeros(3),
                                Digitization.from_instance(inst, 0.1)).lp,
           _oracle_lp(monkeypatch, m=16)]
    assert np.isinf(lps[0].lower).any() and np.isfinite(lps[1].upper).any()
    shapes = []
    init = _Tableau.__init__

    def spy(self, *args, **kw):
        init(self, *args, **kw)
        shapes.append(self.store.T.shape)

    monkeypatch.setattr(_Tableau, "__init__", spy)
    for lp in lps:
        _assert_certified(lp, solve_lp(lp))
    assert shapes == [(lp.num_rows, lp.num_vars + lp.num_rows) for lp in lps]
    assert shapes[0] == (231, 583)


def test_an_early_stop_is_not_certified(monkeypatch):
    # min -x1 - 2 x2 s.t. x1 + x2 <= 4: the slack basis x = 0 is feasible
    # with duals 0, but the reduced costs -1 and -2 show that it is not
    # optimal (the optimum is -8)
    lp = LinearProgram.from_arrays("min", [-1.0, -2.0], [[1.0, 1.0]], ["<="],
                                   [4.0])
    assert solve_lp(lp).objective == pytest.approx(-8.0, abs=1e-12)
    # (private: stands in for a primal phase that stops at once)
    monkeypatch.setattr(_Tableau, "run", lambda self: "optimal")
    with pytest.raises(LpBreakdownError, match="wrong sign"):
        solve_lp(lp)


def test_a_primal_phase_cut_short_is_not_certified(monkeypatch):
    # the HRep affine LP at m=10, its primal phase stopped after 30 pivots
    # and reported optimal: primal feasible, with a consistent dual
    # objective, but not dual feasible
    lp = build_affine_lp(gen_iid(10, 10, RandomSpec("uniform"), 0))
    full = solve_lp(lp)
    run, cut = _Tableau.run, []

    def short(self):
        # (private: the primal phase, run with an iteration limit)
        self.max_iters = self.iterations + 30
        try:
            return run(self)
        except LpBreakdownError:
            cut.append(self.iterations)
            return "optimal"

    monkeypatch.setattr(_Tableau, "run", short)
    with pytest.raises(LpBreakdownError, match="wrong sign"):
        solve_lp(lp)
    assert len(cut) == 1 and cut[0] < full.iterations


def test_invalid_bounds_are_rejected():
    # nan, a lower bound of +inf and an upper bound of -inf bound nothing:
    # both constructors refuse them
    for lower, upper in (([np.nan], None), ([np.inf], None),
                         (None, [-np.inf]), (None, [np.nan]),
                         ([0.0], [np.nan])):
        with pytest.raises(ValueError, match="bound"):
            LinearProgram.from_arrays("min", [1.0], [[1.0]], [">="], [-5.0],
                                      lower=lower, upper=upper)
        with pytest.raises(ValueError, match="bound"):
            LinearProgram("min", [1.0]).with_bounds(
                [0.0] if lower is None else lower,
                [np.inf] if upper is None else upper)


def _bounded_lp():
    # max x + 2y s.t. x + y >= 1.5, 0 <= x, y <= 1: optimum at (1, 1)
    return LinearProgram.from_arrays("max", [1.0, 2.0], [[1.0, 1.0]],
                                     [">="], [1.5], upper=[1.0, 1.0])


def _count_forms(monkeypatch):
    """From now on, record the LP of each standard form built."""
    forms, init = [], _Form.__init__

    def spy(self, lp):
        init(self, lp)
        forms.append(lp)

    monkeypatch.setattr(_Form, "__init__", spy)
    return forms


def test_basis_of_a_solution_restarts_without_pivots(monkeypatch):
    lp = _bounded_lp()
    forms = _count_forms(monkeypatch)
    sol = solve_lp(lp)
    # one row: the bounds are no rows
    assert sol.basis.shape == (lp.num_rows,) == (1,)
    again = solve_lp(lp, start=sol)
    assert again.status == "optimal" and again.iterations == 0
    # the same LP: solved through the start's standard form
    assert forms == [lp]
    np.testing.assert_array_equal(again.basis, sol.basis)
    np.testing.assert_allclose(again.x, sol.x, atol=1e-12)


def test_warm_start_proves_child_infeasible(monkeypatch):
    lp = _bounded_lp()
    parent = solve_lp(lp)
    # fixing x = 0 leaves x + y <= 1 < 1.5
    child = lp.with_bounds([0.0, 0.0], [0.0, 1.0])
    dual = _Tableau.run_dual
    seen = []

    def spy(self, z):
        seen.append(dual(self, z))
        return seen[-1]

    monkeypatch.setattr(_Tableau, "run_dual", spy)
    sol = solve_lp(child, start=parent)
    assert seen == ["infeasible"]
    assert sol.status == "infeasible"
    _assert_farkas(child, sol.farkas)


def test_warm_start_of_wrong_length_is_rejected():
    lp = _bounded_lp()
    sol = solve_lp(lp)
    basis = sol.basis
    for bad in (basis[:-1], np.append(basis, 0), np.full(basis.size, 99)):
        with pytest.raises(ValueError, match="column indices"):
            solve_lp(lp, start=replace(sol, basis=bad))


def test_only_an_optimal_solution_starts():
    lp = _bounded_lp()
    # fixing x = 0 leaves x + y <= 1 < 1.5
    infeasible = solve_lp(lp.with_bounds([0.0, 0.0], [0.0, 1.0]))
    assert infeasible.status == "infeasible"
    with pytest.raises(ValueError, match="optimal"):
        solve_lp(lp, start=infeasible)


def _assert_cold_answer(lp, start):
    warm, cold = solve_lp(lp, start=start), solve_lp(lp)
    assert warm.status == cold.status == "optimal"
    _assert_same_bits(warm, cold)
    _assert_certified(lp, warm)


def test_a_start_on_other_rows_gives_the_cold_answer():
    # a start of the right shape, solved on other rows: the solve is
    # cold, bit for bit
    _assert_cold_answer(small_lp(), solve_lp(LinearProgram.from_arrays(
        "max", [1.0, 1.0], [[2.0, 1.0], [1.0, 3.0]], ["<=", "<="],
        [2.0, 3.0])))


def test_a_start_whose_nonbasic_column_moves_gives_the_cold_answer(
        monkeypatch):
    # the start's optimum (1, 1) has both columns nonbasic at their upper
    # bound; lowering one bound to 0.8 moves that column, so the start
    # is not resumed and the solve is cold, bit for bit
    lp = _bounded_lp()
    start = solve_lp(lp)
    assert not np.isin([0, 1], start.basis).any()
    resume, started = _Tableau.resume, []

    def spy(self, lp):
        started.append(resume(self, lp))
        return started[-1]

    monkeypatch.setattr(_Tableau, "resume", spy)
    _assert_cold_answer(lp.with_bounds([0.0, 0.0], [0.8, 1.0]), start)
    assert started == [None]


def test_start_from_other_rows_builds_its_own_form(monkeypatch):
    # the start was solved on other rows than these (scaled by 2): the
    # LP is solved cold, through a form of its own, to a certified
    # optimum
    lp = _dense_lp(monkeypatch)
    parent = solve_lp(lp)
    other = LinearProgram.from_arrays(lp.sense, lp.obj, 2.0 * lp.A, lp.rel,
                                      lp.b)
    forms = _count_forms(monkeypatch)
    sol = solve_lp(other, start=parent)
    assert forms == [other]
    cold = solve_lp(other)
    assert sol.status == cold.status == "optimal"
    assert sol.iterations == cold.iterations > 0
    assert sol.objective == pytest.approx(cold.objective, rel=1e-9)
    _assert_certified(other, sol)


def _highs_status(lp):
    """HiGHS's status and value for ``lp`` (a min LP).  HiGHS reports
    status 2, infeasible, for some feasible and unbounded LPs, so its
    status 2 is checked on the same rows with a zero objective: if that
    LP is feasible, ``lp`` is unbounded."""
    ref = _highs(lp)
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
    if (status == "infeasible"
            and _highs(lp.with_objective(np.zeros(lp.num_vars))).status == 0):
        status = "unbounded"
    return status, ref.fun


@pytest.mark.parametrize("seed", range(12))
def test_nonnegative_costs_start_at_the_slack_basis(seed):
    # >= rows with positive right-hand sides: the slack basis is primal
    # infeasible, but with c >= 0 it is dual feasible, so the dual phase
    # solves the LP with no artificial column
    rng = np.random.default_rng(seed)
    n, k = 4 + seed % 5, 3 + seed % 4
    A = rng.uniform(-0.5, 1.0, (2 * k, n))
    b = np.concatenate([rng.uniform(0.5, 2.0, k), rng.uniform(1.0, 4.0, k)])
    c = rng.random(n) * (rng.random(n) < 0.8)   # some zero costs
    upper = np.where(rng.random(n) < 0.3, rng.uniform(1.0, 3.0, n), np.inf)
    lp = LinearProgram.from_arrays("min", c, A, [">="] * k + ["<="] * k, b,
                                   upper=upper)
    sol = solve_lp(lp)
    status, value = _highs_status(lp)
    assert sol.status == status
    if status == "optimal":
        assert sol.objective == pytest.approx(value, rel=1e-9, abs=1e-12)
    _assert_certified(lp, sol)


def test_nonnegative_costs_prove_infeasibility():
    # x1 + x2 >= 3 and x1 + x2 <= 1: the dual phase finds a row with a
    # negative right-hand side and no negative entry
    lp = LinearProgram.from_arrays("min", [1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]],
                                   [">=", "<="], [3.0, 1.0])
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    _assert_farkas(lp, sol.farkas)
    assert sol.farkas @ lp.b < -1.0


def test_fixed_column_with_negative_cost_keeps_the_slack_start(monkeypatch):
    # x3 is fixed at 1, so its cost -5 is never priced: the slack basis is
    # still dual feasible on every column that can move, and the dual
    # phase prices the costs
    rows = [[1.0, 1.0, 1.0]]
    lp = LinearProgram.from_arrays("min", [1.0, 2.0, -5.0], rows, [">="],
                                   [3.0], upper=[np.inf, np.inf, 1.0],
                                   lower=[0.0, 0.0, 1.0])
    dual, costs = _Tableau.run_dual, []

    def spy(self, z):
        costs.append(z is self.z)
        return dual(self, z)

    monkeypatch.setattr(_Tableau, "run_dual", spy)
    sol = solve_lp(lp)
    assert costs == [True]
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [2.0, 0.0, 1.0], atol=1e-12)
    assert sol.objective == pytest.approx(-3.0, abs=1e-12)
    _assert_certified(lp, sol)
    # x1 + x2 + 2 x3 <= 2 leaves x1 + x2 <= 0 < 2: the Farkas vector
    # leans on the fixed column's bound
    bad = LinearProgram.from_arrays("min", [1.0, 2.0, -5.0],
                                    rows + [[1.0, 1.0, 2.0]], [">=", "<="],
                                    [3.0, 2.0], upper=[np.inf, np.inf, 1.0],
                                    lower=[0.0, 0.0, 1.0])
    sol = solve_lp(bad)
    assert sol.status == "infeasible"
    _assert_farkas(bad, sol.farkas)


def _mixed_lp(seed):
    """Negative costs, >= and <= rows and an equality as a >=/<= pair,
    and free, boxed, lower-bounded, upper-bounded and fixed columns: the
    dual phase runs on zero costs."""
    rng = np.random.default_rng(seed)
    n, k = 4 + seed % 5, 2 + seed % 3
    A = rng.uniform(-0.5, 1.0, (2 * k + 1, n))
    b = np.concatenate([rng.uniform(0.2, 1.0, k), rng.uniform(-1.0, 1.0, 1),
                        rng.uniform(1.0, 4.0, k)])
    c = rng.uniform(-1.0, 1.0, n)
    # 0 free, 1 boxed, 2 lower only, 3 upper only, 4 fixed
    kind = rng.integers(0, 5, n)
    lower = np.where(kind == 0, -np.inf, 0.0)
    upper = np.where((kind == 1) | (kind == 3), rng.uniform(1.0, 3.0, n),
                     np.inf)
    lower[kind == 3] = -np.inf
    lower[kind == 4] = upper[kind == 4] = rng.uniform(-0.5, 0.5, n)[kind == 4]
    rows = np.r_[0:k + 1, k:2 * k + 1]  # row k twice
    return LinearProgram.from_arrays("min", c, A[rows], [">="] * (k + 1)
                                     + ["<="] * (k + 1), b[rows], lower, upper)


def _highs(lp):
    linprog = pytest.importorskip("scipy.optimize").linprog
    sign = np.where(lp.rel == GE, -1.0, 1.0)
    return linprog(lp.obj, A_ub=lp.A * sign[:, None], b_ub=lp.b * sign,
                   bounds=[(None if np.isinf(lo) else lo,
                            None if np.isinf(up) else up)
                           for lo, up in zip(lp.lower, lp.upper)],
                   method="highs")


def _cold_point(lp):
    """Where a cold start puts the columns: at the lower bound, else at
    the upper one, else at 0."""
    return np.where(np.isfinite(lp.lower), lp.lower,
                    np.where(np.isfinite(lp.upper), lp.upper, 0.0))


def test_negative_costs_match_highs():
    outcomes, zero_costs = set(), 0
    for seed in range(30):
        lp = _mixed_lp(seed)
        # the slack basis breaks some row, and mostly some cost improves
        # on its column's side, so the dual phase runs on zero costs
        x0 = _cold_point(lp)
        sign = np.where(lp.rel == GE, -1.0, 1.0)
        assert (sign * (lp.A @ x0 - lp.b) > 0).any()
        zero_costs += (((lp.obj < 0) & (x0 < lp.upper))
                       | ((lp.obj > 0) & (x0 > lp.lower))).any()
        sol = solve_lp(lp)
        status, value = _highs_status(lp)
        assert sol.status == status, f"seed {seed}"
        outcomes.add(status)
        if status == "optimal":
            assert sol.objective == pytest.approx(value, rel=1e-9,
                                                  abs=1e-12), f"seed {seed}"
        _assert_certified(lp, sol)
    assert outcomes == {"optimal", "infeasible", "unbounded"}
    assert zero_costs >= 25


@pytest.mark.parametrize("move", ["fix", "tighten", "shift", "cross"])
def test_warm_bound_changes_match_highs(move, monkeypatch):
    # the optimum of an LP with boxed columns starts the LP with one
    # boxed column fixed at the middle of its box, the box tightened
    # around that middle or shifted past the column's value, or its
    # bounds crossed.  Where the column is basic (the case of a
    # branch-and-bound child), the solve resumes the start's tableau and gives
    # HiGHS's answer; where it is nonbasic, the change moves it, and the
    # solve is cold, bit for bit
    resume, started = _Tableau.resume, []

    def spy(self, lp):
        tb = resume(self, lp)
        started.append(tb is not None)
        return tb

    monkeypatch.setattr(_Tableau, "resume", spy)
    forms = _count_forms(monkeypatch)
    basic = []
    for seed in range(30):
        lp = _mixed_lp(seed)
        parent = solve_lp(lp)
        del forms[:]
        boxed = np.isfinite(lp.lower) & np.isfinite(lp.upper)
        boxed &= lp.lower < lp.upper
        if parent.status != "optimal" or not boxed.any():
            continue
        # the first boxed column that is basic and the first that is not
        cols = np.flatnonzero(boxed)
        in_basis = np.isin(cols, parent.basis)
        for j in sorted({int(cols[in_basis.argmax()]),
                         int(cols[in_basis.argmin()])}):
            lo, up, v = lp.lower.copy(), lp.upper.copy(), parent.x[j]
            span = up[j] - lo[j]
            if move == "fix":
                lo[j] = up[j] = lo[j] + 0.5 * span
            elif move == "tighten":
                lo[j], up[j] = lo[j] + 0.25 * span, up[j] - 0.25 * span
            elif move == "shift":
                lo[j], up[j] = v + 0.5, v + 0.5 + span
            else:
                lo[j], up[j] = v + 0.5, v - 0.5
            child = lp.with_bounds(lo, up)
            sol = solve_lp(child, start=parent)
            if move == "cross":
                assert sol.status == "infeasible" and sol.farkas is None
                continue
            # solved through the parent's standard form
            assert forms == []
            basic.append(j in parent.basis)
            if basic[-1]:
                status, value = _highs_status(child)
                assert sol.status == status, f"seed {seed}"
                if status == "optimal":
                    assert sol.objective == pytest.approx(
                        value, rel=1e-9, abs=1e-12), f"seed {seed}"
            else:
                _assert_same_bits(sol, solve_lp(child))
                del forms[:]
            _assert_certified(child, sol)
    assert started == basic
    if move != "cross":
        assert sum(basic) >= 5 and len(basic) - sum(basic) >= 5


def _assert_same_bits(a, b):
    assert a.status == b.status and a.iterations == b.iterations
    if a.status == "optimal":
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.duals, b.duals)
        np.testing.assert_array_equal(a.basis, b.basis)


def _resume_in_any_order(parent, sibs):
    """Solve each LP of ``sibs`` from ``parent``, then again in two other
    orders: the same bits each time, certified, and the parent's point
    and basis left as they were.  Returns the first solutions."""
    x, basis = parent.x.copy(), parent.basis.copy()
    first = [solve_lp(sib, start=parent) for sib in sibs]
    n = len(sibs)
    for order in (range(n - 1, -1, -1), [*range(1, n), 0, 1]):
        for i in order:
            _assert_same_bits(solve_lp(sibs[i], start=parent), first[i])
    for sib, sol in zip(sibs, first):
        _assert_certified(sib, sol)
    np.testing.assert_array_equal(parent.x, x)
    np.testing.assert_array_equal(parent.basis, basis)
    return first


def test_siblings_resume_a_parent_that_made_no_pivot():
    # the parent's optimum is its slack basis, so its tableau holds no
    # pending factor; each sibling (another objective on two rows) makes
    # enough pivots to fold a block of factors into its tableau
    rng = np.random.default_rng(0)
    lp = LinearProgram.from_arrays("max", -np.ones(8),
                                   rng.uniform(0.2, 1.0, (2, 8)),
                                   ["<="] * 2, [1.0, 1.5], upper=np.ones(8))
    parent = solve_lp(lp)
    assert parent.status == "optimal" and parent.iterations == 0
    sibs = [lp.with_objective(rng.uniform(-0.2, 1.0, 8)) for _ in range(6)]
    first = _resume_in_any_order(parent, sibs)
    assert sum(sol.iterations >= 4 for sol in first) >= 3


def test_siblings_resume_one_parent_in_either_order():
    # down a branch-and-bound dive of separation LPs, the two children of
    # a parent (its most fractional bit fixed at 0 and at 1) and an LP
    # with another objective, all started from the parent: any order
    # gives the same bits, and the parent is left as it was, so a resume
    # that wrote into the start's tableau would fail here
    parents = pivots = 0
    for seed in range(3):
        lp, bits = _separation_lp(seed)
        parent_lp, parent = lp, solve_lp(lp)
        rng = np.random.default_rng(seed)
        while parent.status == "optimal":
            frac = np.abs(parent.x[bits] - np.round(parent.x[bits]))
            if frac.max() <= 1e-6:
                break
            j = bits[int(np.argmax(frac))]
            sibs = []
            for v in (0.0, 1.0):
                lo, up = parent_lp.lower.copy(), parent_lp.upper.copy()
                lo[j] = up[j] = v
                sibs.append(parent_lp.with_bounds(lo, up))
            sibs.append(parent_lp.with_objective(
                lp.obj * rng.uniform(0.5, 1.5, lp.num_vars)))
            first = _resume_in_any_order(parent, sibs)
            pivots += sum(sol.iterations for sol in first)
            parents += 1
            # down the child with the better bound
            parent_lp, parent = max(
                ((sib, sol) for sib, sol in zip(sibs[:2], first[:2])
                 if sol.status == "optimal"),
                key=lambda pair: pair[1].objective, default=(None, first[0]))
    assert parents >= 20 and pivots >= 6 * parents


def _separation_lp(seed=0):
    """The root LP of an m=3 separation MIP (eps 0.1) and its bits."""
    rng = np.random.default_rng(seed)
    inst = Instance(m=3, n=3, c=0.2 * rng.random(3),
                    A=0.3 * rng.random((3, 3)), B=0.1 + rng.random((3, 3)),
                    d_bar=1.0, uncertainty=budget_set(3), seed=seed)
    prob = build_separation_mip(inst, np.zeros(3),
                                Digitization.from_instance(inst, 0.1))
    return prob.lp, np.asarray(prob.binary_vars)


def test_a_chain_of_warm_re_solves_matches_cold_solves(monkeypatch):
    # each link fixes up to three bits of the separation LP that are
    # basic in the last optimal link, as a branch-and-bound dive does,
    # and starts from that link, until no basic bit is left free: every
    # link resumes its start, is certified and has the value of its cold
    # solve, in far fewer pivots
    resume, started = _Tableau.resume, []

    def spy(self, lp):
        tb = resume(self, lp)
        started.append(tb is not None)
        return tb

    monkeypatch.setattr(_Tableau, "resume", spy)
    lp, bits = _separation_lp()
    links, warm_pivots, cold_pivots = 0, 0, 0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        link, start = lp, solve_lp(lp)
        while True:
            free = bits[np.isin(bits, start.basis)
                        & (link.lower[bits] < link.upper[bits])]
            if not free.size:
                break
            pick = rng.choice(free, min(3, free.size), replace=False)
            lo, up = link.lower.copy(), link.upper.copy()
            lo[pick] = up[pick] = rng.integers(0, 2, pick.size)
            child = link.with_bounds(lo, up)
            sol, cold = solve_lp(child, start=start), solve_lp(child)
            assert sol.status == cold.status
            _assert_certified(child, sol)
            if sol.status == "optimal":
                assert sol.objective == pytest.approx(cold.objective,
                                                      rel=1e-9, abs=1e-9)
                link, start = child, sol
                warm_pivots += sol.iterations
                cold_pivots += cold.iterations
                links += 1
    assert all(started) and len(started) >= links >= 15
    assert warm_pivots < cold_pivots / 2


def test_a_start_with_another_objective_matches_the_cold_solve():
    # the cut loop's case: the next separation MIP's root has the last
    # root's rows and bounds and another objective
    lp, _ = _separation_lp()
    start = solve_lp(lp)
    rng = np.random.default_rng(2)
    for _ in range(10):
        other = lp.with_objective(lp.obj - np.concatenate(
            (rng.uniform(0.0, 1.0, 3), np.zeros(lp.num_vars - 3))))
        assert other.A is lp.A and other.lower is lp.lower
        sol, cold = solve_lp(other, start=start), solve_lp(other)
        assert sol.status == cold.status == "optimal"
        assert sol.objective == pytest.approx(cold.objective, rel=1e-9,
                                              abs=1e-9)
        _assert_certified(other, sol)
        start = sol


def test_negative_costs_reach_an_unbounded_ray_after_the_dual_phase(
        monkeypatch):
    # min -x1 s.t. x1 + x2 >= 2: the slack basis is infeasible, the dual
    # phase on zero costs makes it feasible, and the primal phase finds
    # the ray
    lp = LinearProgram.from_arrays("min", [-1.0, 0.0], [[1.0, 1.0]], [">="],
                                   [2.0])
    phases = []
    dual, primal = _Tableau.run_dual, _Tableau.run

    def spy_dual(self, z):
        phases.append(("dual", dual(self, z)))
        return phases[-1][1]

    def spy_primal(self):
        phases.append(("primal", primal(self)))
        return phases[-1][1]

    monkeypatch.setattr(_Tableau, "run_dual", spy_dual)
    monkeypatch.setattr(_Tableau, "run", spy_primal)
    sol = solve_lp(lp)
    assert phases == [("dual", "optimal"), ("primal", "unbounded")]
    assert sol.status == "unbounded" and sol.iterations >= 1
    _assert_improving_ray(lp, sol.ray)
    assert sol.ray[0] > 0


def test_zero_cost_dual_phase_ends_under_any_bland_switch(monkeypatch):
    # with zero costs every dual ratio ties, so Bland's rule is what
    # guarantees the phase ends: switch to it after 0-7 pivots, or never
    inst = gen_iid(3, 3, RandomSpec("uniform"), 0)
    lp = build_affine_lp(inst)
    want = solve_affine(inst).objective
    dual, zero = _Tableau.run_dual, []

    def spy(self, z):
        zero.append(not z.any())
        return dual(self, z)

    monkeypatch.setattr(_Tableau, "run_dual", spy)
    for bland_after in [*range(8), 10**6]:
        with _bland_after(bland_after):
            sol = solve_lp(lp)
        assert sol.objective == pytest.approx(want, rel=1e-12, abs=1e-12)
        _assert_certified(lp, sol)
    assert zero == [True] * 9


def test_nonnegative_costs_without_rows():
    # the dual phase has no row to pick: y = 0 is optimal at once
    sol = solve_lp(LinearProgram("min", [1.0, 0.0]))
    assert sol.status == "optimal" and sol.iterations == 0
    np.testing.assert_array_equal(sol.x, [0.0, 0.0])


def test_boxed_columns_without_rows_flip_to_their_bounds():
    # max x1 - x2 + 0 x3 with x1, x2 in [-1, 2] and x3 free: x1 flips to
    # its upper bound with no basis change, x2 stays at its lower one
    sol = solve_lp(LinearProgram("max", [1.0, -1.0, 0.0],
                                 lower=[-1.0, -1.0, -np.inf],
                                 upper=[2.0, 2.0, np.inf]))
    assert sol.status == "optimal" and sol.iterations == 1
    np.testing.assert_array_equal(sol.x, [2.0, -1.0, 0.0])
    assert sol.objective == 3.0


def _count_dual_phases(monkeypatch):
    """From now on, record each dual phase: True where it prices the
    costs, False where it runs on zeros."""
    dual, priced = _Tableau.run_dual, []

    def spy(self, z):
        priced.append(z is self.z)
        return dual(self, z)

    monkeypatch.setattr(_Tableau, "run_dual", spy)
    return priced


def test_unshifting_out_of_bounds_runs_the_dual_phase(monkeypatch):
    # the HRep affine LP at m=8 shifts its slack bounds early in the
    # primal phase.  Shifted by 1e-2, the optimum of the shifted LP puts
    # basic slacks clearly below 0 once the shift is taken back, so a
    # dual phase on the costs and a primal phase without a shift finish
    # the solve, at the LP's own optimum
    lp = build_affine_lp(gen_iid(8, 8, RandomSpec("uniform"), 3))
    clean = solve_lp(lp)
    monkeypatch.setattr(lp_module, "_SHIFT", 1e-2)
    priced = _count_dual_phases(monkeypatch)
    sol = solve_lp(lp)
    assert priced == [False, True]
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(_highs(lp).fun, rel=1e-9)
    assert sol.objective == pytest.approx(clean.objective, rel=1e-12)
    _assert_certified(lp, sol)


@pytest.mark.parametrize("amount", [None, 1e-2])
def test_shifting_at_the_first_zero_step_matches_highs(amount, monkeypatch):
    # every primal phase that makes a zero step shifts the slack bounds,
    # by the kernel's amount and by one large enough that unshifting
    # often leaves a basic value out of bounds: the statuses, values and
    # certificates stay those of the LPs themselves
    monkeypatch.setattr(lp_module, "_SHIFT_AFTER", 0)
    if amount is not None:
        monkeypatch.setattr(lp_module, "_SHIFT", amount)
    priced = _count_dual_phases(monkeypatch)
    shift, shifts = _Tableau._shift, []

    def spy(self):
        shifts.append(self.iterations)
        shift(self)

    monkeypatch.setattr(_Tableau, "_shift", spy)
    lps = [_mixed_lp(seed) for seed in range(30)]
    lps += [build_affine_lp(gen_iid(m, m, RandomSpec("uniform"), seed))
            for m in (4, 6, 8) for seed in range(4)]
    for lp in lps:
        sol = solve_lp(lp)
        status, value = _highs_status(lp)
        assert sol.status == status
        if status == "optimal":
            assert sol.objective == pytest.approx(value, rel=1e-9, abs=1e-12)
        _assert_certified(lp, sol)
    assert len(shifts) >= 12
    # one dual phase per LP, and one more where an unshift left a basic
    # value outside its bounds
    if amount is not None:
        assert len(priced) - len(lps) >= 5


def test_a_refresh_keeps_the_slacks_at_their_shifted_bounds(monkeypatch):
    # 100 pivots into the primal phase of the m=10 affine LP, shifted at
    # its first zero step, some nonbasic slacks sit at their shifted
    # bounds: the rows leave the basic columns g - N xn with those
    # values, so a refresh from the pristine data, and a dense solve of
    # the basis, reproduce the basic values the pivots kept
    monkeypatch.setattr(lp_module, "_SHIFT_AFTER", 0)
    tb = _tableau(build_affine_lp(gen_iid(10, 10, RandomSpec("uniform"), 0)))
    assert tb.run_dual(np.zeros_like(tb.z)) == "optimal"
    _pivot_up_to(tb, lambda: tb._primal(shift=True), 100)
    assert tb.shifted and (tb.xn[tb.nc:] < 0.0).any()
    before = tb.rhs.copy()
    np.testing.assert_allclose(_basic_values(tb), before, rtol=0, atol=1e-10)
    tb.refresh()
    np.testing.assert_allclose(tb.rhs, before, rtol=0, atol=1e-10)


def test_the_m10_affine_lp_solves_the_same_twice():
    lp = build_affine_lp(gen_iid(10, 10, RandomSpec("uniform"), 0))
    a, b = solve_lp(lp), solve_lp(lp)
    assert a.iterations == b.iterations
    assert a.objective == b.objective
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.duals, b.duals)
    np.testing.assert_array_equal(a.basis, b.basis)


def _spy_refinement(monkeypatch):
    """From now on, check every ``refine_optimal``: its objective must
    match a dense solve of the same basis to 1e-12 relative; and count
    the refreshes and every ``np.linalg.inv``.  Returns the checked
    objectives, the refreshes and the shapes of the inverted matrices."""
    inverses, checked, refreshes = [], [], []
    refine, refresh = _Tableau.refine_optimal, _Tableau.refresh

    def objective(tb, xb):
        x = tb.xn.copy()
        x[tb.basis] = xb
        return float(tb.cost @ x)

    def spy(self):
        refine(self)
        got = objective(self, self.rhs)
        want = objective(self, _basic_values(self))
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)
        checked.append(want)

    def counted_refresh(self, primal=True):
        refreshes.append(self.iterations)
        refresh(self, primal)

    _count_inversions(monkeypatch, inverses)
    monkeypatch.setattr(_Tableau, "refine_optimal", spy)
    monkeypatch.setattr(_Tableau, "refresh", counted_refresh)
    return checked, refreshes, inverses


def test_refinement_matches_the_inversion_on_the_worst_case_family(
        monkeypatch):
    # the refreshes fold the factors and refine, and no solve inverts
    checked, refreshes, inverses = _spy_refinement(monkeypatch)
    for seed in range(12):
        inst = gen_worst_case(16, randomized=True, seed=seed)
        solve_affine(inst)
        adjustable.solve_adjustable_vertex_oracle(inst)
    assert len(checked) == 24
    assert len(refreshes) >= 12
    assert inverses == []


def test_refinement_matches_the_inversion_on_the_m10_table(monkeypatch):
    checked, refreshes, inverses = _spy_refinement(monkeypatch)
    rows, _ = run_benchmark(BenchConfig(kind="uniform", m_list=[10],
                                        count=30, seed_base=0))
    assert [r.status for r in rows] == ["ok"] * 30
    assert len(checked) > 300
    assert len(refreshes) >= 30
    assert inverses == []


def test_the_m20_affine_lp_refreshes_with_no_inversion(monkeypatch):
    # 861 rows and 1,302 columns: ten refreshes or more, none of them
    # inverts, and the value is HiGHS's
    lp = build_affine_lp(generate_bench_instance("uniform", 20, 20, 0))
    checked, refreshes, inverses = _spy_refinement(monkeypatch)
    sol = solve_lp(lp)
    assert sol.status == "optimal" and len(checked) == 1
    assert len(refreshes) >= 10
    assert inverses == []
    assert lp.sense == "min"
    assert sol.objective == pytest.approx(_highs(lp).fun, rel=1e-7)


@pytest.mark.parametrize("corrupt", [False, True])
def test_refinement_falls_back_to_the_inversion(corrupt, monkeypatch):
    # drift the basic values and reduced costs of the final tableau far
    # past roundoff: the slack block's inverse removes the drift with no
    # inversion, and a corrupted slack block cannot, so the residual
    # check sends refine_optimal through a store rebuilt at the basis
    lp = _oracle_lp(monkeypatch, m=16)
    clean = solve_lp(lp)
    refine, calls, inversions = _Tableau.refine_optimal, [], []

    def drifted(self):
        self.rhs = self.rhs + 1e-5 * self.scale
        self.z += 1e-5
        if corrupt:
            self.store.T[:, self.nc:] *= 2.0
        before = len(calls)
        refine(self)
        inversions.append(len(calls) - before)

    monkeypatch.setattr(_Tableau, "refine_optimal", drifted)
    _count_inversions(monkeypatch, calls)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert inversions == [int(corrupt)]
    assert sol.objective == pytest.approx(clean.objective, rel=1e-12)
    np.testing.assert_allclose(sol.x, clean.x, rtol=0, atol=1e-10)
    np.testing.assert_allclose(sol.duals, clean.duals, rtol=0, atol=1e-10)


@pytest.mark.parametrize("drift,corrupt", [(1e-9, False), (1e-9, True),
                                           (1e-5, False)])
def test_a_refresh_falls_back_to_the_inversion(drift, corrupt, monkeypatch):
    # drift the basic values before the first refresh.  Within the bound,
    # refinement through the slack block removes the drift with no
    # inversion.  A slack block corrupted as well amplifies the drift
    # past the bound, and a drift past it is not refined through the
    # store at all: either way the refresh refines through a store
    # rebuilt at the basis, which also replaces the corrupted block
    lp = _oracle_lp(monkeypatch, m=16)
    clean = solve_lp(lp)
    falls_back = corrupt or drift > 1e-7
    refresh, calls, inversions = _Tableau.refresh, [], []

    def drifted(self, primal=True):
        if not inversions:
            self.rhs = self.rhs + drift * self.scale
            if corrupt:
                self.store.T[:, self.nc:] *= 1e3
        before = len(calls)
        refresh(self, primal)
        inversions.append(len(calls) - before)

    monkeypatch.setattr(_Tableau, "refresh", drifted)
    _count_inversions(monkeypatch, calls)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert len(inversions) >= 2
    assert inversions == [int(falls_back)] + [0] * (len(inversions) - 1)
    assert sol.objective == pytest.approx(clean.objective, rel=1e-12)
    np.testing.assert_allclose(sol.x, clean.x, rtol=0, atol=1e-10)
    np.testing.assert_allclose(sol.duals, clean.duals, rtol=0, atol=1e-10)
