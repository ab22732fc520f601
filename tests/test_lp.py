import itertools

import numpy as np
import pytest

from adjrobust import adjustable
from adjrobust.adjustable import Digitization, build_separation_mip
from adjrobust.affine import build_affine_lp, solve_affine
from adjrobust.bench import BenchConfig, run_benchmark
from adjrobust.instances import RandomSpec, budget_set, gen_iid, gen_worst_case
from adjrobust.lp import (
    _FEAS_TOL,
    GE,
    LE,
    LinearProgram,
    LpBreakdownError,
    _Form,
    _Tableau,
    _validate_farkas,
    solve_lp,
)
from adjrobust.rng import SplitMix64


def _standard(lp):
    """The standard form of ``lp``: its ``_Form`` and what its bound
    values move."""
    form = _Form(lp)
    return form, form.standardize(lp.lower, lp.upper)


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
    # l == u keeps the column, pinned by an upper-bound row with rhs 0
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
    # fixed) and rows of each relation, the last two an equality as a pair
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
    form, st = _standard(lp)
    # the free variable splits into y+ and y-, the upper-only one is
    # mirrored, and the boxed and fixed ones keep a column each
    np.testing.assert_array_equal(form.col_orig, [0, 0, 1, 2, 3, 4])
    np.testing.assert_array_equal(form.col_sign, [1, -1, 1, -1, 1, 1])
    np.testing.assert_array_equal(st.shift, [0, 1, 2, -1, 2])
    # >= negated, then one upper-bound row per boxed column; the fixed
    # one's right-hand side is 0
    np.testing.assert_array_equal(form.row_sign, [1, -1, 1, -1])
    np.testing.assert_array_equal(form.G, [
        [1, -1, 2, -3, 4, 5],
        [-6, 6, -7, 8, -9, -10],
        [11, -11, 12, -13, 14, 15],
        [-11, 11, -12, 13, -14, -15],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ])
    # b - A @ shift with A @ shift = (14, 34, 54); upper - lower = 4, 0
    np.testing.assert_array_equal(st.g, [-4, 14, -24, 24, 4, 0])
    np.testing.assert_array_equal(form.c, [1, -1, 2, -3, 4, 5])
    assert st.const == 14.0
    np.testing.assert_array_equal(st.fixed_cols, [5])
    np.testing.assert_array_equal(st.fixed_rows, [5])


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
    lam = sol.farkas
    assert lam is not None and lam.min() >= -1e-9


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
    form, st = _standard(lp)
    for bland_after in [*range(8), 10**6]:
        tb = _Tableau(form.c, form.G, st.g, bland_after, 200)
        assert tb.run(tb.z, np.ones(tb.T.shape[1], dtype=bool)) == "optimal"
        np.testing.assert_allclose(-tb.z[-1], -1.25, atol=1e-12)


def test_deterministic_iteration_count():
    a = solve_lp(small_lp())
    b = solve_lp(small_lp())
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.x, b.x)


def test_with_bounds_shares_rows():
    lp = small_lp()
    child = lp.with_bounds(lower=[0.0, 0.5], upper=[np.inf, 0.5])
    assert child.A is lp.A
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


def _dual_costs(tb, form):
    """The row ``_simplex`` prices in a cold dual phase."""
    return tb.z if (form.c >= 0).all() else np.zeros_like(tb.z)


@pytest.mark.parametrize("make_lp,block", [(_oracle_lp, 4),
                                           (_large_dense_lp, 4),
                                           (_dense_lp, 1)])
def test_deferred_pivots_match_eager_update(make_lp, block, monkeypatch):
    form, st = _standard(make_lp(monkeypatch))
    tb = _Tableau(form.c, form.G, st.g, 10**6, 10**6)
    assert (tb.rhs < 0).any()
    # a small factor block, so that pivots also fold full blocks into T;
    # without refreshes only those folds make T current
    tb.U, tb.V = tb.U[:, :block], tb.V[:block]
    monkeypatch.setattr(_Tableau, "refresh", lambda self, primal=True: None)
    ref = np.column_stack([tb.T, tb.rhs])
    pivot = _Tableau.pivot
    folds = []

    def spy(self, p, q, col=None, row=None):
        np.testing.assert_allclose(self.column(q), ref[:, q], atol=1e-12)
        np.testing.assert_allclose(self.row(p), ref[p, :-1], atol=1e-12)
        folds.append(self.k == block)
        pivot(self, p, q, col, row)
        _dense_pivot(ref, p, q)
        np.testing.assert_allclose(self.rhs, ref[:, -1], atol=1e-12)

    monkeypatch.setattr(_Tableau, "pivot", spy)
    priced = np.ones(tb.T.shape[1], dtype=bool)
    assert tb.run_dual(_dual_costs(tb, form), priced) == "optimal"
    assert tb.iterations > 0 and (tb.rhs >= 0).all()
    assert tb.run(tb.z, priced) == "optimal"
    assert any(folds)
    tb.materialize()
    assert tb.k == 0
    np.testing.assert_allclose(tb.T, ref[:, :-1], atol=1e-12)
    np.testing.assert_allclose(tb.rhs, ref[:, -1], atol=1e-12)


def _tableau(lp):
    """The cold tableau of ``lp`` at the slack basis, and its form."""
    form, st = _standard(lp)
    return _Tableau(form.c, form.G, st.g, 10**6, 10**6), form


def _pivot_up_to(tb, run, pivots):
    """Run a phase (``run()``) for exactly ``pivots`` more pivots."""
    tb.max_iters = tb.iterations + pivots
    with pytest.raises(LpBreakdownError, match="iteration limit"):
        run()


def _basis_matrix(tb):
    """The basis columns of ``[G | I]``; the tableau stores ``G`` only."""
    return np.hstack([tb.M0, np.eye(tb.M0.shape[0])])[:, tb.basis]


def _assert_dense_inverse(tb):
    # the block inverse returns Binv[:, N]; the other columns of Binv are
    # unit columns, basis position K[i] in column rows[i]
    ref = np.linalg.inv(_basis_matrix(tb))
    BN, xb, N, K, rows = tb._basis_inverse()
    Binv = np.zeros_like(ref)
    Binv[:, N] = BN
    Binv[K, rows] = 1.0
    np.testing.assert_allclose(Binv, ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(xb, ref @ tb.g0, rtol=0, atol=1e-10)


def test_block_inverse_mid_dual_phase(monkeypatch):
    tb, form = _tableau(_dense_lp(monkeypatch))
    priced = np.ones(tb.T.shape[1], dtype=bool)
    _pivot_up_to(tb, lambda: tb.run_dual(_dual_costs(tb, form), priced), 1)
    assert (tb.basis >= tb.nc).any() and (tb.basis < tb.nc).any()
    _assert_dense_inverse(tb)
    # a slack listed twice makes the basis singular
    p = int(np.flatnonzero(tb.basis < tb.nc)[0])
    tb.basis[p] = tb.basis[int(np.flatnonzero(tb.basis >= tb.nc)[0])]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(_basis_matrix(tb))
    assert tb._basis_inverse() is None


def test_block_inverse_of_permuted_slack_basis(monkeypatch):
    # no structural column basic (s = 0), and slacks out of row order
    tb, _ = _tableau(_dense_lp(monkeypatch))
    tb.basis = tb.nc + np.arange(tb.basis.size)[::-1]
    _assert_dense_inverse(tb)


def test_block_inverse_mid_phase2_oracle(monkeypatch):
    # the oracle's costs are nonnegative, so the dual phase from the
    # slack basis prices them: 10 pivots into it
    tb, form = _tableau(_oracle_lp(monkeypatch, m=16))
    assert (form.c >= 0).all()
    priced = np.ones(tb.T.shape[1], dtype=bool)
    _pivot_up_to(tb, lambda: tb.run_dual(tb.z, priced), 10)
    assert 0 < (tb.basis < tb.nc).sum() < tb.basis.size
    _assert_dense_inverse(tb)


def _bounded_lp():
    # max x + 2y s.t. x + y >= 1.5, 0 <= x, y <= 1: optimum at (1, 1)
    return LinearProgram.from_arrays("max", [1.0, 2.0], [[1.0, 1.0]],
                                     [">="], [1.5], upper=[1.0, 1.0])


def test_basis_of_a_solution_restarts_without_pivots():
    lp = _bounded_lp()
    sol = solve_lp(lp)
    assert sol.basis.shape == (_Form(lp).G.shape[0],)
    again = solve_lp(lp, start=sol.basis)
    assert again.status == "optimal" and again.iterations == 0
    np.testing.assert_array_equal(again.basis, sol.basis)
    np.testing.assert_allclose(again.x, sol.x, atol=1e-12)


def test_warm_start_proves_child_infeasible(monkeypatch):
    lp = _bounded_lp()
    parent = solve_lp(lp)
    # fixing x = 0 leaves x + y <= 1 < 1.5
    child = lp.with_bounds([0.0, 0.0], [0.0, 1.0])
    dual = _Tableau.run_dual
    seen = []

    def spy(self, z, priced):
        seen.append(dual(self, z, priced))
        return seen[-1]

    monkeypatch.setattr(_Tableau, "run_dual", spy)
    sol = solve_lp(child, start=parent.basis)
    assert seen == ["infeasible"]
    assert sol.status == "infeasible"
    form, st = _standard(child)
    lam = sol.farkas
    assert lam.min() >= 0.0
    assert (lam @ form.G).min() >= -1e-12
    assert lam @ st.g < -0.1


def test_warm_start_of_wrong_length_is_rejected():
    lp = _bounded_lp()
    basis = solve_lp(lp).basis
    with pytest.raises(ValueError):
        solve_lp(lp, start=basis[:-1])
    with pytest.raises(ValueError):
        solve_lp(lp, start=np.append(basis, 0))
    with pytest.raises(ValueError):
        solve_lp(lp, start=np.full(basis.size, 99))


def test_singular_warm_start_gives_the_cold_answer():
    lp = _bounded_lp()
    cold = solve_lp(lp)
    # one column twice: the basis matrix is singular
    warm = solve_lp(lp, start=np.zeros(cold.basis.size, dtype=int))
    assert warm.status == cold.status
    assert warm.iterations == cold.iterations
    np.testing.assert_array_equal(warm.x, cold.x)
    np.testing.assert_array_equal(warm.basis, cold.basis)


def test_corrupted_inverse_block_gives_the_cold_answer(monkeypatch):
    # a handed block that does not invert the start basis fails the
    # residual check on the child's own right-hand side: cold solve
    lp = _dense_lp(monkeypatch)
    parent = solve_lp(lp)
    block = _Form(lp).block(parent.basis)
    assert parent.status == "optimal" and block.size
    child = lp.with_bounds(np.full(lp.num_vars, 0.01), lp.upper)
    start_warm = _Tableau.start_warm
    seen = []

    def spy(self, priced, block=None):
        seen.append(start_warm(self, priced, block))
        return seen[-1]

    monkeypatch.setattr(_Tableau, "start_warm", spy)
    solve_lp(child, start=(parent.basis, block))
    assert seen == [True]
    seen.clear()
    sol = solve_lp(child, start=(parent.basis, 2.0 * block))
    assert seen == [False]
    cold = solve_lp(child)
    assert sol.status == cold.status == "optimal"
    assert sol.iterations == cold.iterations
    np.testing.assert_array_equal(sol.x, cold.x)
    np.testing.assert_array_equal(sol.basis, cold.basis)


def _spy_tableaux(monkeypatch):
    """Every _Tableau built from now on, in order."""
    made = []
    init = _Tableau.__init__

    def spy(self, *args, **kw):
        init(self, *args, **kw)
        made.append(self)

    monkeypatch.setattr(_Tableau, "__init__", spy)
    return made


def _slack_width(lp):
    """Columns of ``[G | I]`` for ``lp``: its standard-form columns and
    one slack per row, with no artificial column."""
    nr, nc = _Form(lp).G.shape
    return nc + nr


@pytest.mark.parametrize("seed", range(12))
def test_nonnegative_costs_start_at_the_slack_basis(seed, monkeypatch):
    # >= rows with positive right-hand sides: the slack basis is primal
    # infeasible, but with c >= 0 it is dual feasible, so the dual phase
    # solves the LP with no artificial column
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(seed)
    n, k = 4 + seed % 5, 3 + seed % 4
    A = rng.uniform(-0.5, 1.0, (2 * k, n))
    b = np.concatenate([rng.uniform(0.5, 2.0, k), rng.uniform(1.0, 4.0, k)])
    c = rng.random(n) * (rng.random(n) < 0.8)   # some zero costs
    upper = np.where(rng.random(n) < 0.3, rng.uniform(1.0, 3.0, n), np.inf)
    lp = LinearProgram.from_arrays("min", c, A, [">="] * k + ["<="] * k, b,
                                   upper=upper)
    made = _spy_tableaux(monkeypatch)
    sol = solve_lp(lp)
    assert [tb.T.shape[1] for tb in made] == [_slack_width(lp)]
    ref = linprog(c, A_ub=np.vstack([-A[:k], A[k:]]),
                  b_ub=np.concatenate([-b[:k], b[k:]]),
                  bounds=[(0, None if np.isinf(u) else u) for u in upper],
                  method="highs")
    assert sol.status == {0: "optimal", 2: "infeasible"}[ref.status]
    if ref.status == 0:
        assert sol.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)


def test_nonnegative_costs_prove_infeasibility(monkeypatch):
    # x1 + x2 >= 3 and x1 + x2 <= 1: the dual phase finds a row with a
    # negative right-hand side and no negative entry
    lp = LinearProgram.from_arrays("min", [1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]],
                                   [">=", "<="], [3.0, 1.0])
    made = _spy_tableaux(monkeypatch)
    sol = solve_lp(lp)
    assert [tb.T.shape[1] for tb in made] == [_slack_width(lp)]
    assert sol.status == "infeasible"
    form, st = _standard(lp)
    _validate_farkas(form.G, st.g, sol.farkas)
    assert sol.farkas.min() >= 0.0 and sol.farkas @ st.g < -1.0


def test_fixed_column_with_negative_cost_keeps_the_slack_start(monkeypatch):
    # x3 is fixed at 1, so its cost -5 is never priced: the slack basis is
    # still dual feasible on every column that can enter
    rows = [[1.0, 1.0, 1.0]]
    lp = LinearProgram.from_arrays("min", [1.0, 2.0, -5.0], rows, [">="],
                                   [3.0], upper=[np.inf, np.inf, 1.0],
                                   lower=[0.0, 0.0, 1.0])
    made = _spy_tableaux(monkeypatch)
    sol = solve_lp(lp)
    assert [tb.T.shape[1] for tb in made] == [_slack_width(lp)]
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [2.0, 0.0, 1.0], atol=1e-12)
    assert sol.objective == pytest.approx(-3.0, abs=1e-12)
    # x1 + x2 + 2 x3 <= 2 leaves x1 + x2 <= 0 < 2: the Farkas vector
    # leans on the fixed column's bound row
    bad = LinearProgram.from_arrays("min", [1.0, 2.0, -5.0],
                                    rows + [[1.0, 1.0, 2.0]], [">=", "<="],
                                    [3.0, 2.0], upper=[np.inf, np.inf, 1.0],
                                    lower=[0.0, 0.0, 1.0])
    sol = solve_lp(bad)
    assert ([tb.T.shape[1] for tb in made]
            == [_slack_width(lp), _slack_width(bad)])
    assert sol.status == "infeasible"
    form, st = _standard(bad)
    _validate_farkas(form.G, st.g, sol.farkas)


def _mixed_lp(seed):
    """Negative costs, >= and <= rows and an equality as a >=/<= pair,
    and free, boxed and lower-bounded columns: the dual phase runs on
    zero costs."""
    rng = np.random.default_rng(seed)
    n, k = 4 + seed % 5, 2 + seed % 3
    A = rng.uniform(-0.5, 1.0, (2 * k + 1, n))
    b = np.concatenate([rng.uniform(0.2, 1.0, k), rng.uniform(-1.0, 1.0, 1),
                        rng.uniform(1.0, 4.0, k)])
    c = rng.uniform(-1.0, 1.0, n)
    kind = rng.integers(0, 3, n)        # 0 free, 1 boxed, 2 lower only
    lower = np.where(kind == 0, -np.inf, 0.0)
    upper = np.where(kind == 1, rng.uniform(1.0, 3.0, n), np.inf)
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


def _assert_improving_ray(lp, ray):
    """``ray`` keeps every row and bound of the min ``lp`` and lowers
    its objective."""
    tol = 1e-9 * (1.0 + np.abs(ray).max())
    move = lp.A @ ray
    assert (move[lp.rel == LE] <= tol).all()
    assert (move[lp.rel == GE] >= -tol).all()
    assert (ray[np.isfinite(lp.lower)] >= -tol).all()
    assert (ray[np.isfinite(lp.upper)] <= tol).all()
    assert lp.obj @ ray < -tol


def test_negative_costs_match_highs(monkeypatch):
    outcomes = set()
    made = _spy_tableaux(monkeypatch)
    for seed in range(30):
        lp = _mixed_lp(seed)
        form, st = _standard(lp)
        assert (form.c < 0).any() and (st.g < 0).any()
        made.clear()
        sol = solve_lp(lp)
        assert [tb.T.shape[1] for tb in made] == [_slack_width(lp)]
        ref = _highs(lp)
        status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        assert sol.status == status, f"seed {seed}"
        outcomes.add(status)
        if status == "optimal":
            assert sol.objective == pytest.approx(ref.fun, rel=1e-9,
                                                  abs=1e-12), f"seed {seed}"
        elif status == "infeasible":
            _validate_farkas(form.G, st.g, sol.farkas)
        else:
            _assert_improving_ray(lp, sol.ray)
    assert outcomes == {"optimal", "infeasible", "unbounded"}


def test_negative_costs_reach_an_unbounded_ray_after_the_dual_phase(
        monkeypatch):
    # min -x1 s.t. x1 + x2 >= 2: the slack basis is infeasible, the dual
    # phase on zero costs makes it feasible, and the primal phase finds
    # the ray
    lp = LinearProgram.from_arrays("min", [-1.0, 0.0], [[1.0, 1.0]], [">="],
                                   [2.0])
    made = _spy_tableaux(monkeypatch)
    phases = []
    dual, primal = _Tableau.run_dual, _Tableau.run

    def spy_dual(self, z, priced):
        phases.append(("dual", dual(self, z, priced)))
        return phases[-1][1]

    def spy_primal(self, z, allowed):
        phases.append(("primal", primal(self, z, allowed)))
        return phases[-1][1]

    monkeypatch.setattr(_Tableau, "run_dual", spy_dual)
    monkeypatch.setattr(_Tableau, "run", spy_primal)
    sol = solve_lp(lp)
    assert phases == [("dual", "optimal"), ("primal", "unbounded")]
    assert [tb.T.shape[1] for tb in made] == [_slack_width(lp)]
    assert sol.status == "unbounded" and sol.iterations >= 1
    _assert_improving_ray(lp, sol.ray)
    assert sol.ray[0] > 0


def test_zero_cost_dual_phase_ends_under_any_bland_switch():
    # with zero costs every dual ratio ties, so Bland's rule is what
    # guarantees the phase ends: switch to it after 0-7 pivots, or never
    inst = gen_iid(3, 3, RandomSpec("uniform"), 0)
    want = solve_affine(inst).objective
    form, st = _standard(build_affine_lp(inst))
    assert (form.c < 0).any() and (st.g < 0).any()
    priced = np.ones(sum(form.G.shape), dtype=bool)
    priced[st.fixed_cols] = False
    for bland_after in [*range(8), 10**6]:
        tb = _Tableau(form.c, form.G, st.g, bland_after, 10**4)
        assert tb.run_dual(np.zeros_like(tb.z), priced) == "optimal"
        assert tb.run(tb.z, priced) == "optimal"
        tb.refine_optimal()
        value = form.sense_mult * (st.const - tb.z[-1])
        assert value == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_nonnegative_costs_without_rows():
    # the dual phase has no row to pick: y = 0 is optimal at once
    sol = solve_lp(LinearProgram("min", [1.0, 0.0]))
    assert sol.status == "optimal" and sol.iterations == 0
    np.testing.assert_array_equal(sol.x, [0.0, 0.0])


def _spy_refinement(monkeypatch):
    """From now on, check every ``refine_optimal``: it must not call
    ``np.linalg.inv``, and its objective must match the block inversion
    of the same basis to 1e-12 relative.  Returns the list of checked
    objectives."""
    inverses, checked = [], []
    inv, refine = np.linalg.inv, _Tableau.refine_optimal

    def counted_inv(a):
        inverses.append(a.shape)
        return inv(a)

    def spy(self):
        before = len(inverses)
        refine(self)
        assert len(inverses) == before
        xb = self._basis_inverse()[1]
        want = float(self.cost[self.basis] @ xb)
        assert abs(-self.z[-1] - want) <= 1e-12 * max(abs(want), 1.0)
        checked.append(want)

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    monkeypatch.setattr(_Tableau, "refine_optimal", spy)
    return checked


def test_refinement_matches_the_inversion_on_the_worst_case_family(
        monkeypatch):
    checked = _spy_refinement(monkeypatch)
    for seed in range(12):
        inst = gen_worst_case(16, randomized=True, seed=seed)
        solve_affine(inst)
        adjustable.solve_adjustable_vertex_oracle(inst)
    assert len(checked) == 24


def test_refinement_matches_the_inversion_on_the_m10_table(monkeypatch):
    checked = _spy_refinement(monkeypatch)
    rows, _ = run_benchmark(BenchConfig(kind="uniform", m_list=[10],
                                        count=30, seed_base=0))
    assert [r.status for r in rows] == ["ok"] * 30
    assert len(checked) > 300


@pytest.mark.parametrize("corrupt", [False, True])
def test_refinement_falls_back_to_the_inversion(corrupt, monkeypatch):
    # drift the basic values and reduced costs of the final tableau far
    # past roundoff: the slack block's inverse removes the drift with no
    # inversion, and a corrupted slack block cannot, so the residual
    # check sends refine_optimal to the block inversion
    lp = _oracle_lp(monkeypatch, m=16)
    clean = solve_lp(lp)
    refine, basis_inverse = _Tableau.refine_optimal, _Tableau._basis_inverse
    calls, inversions = [], []

    def drifted(self):
        self.rhs = self.rhs + 1e-5 * self.scale
        self.z[:-1] += 1e-5
        if corrupt:
            self.T[:, self.nc:] *= 2.0
        before = len(calls)
        refine(self)
        inversions.append(len(calls) - before)

    def spy_inverse(self, block=None):
        calls.append(block)
        return basis_inverse(self, block)

    monkeypatch.setattr(_Tableau, "refine_optimal", drifted)
    monkeypatch.setattr(_Tableau, "_basis_inverse", spy_inverse)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert inversions == [int(corrupt)]
    assert sol.objective == pytest.approx(clean.objective, rel=1e-12)
    np.testing.assert_allclose(sol.x, clean.x, rtol=0, atol=1e-10)
    np.testing.assert_allclose(sol.duals, clean.duals, rtol=0, atol=1e-10)


def _indexed_G(form):
    """The standard form's ``G`` as one indexed product, the way it was
    built before ``_Form`` filled it in place."""
    lp, boxed, nrow = form.lp, form.boxed, form.nrow
    G = np.zeros((nrow + boxed.size, form.col_orig.size))
    G[:nrow] = (lp.A[:, form.col_orig] * form.col_sign
                * form.row_sign[:, None])
    G[nrow + np.arange(boxed.size), form.first[boxed]] = 1.0
    return G


def test_form_fills_G_in_place(monkeypatch):
    # the HRep affine LP (free columns split), a separation MIP (bound
    # rows) and the vertex LP (nothing duplicated)
    inst = gen_iid(3, 3, RandomSpec("uniform"), 0)
    lps = [build_affine_lp(gen_iid(10, 10, RandomSpec("uniform"), 0)),
           build_separation_mip(inst, np.zeros(3),
                                Digitization.from_instance(inst, 0.1)).lp,
           _oracle_lp(monkeypatch, m=16)]
    forms = [_Form(lp) for lp in lps]
    for form in forms:
        np.testing.assert_array_equal(form.G, _indexed_G(form))
    dup = [form.col_orig.size > form.lp.num_vars for form in forms]
    assert dup == [True, False, False]
    assert forms[1].boxed.size > 0
