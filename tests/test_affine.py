import itertools

import numpy as np
import pytest

from adjrobust import adjustable, affine
from adjrobust.affine import (build_affine_lp, solve_affine,
                              solve_affine_dualized,
                              solve_affine_symmetric_worstcase)
from adjrobust.instances import (Instance, InstanceError, UncertaintySet,
                                 budget_set, enumerate_vertices, gen_worst_case)
from adjrobust.adjustable import solve_adjustable_vertex_oracle
from adjrobust.bench import generate_bench_instance
from adjrobust.lp import GE, solve_lp


def make_instance(m, n, seed, hrep=True):
    rng = np.random.default_rng(seed)
    uset = budget_set(m) if hrep else enumerate_vertices(budget_set(m))
    return Instance(m=m, n=n, c=rng.random(n), A=0.5 * rng.random((m, n)),
                    B=0.1 + rng.random((m, n)), d_bar=1.0,
                    uncertainty=uset, seed=seed)


def test_build_affine_lp_dimensions():
    m, n, L = 3, 2, 4                      # budget set: m + 1 rows
    lp = build_affine_lp(make_instance(m, n, seed=0))
    # x, z, P, q, then one multiplier block per family: L (1 + m + n)
    assert lp.num_vars == n + 1 + n * m + n + L * (1 + m + n)
    # alpha- and beta-rows of the objective, covering and sign families
    assert lp.num_rows == 1 + 2 * m + m * m + n + n * m


def test_identity_budget_affine_value():
    # y(h) = h is feasible and optimal: value = max over U of sum(h) = sqrt(m)
    for m in (2, 3):
        inst = Instance(m=m, n=m, c=np.zeros(m), A=np.zeros((m, m)),
                        B=np.eye(m), d_bar=1.0, uncertainty=budget_set(m),
                        seed=0)
        res = solve_affine(inst)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(np.sqrt(m), abs=1e-7)


def test_worst_case_family_values():
    # closed form m*sqrt(m)/(2m-1) for the structured family
    for m, want in ((4, 8.0 / 7.0), (9, 27.0 / 17.0)):
        res = solve_affine(gen_worst_case(m))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(want, abs=1e-7)


def test_symmetric_lp_matches_general_affine():
    for m in (4, 9):
        val, theta, mu, lam = solve_affine_symmetric_worstcase(m)
        res = solve_affine(gen_worst_case(m))
        assert val == pytest.approx(res.objective, abs=1e-8)
    # the symmetric policy really is a policy: spot-check feasibility at m=4
    m = 4
    val, theta, mu, lam = solve_affine_symmetric_worstcase(m)
    P = theta * np.eye(m) + mu * (np.ones((m, m)) - np.eye(m))
    q = np.full(m, lam)
    inst = gen_worst_case(m)
    for h in inst.uncertainty.vertices:
        y = P @ h + q
        assert (y >= -1e-9).all()
        assert (inst.B @ y >= h - 1e-9).all()
        assert y.sum() <= val + 1e-9


def test_hrep_and_dualized_agree():
    for seed in range(6):
        inst = make_instance(2 + seed % 3, 2 + (seed + 1) % 3, seed)
        a = solve_affine(inst)
        b = solve_affine_dualized(inst)
        assert a.status == b.status == "optimal"
        assert a.objective == pytest.approx(b.objective, abs=1e-6)


def test_hrep_and_vrep_agree():
    for seed in range(4):
        m, n = 2 + seed % 2, 2 + seed % 3
        hrep = make_instance(m, n, seed)
        vrep = hrep.with_uncertainty(enumerate_vertices(hrep.uncertainty))
        a = solve_affine(hrep)
        b = solve_affine(vrep)
        assert a.objective == pytest.approx(b.objective, abs=1e-6)


def test_vrep_generic_no_anchor():
    # a square without 0 and the unit vectors: three corners anchor the
    # policy, and the fourth has a negative anchor weight, so it gets
    # explicit sign rows; lifted to h_3 = 0.5 its four corners are
    # coplanar, so the policy has three anchors in R^3
    square = np.array([[0.5, 0.5], [0.5, 1.0], [1.0, 0.5], [1.0, 1.0]])
    rng = np.random.default_rng(7)
    for V in (square, np.hstack([square, np.full((4, 1), 0.5)])):
        m = V.shape[1]
        inst = Instance(m=m, n=2, c=rng.random(2), A=0.3 * rng.random((m, 2)),
                        B=0.2 + rng.random((m, 2)), d_bar=1.0,
                        uncertainty=UncertaintySet.vrep(V), seed=7)
        res = solve_affine(inst)
        assert res.status == "optimal"
        # policy must cover every vertex of the square
        for h in V:
            y = res.P @ h + res.q
            assert (y >= -1e-8).all()
            assert (inst.A @ res.x + inst.B @ y >= h - 1e-8).all()


def test_affine_exact_on_simplices():
    # an affine policy can take any values at the corners of a simplex, so
    # z_aff = z_ar; corners avoid 0 and the e_i, and the segment and the
    # single point leave the hull lower-dimensional
    rng = np.random.default_rng(11)
    for m, k in ((2, 3), (3, 4), (4, 5), (3, 2), (4, 3), (3, 1)):
        V = 0.2 + rng.random((k, m))
        inst = Instance(m=m, n=2, c=rng.random(2), A=0.3 * rng.random((m, 2)),
                        B=0.2 + rng.random((m, 2)), d_bar=1.0,
                        uncertainty=UncertaintySet.vrep(V), seed=0)
        res = solve_affine(inst)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(
            solve_adjustable_vertex_oracle(inst), abs=1e-7)
        for h in V:
            y = res.P @ h + res.q
            assert (y >= -1e-8).all()
            assert (inst.A @ res.x + inst.B @ y >= h - 1e-8).all()
            assert inst.c @ res.x + inst.d @ y <= res.objective + 1e-8


def test_hrep_and_vrep_agree_without_unit_vectors():
    # box [0, 0.5]^m and simplex {sum h <= 0.5}: 0 is a vertex, no e_i is
    for m in (2, 3, 4):
        rng = np.random.default_rng(m)
        for R, r in ((np.eye(m), np.full(m, 0.5)),
                     (np.ones((1, m)), np.array([0.5]))):
            hrep = Instance(m=m, n=2, c=rng.random(2),
                            A=0.3 * rng.random((m, 2)),
                            B=0.2 + rng.random((m, 2)), d_bar=1.0,
                            uncertainty=UncertaintySet.hrep(R, r), seed=m)
            vrep = hrep.with_uncertainty(enumerate_vertices(hrep.uncertainty))
            assert solve_affine(vrep).objective == pytest.approx(
                solve_affine(hrep).objective, abs=1e-6)


def test_policy_feasible_at_vertices():
    inst = make_instance(3, 3, seed=5, hrep=False)
    res = solve_affine(inst)
    worst = -np.inf
    for h in inst.uncertainty.vertices:
        y = res.P @ h + res.q
        assert (y >= -1e-8).all()
        assert (inst.A @ res.x + inst.B @ y >= h - 1e-8).all()
        worst = max(worst, inst.d @ y)
    assert inst.c @ res.x + worst <= res.objective + 1e-7


def test_dualized_needs_hrep():
    inst = make_instance(2, 2, seed=1, hrep=False)
    with pytest.raises(InstanceError):
        solve_affine_dualized(inst)


def test_affine_equals_adjustable_single_recourse():
    # one second-stage column covering all demands: affine loses nothing
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        m = 3
        B = (0.2 + rng.random(m)).reshape(m, 1)
        inst = Instance(m=m, n=1, c=np.array([0.1]), A=0.1 * rng.random((m, 1)),
                        B=B, d_bar=1.0,
                        uncertainty=enumerate_vertices(budget_set(m)), seed=seed)
        z_aff = solve_affine(inst).objective
        z_ar = solve_adjustable_vertex_oracle(inst)
        assert z_aff == pytest.approx(z_ar, abs=1e-6)


def test_affine_upper_bounds_adjustable():
    for seed in range(4):
        inst = make_instance(3, 2, seed, hrep=False)
        z_aff = solve_affine(inst).objective
        z_ar = solve_adjustable_vertex_oracle(inst)
        assert z_aff >= z_ar - 1e-7


# m=10 ratio-table seeds (uniform B, budget set) whose HRep affine LP
# breaks down (LpBreakdownError) with an exact min-ratio test: the first
# five with eager rank-one pivots, the rest with deferred ones (17) or
# with the deferred update rounded another way (8)
_FRAGILE_M10_SEEDS = [50, 139, 249, 254, 604, 56, 94, 108, 164, 203, 224,
                      283, 289, 325, 330, 388, 408, 511, 561, 720, 917, 936,
                      169, 229, 245, 473, 816, 874, 937, 965]


def _highs_value(lp):
    """Value of a min LP with >= rows by HiGHS, an independent solver."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    assert lp.sense == "min" and (lp.rel == GE).all()
    bounds = [(None if np.isinf(lo) else lo, None if np.isinf(up) else up)
              for lo, up in zip(lp.lower, lp.upper)]
    ref = linprog(lp.obj, A_ub=-lp.A, b_ub=-lp.b, bounds=bounds,
                  method="highs")
    assert ref.status == 0
    return ref.fun


@pytest.mark.parametrize("seed", _FRAGILE_M10_SEEDS)
def test_affine_lp_matches_highs_on_fragile_m10_seeds(seed):
    inst = generate_bench_instance("uniform", 10, 10, seed)
    res = solve_affine(inst)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(_highs_value(build_affine_lp(inst)),
                                          rel=1e-7, abs=1e-7)


def test_affine_lp_matches_highs_at_m20():
    # the size where the primal phase's bound shift saves the most
    # pivots: 861 rows and 1,302 columns, most of the pivots degenerate
    inst = generate_bench_instance("uniform", 20, 20, 0)
    res = solve_affine(inst)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(_highs_value(build_affine_lp(inst)),
                                          rel=1e-7)


def _record_lps(monkeypatch):
    """The LPs that affine and adjustable solve from now on, in order."""
    seen = []

    def record(lp, **kw):
        seen.append(lp)
        return solve_lp(lp, **kw)

    monkeypatch.setattr(affine, "solve_lp", record)
    monkeypatch.setattr(adjustable, "solve_lp", record)
    return seen


def _vertex_lps(inst, monkeypatch):
    """z_aff and z_ar of a VRep instance with the two vertex LPs solved."""
    seen = _record_lps(monkeypatch)
    z_aff = solve_affine(inst).objective
    z_ar = solve_adjustable_vertex_oracle(inst)
    lp_aff, lp_ar = seen
    return z_aff, z_ar, lp_aff, lp_ar


@pytest.mark.parametrize("seed", [0, 1])
def test_vertex_lps_match_highs_at_benchmark_size(seed, monkeypatch):
    # the VRep affine LP and the vertex-oracle LP of the worst-case
    # family at the size of the worstcase-m16 benchmark workload
    inst = gen_worst_case(16, randomized=True, seed=seed)
    z_aff, z_ar, lp_aff, lp_ar = _vertex_lps(inst, monkeypatch)
    for z, lp in ((z_aff, lp_aff), (z_ar, lp_ar)):
        assert z == pytest.approx(_highs_value(lp), rel=1e-7)
        # the bound z >= 0 is implied: without it the value is the same
        assert lp.lower[inst.n] == 0.0
        lower = lp.lower.copy()
        lower[inst.n] = -np.inf
        free_z = lp.with_bounds(lower, lp.upper)
        assert z == pytest.approx(_highs_value(free_z), rel=1e-9)


def test_vertex_lps_match_highs_at_criterion_3_size(monkeypatch):
    # the size of the worst-case family in criterion 3
    inst = gen_worst_case(25, randomized=True, seed=0)
    z_aff, z_ar, lp_aff, lp_ar = _vertex_lps(inst, monkeypatch)
    assert z_aff == pytest.approx(_highs_value(lp_aff), rel=1e-7)
    assert z_ar == pytest.approx(_highs_value(lp_ar), rel=1e-7)


def test_anchor_free_box_matches_highs_in_few_pivots(monkeypatch):
    # {0.25, 0.75}^5 holds neither 0 nor any e_i, so its anchors are
    # generic corners and most vertices get sign rows; the VRep affine
    # LP starts from the slack basis (costs c, 1 and 0 are nonnegative)
    box = UncertaintySet.vrep(
        np.array(list(itertools.product([0.25, 0.75], repeat=5))))
    seen = _record_lps(monkeypatch)
    pivots = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)   # the cut-loop workload's recipe
        inst = Instance(m=5, n=5, c=0.2 * rng.random(5),
                        A=0.3 * rng.random((5, 5)),
                        B=0.1 + rng.random((5, 5)), d_bar=1.0,
                        uncertainty=box, seed=seed)
        res = solve_affine(inst)
        assert res.objective == pytest.approx(_highs_value(seen[-1]),
                                              rel=1e-7, abs=1e-7)
        pivots += res.iterations
    assert pivots <= 300
