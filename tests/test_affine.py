import numpy as np
import pytest

from adjrobust.affine import (AffineLayout, build_affine_lp, evaluate_policy,
                              solve_affine, solve_affine_dualized,
                              solve_affine_symmetric_worstcase)
from adjrobust.instances import (Instance, InstanceError, UncertaintySet,
                                 budget_set, enumerate_vertices, gen_worst_case)
from adjrobust.adjustable import solve_adjustable_vertex_oracle


def make_instance(m, n, seed, hrep=True):
    rng = np.random.default_rng(seed)
    uset = budget_set(m) if hrep else enumerate_vertices(budget_set(m))
    return Instance(m=m, n=n, c=rng.random(n), A=0.5 * rng.random((m, n)),
                    B=0.1 + rng.random((m, n)), d_bar=1.0,
                    uncertainty=uset, seed=seed)


def test_layout_counts_and_slices():
    lay = AffineLayout(n=3, m=4, L=5)
    assert lay.num_vars == 3 + 1 + 12 + 3 + 5 + 20 + 15
    # slices tile the whole vector without gaps or overlap
    hit = np.zeros(lay.num_vars, dtype=int)
    for s in (lay.x, lay.P, lay.q, lay.v, lay.V, lay.U):
        hit[s] += 1
    hit[lay.z] += 1
    assert (hit == 1).all()


def test_build_affine_lp_dimensions():
    inst = make_instance(3, 2, seed=0)
    lp, lay = build_affine_lp(inst)
    assert lp.num_vars == lay.num_vars
    assert lay.m == 3 and lay.n == 2 and lay.L == 4  # budget: m+1 rows


def test_evaluate_policy():
    P = np.array([[1.0, 0.0], [0.0, 2.0]])
    q = np.array([0.5, -1.0])
    np.testing.assert_allclose(evaluate_policy(P, q, [1.0, 1.0]), [1.5, 1.0])


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
        y = evaluate_policy(P, q, h)
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
            y = evaluate_policy(res.P, res.q, h)
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
            y = evaluate_policy(res.P, res.q, h)
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
        y = evaluate_policy(res.P, res.q, h)
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
