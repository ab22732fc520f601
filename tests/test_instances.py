import json
import math

import numpy as np
import pytest

from adjrobust.instances import (
    DimensionCapError,
    Instance,
    InstanceError,
    InstanceFormatError,
    RandomSpec,
    UnboundedSetError,
    UncertaintySet,
    budget_set,
    budget_vertices,
    enumerate_vertices,
    gen_iid,
    gen_worst_case,
    instance_from_dict,
    read_instance,
    write_instance,
)
from adjrobust.lp import LinearProgram, solve_lp
from adjrobust.rng import folded_normal, substream


def test_budget_set_shape():
    u = budget_set(3)
    assert u.is_hrep and u.dim == 3
    np.testing.assert_allclose(u.r, [1, 1, 1, math.sqrt(3)])
    np.testing.assert_array_equal(u.R[-1], np.ones(3))


def test_budget_vertices_m2_exact():
    V = enumerate_vertices(budget_set(2)).vertices
    s = math.sqrt(2) - 1
    expected = np.array([[0, 0], [0, 1], [s, 1], [1, 0], [1, s]], dtype=float)
    np.testing.assert_allclose(V, expected, atol=1e-12)


def test_budget_vertex_counts():
    assert len(enumerate_vertices(budget_set(4)).vertices) == 11
    V = enumerate_vertices(budget_set(10)).vertices
    assert len(V) == 1016
    integral = sum(
        1 for v in V if np.all((np.abs(v) < 1e-9) | (np.abs(v - 1) < 1e-9))
    )
    assert integral == 176 and len(V) - integral == 840


def test_closed_form_budget_vertices_match_enumeration():
    for m in range(1, 11):
        closed = budget_vertices(m).vertices
        enumerated = enumerate_vertices(budget_set(m)).vertices
        assert closed.shape == enumerated.shape, m
        assert np.max(np.abs(closed - enumerated)) <= 1e-9, m
    # past the enumeration cap: 378 integral vertices plus 286 * 10
    V = budget_vertices(13).vertices
    assert len(V) == 3238
    assert np.all(V.sum(axis=1) <= math.sqrt(13) + 1e-12)
    with pytest.raises(InstanceError):
        budget_vertices(0)


def test_enumerate_rejects_vrep_and_big_m():
    with pytest.raises(InstanceError):
        enumerate_vertices(UncertaintySet.vrep([[0.0], [1.0]]))
    with pytest.raises(DimensionCapError):
        enumerate_vertices(budget_set(13))


def test_enumerate_checks_boundedness():
    loose = UncertaintySet.hrep([[1.0, 0.0]], [1.0])
    with pytest.raises(UnboundedSetError):
        enumerate_vertices(loose)


def _lp_cap(uset, i):
    """max h_i over the HRep set by one LP, the reference for caps."""
    m = uset.dim
    lp = LinearProgram.from_arrays("max", np.eye(m)[i], uset.R,
                                   ["<="] * len(uset.r), uset.r)
    sol = solve_lp(lp)
    return np.inf if sol.status == "unbounded" else sol.objective


def test_caps_on_budget_set():
    np.testing.assert_allclose(budget_set(3).caps, np.ones(3), atol=1e-12)
    V = enumerate_vertices(budget_set(3))
    np.testing.assert_allclose(V.caps, np.ones(3), atol=1e-12)


def test_check_bounded_raises_on_zero_column():
    loose = UncertaintySet.hrep([[1.0, 0.0]], [1.0])
    np.testing.assert_array_equal(loose.caps, [1.0, np.inf])
    with pytest.raises(UnboundedSetError, match="coordinate 1"):
        loose.check_bounded()
    budget_set(2).check_bounded()
    UncertaintySet.vrep([[0.0, 2.0]]).check_bounded()


def test_caps_match_coordinate_lps_on_random_hrep_sets():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m, L = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        # sparse nonnegative rows, with zero right sides now and then
        R = rng.random((L, m)) * (rng.random((L, m)) < 0.5)
        r = rng.random(L) * (rng.random(L) < 0.9)
        uset = UncertaintySet.hrep(R, r)
        ref = [_lp_cap(uset, i) for i in range(m)]
        np.testing.assert_allclose(uset.caps, ref, rtol=1e-9, atol=1e-12)


def test_gen_iid_deterministic_and_substream_addressed():
    a = gen_iid(3, 2, RandomSpec("uniform"), seed=42)
    b = gen_iid(3, 2, RandomSpec("uniform"), seed=42)
    np.testing.assert_array_equal(a.B, b.B)
    # entry (i, j) comes from substream i*n + j, independent of the rest
    assert a.B[1, 1] == substream(42, 1 * 2 + 1).next_float()
    assert not np.array_equal(a.B, gen_iid(3, 2, RandomSpec("uniform"), 43).B)


def test_gen_iid_structure():
    inst = gen_iid(4, 3, RandomSpec("uniform"), seed=0)
    assert inst.m == 4 and inst.n == 3
    np.testing.assert_array_equal(inst.c, np.zeros(3))
    np.testing.assert_array_equal(inst.A, np.zeros((4, 3)))
    assert inst.d_bar == 1.0
    np.testing.assert_allclose(inst.d, np.ones(3))
    assert inst.uncertainty.is_hrep
    np.testing.assert_allclose(inst.uncertainty.r[-1], 2.0)


def test_gen_iid_distributions():
    bern = gen_iid(5, 5, RandomSpec("bernoulli", p=0.5), seed=9)
    assert set(np.unique(bern.B)) <= {0.0, 1.0}
    fold = gen_iid(5, 5, RandomSpec("folded-normal"), seed=9)
    assert fold.B.min() >= 0.0
    assert fold.B[0, 0] == folded_normal(substream(9, 0).next_open01())


def test_random_spec_validation():
    with pytest.raises(InstanceError):
        RandomSpec("bernoulli")
    with pytest.raises(InstanceError):
        RandomSpec("bernoulli", p=1.0)
    with pytest.raises(InstanceError):
        RandomSpec("uniform", p=0.3)
    with pytest.raises(InstanceError):
        RandomSpec("poisson")
    with pytest.raises(InstanceError):
        gen_iid(2, 2, RandomSpec("worst-case-deterministic"), seed=0)
    assert RandomSpec("uniform").mu == 0.5
    assert RandomSpec("bernoulli", p=0.3).mu == 0.3
    assert RandomSpec("folded-normal").support_bound == math.inf
    assert RandomSpec("uniform").support_bound == 1.0


def test_gen_worst_case_deterministic():
    inst = gen_worst_case(4)
    assert inst.n == inst.m == 4
    np.testing.assert_array_equal(np.diag(inst.B), np.ones(4))
    off = inst.B[~np.eye(4, dtype=bool)]
    np.testing.assert_allclose(off, 0.5)
    V = inst.uncertainty.vertices
    assert V.shape == (9, 4)  # origin, 4 units, 4 nu points
    np.testing.assert_allclose(V[0], np.zeros(4))
    np.testing.assert_allclose(V[1:5], np.eye(4))
    np.testing.assert_allclose(V[5:], (np.ones((4, 4)) - np.eye(4)) / 2)


def test_gen_worst_case_m1_dedups_nu():
    V = gen_worst_case(1).uncertainty.vertices
    np.testing.assert_allclose(V, [[0.0], [1.0]])


def test_gen_worst_case_randomized():
    a = gen_worst_case(5, randomized=True, seed=11)
    b = gen_worst_case(5, randomized=True, seed=11)
    np.testing.assert_array_equal(a.B, b.B)
    off = a.B[~np.eye(5, dtype=bool)]
    assert off.min() >= 0.0 and off.max() <= 1 / math.sqrt(5)
    with pytest.raises(InstanceError):
        gen_worst_case(3, randomized=True)


def test_json_round_trip_hrep(tmp_path):
    inst = gen_iid(3, 2, RandomSpec("folded-normal"), seed=5)
    p = tmp_path / "inst.json"
    write_instance(inst, p)
    back = read_instance(p)
    np.testing.assert_array_equal(back.B, inst.B)
    np.testing.assert_array_equal(back.uncertainty.R, inst.uncertainty.R)
    assert back.seed == 5 and back.d_bar == 1.0


def test_json_round_trip_vrep(tmp_path):
    inst = gen_worst_case(3)
    p = tmp_path / "wc.json"
    write_instance(inst, p)
    back = read_instance(p)
    np.testing.assert_array_equal(back.uncertainty.vertices,
                                  inst.uncertainty.vertices)


def test_reader_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InstanceFormatError, match="line 1"):
        read_instance(bad)

    doc = {
        "m": 2, "n": 1, "d_bar": 1.0, "c": [0.0],
        "A": [[0.0], [0.0]], "B": [[1.0], [1.0]],
        "uncertainty": {"type": "hrep", "R": [[1, 0], [0, 1]], "r": [1, 1]},
    }
    missing = dict(doc)
    del missing["B"]
    with pytest.raises(InstanceFormatError, match="'B'"):
        instance_from_dict(missing)

    neg = json.loads(json.dumps(doc))
    neg["B"][0][0] = -1.0
    with pytest.raises(InstanceError, match="B"):
        instance_from_dict(neg)

    garbage = json.loads(json.dumps(doc))
    garbage["c"] = "zero"
    with pytest.raises(InstanceFormatError, match="numeric"):
        instance_from_dict(garbage)

    wrongdim = json.loads(json.dumps(doc))
    wrongdim["uncertainty"] = {"type": "hrep", "R": [[1.0]], "r": [1.0]}
    with pytest.raises(InstanceError, match="dimension"):
        instance_from_dict(wrongdim)

    badtype = json.loads(json.dumps(doc))
    badtype["uncertainty"] = {"type": "ball", "R": [[1.0]], "r": [1.0]}
    with pytest.raises(InstanceFormatError, match="ball"):
        instance_from_dict(badtype)

    # sizes are integers: 2.7 is no size, and 2.0 is 2
    for key in ("m", "n"):
        fractional = dict(doc, **{key: doc[key] + 0.7})
        with pytest.raises(InstanceFormatError, match=f"{key} must be an int"):
            instance_from_dict(fractional)
    assert instance_from_dict(dict(doc, m=2.0)).m == 2


def test_reader_rejects_unbounded_set(tmp_path):
    doc = {
        "m": 2, "n": 1, "d_bar": 1.0, "c": [0.0],
        "A": [[0.0], [0.0]], "B": [[1.0], [1.0]],
        "uncertainty": {"type": "hrep", "R": [[1.0, 0.0]], "r": [1.0]},
    }
    p = tmp_path / "unbounded.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(UnboundedSetError):
        read_instance(p)


def test_validate_catches_shape_mismatch():
    # instances and sets are checked when built, by every constructor
    with pytest.raises(InstanceError, match="B must have shape"):
        Instance(m=2, n=2, c=np.zeros(2), A=np.zeros((2, 2)),
                 B=np.zeros((3, 2)), d_bar=1.0, uncertainty=budget_set(2))
    inst = gen_iid(2, 2, RandomSpec("uniform"), 0)
    with pytest.raises(InstanceError, match="dimension"):
        inst.with_uncertainty(budget_set(3))
    with pytest.raises(InstanceError, match="r length"):
        UncertaintySet(R=np.eye(2), r=np.ones(3))
    with pytest.raises(InstanceError, match="nonnegative"):
        UncertaintySet.hrep([[1.0, -1.0]], [1.0])
    with pytest.raises(InstanceError, match="vertices"):
        UncertaintySet()
    with pytest.raises(InstanceError, match="finite"):
        UncertaintySet.vrep([[0.0, np.inf]])


def test_malformed_set_data_is_a_format_error():
    doc = {
        "m": 2, "n": 1, "d_bar": 1.0, "c": [0.0],
        "A": [[0.0], [0.0]], "B": [[1.0], [1.0]],
        "uncertainty": {"type": "hrep", "R": "zero", "r": [1, 1]},
    }
    with pytest.raises(InstanceFormatError, match="numeric"):
        instance_from_dict(doc)
    doc["uncertainty"] = {"type": "vrep", "vertices": [[0.0, 1.0], [1.0]]}
    with pytest.raises(InstanceFormatError, match="numeric"):
        instance_from_dict(doc)


def test_sets_and_instances_take_lists():
    hrep = UncertaintySet(R=[[1.0, 0.0], [0.0, 1.0]], r=[1.0, 1.0])
    vrep = UncertaintySet(vertices=[[0.0, 0.0], [1.0, 1.0]])
    assert hrep.R.shape == (2, 2) and hrep.r.shape == (2,)
    assert vrep.vertices.shape == (2, 2)
    inst = Instance(m=2, n=1, c=[0.0], A=[[0.0], [0.0]], B=[[1.0], [1.0]],
                    d_bar=1.0, uncertainty=hrep)
    assert inst.c.dtype == inst.A.dtype == inst.B.dtype == float
    assert inst.B.shape == (2, 1)
    with pytest.raises(InstanceError, match="c must have shape"):
        Instance(m=2, n=1, c=[0.0, 1.0], A=[[0.0], [0.0]], B=[[1.0], [1.0]],
                 d_bar=1.0, uncertainty=vrep)
    with pytest.raises(InstanceError, match="nonnegative"):
        UncertaintySet(vertices=[[-1.0, 0.0]])
