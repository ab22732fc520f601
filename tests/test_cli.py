import json
import os
import re

import numpy as np
import pytest

from adjrobust.bench import CSV_HEADER
from adjrobust.cli import main
from adjrobust.adjustable import solve_adjustable
from adjrobust.instances import (Instance, UncertaintySet, read_instance,
                                 write_instance)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(pattern, text):
    m = re.search(pattern, text)
    assert m, f"{pattern!r} not found in {text!r}"
    return m.group(1)


def gen(capsys, tmp_path, *extra, name="inst.json"):
    path = tmp_path / name
    code, out, _ = run(capsys, "generate", "--m", "2", "--seed", "4",
                       "--out", str(path), *extra)
    assert code == 0
    return path


# ---------------------------------------------------------------------------
# generate / solve
# ---------------------------------------------------------------------------

def test_generate_writes_instance(capsys, tmp_path):
    path = tmp_path / "inst.json"
    code, out, _ = run(capsys, "generate", "--m", "3", "--n", "2",
                       "--seed", "7", "--out", str(path))
    assert code == 0
    assert f"wrote {path}: dist=uniform m=3 n=2 seed=7" in out
    doc = json.loads(path.read_text())
    assert doc["m"] == 3 and doc["n"] == 2
    assert doc["uncertainty"]["type"] == "hrep"


def test_generate_seed_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ADJROBUST_SEED", "9")
    a = tmp_path / "a.json"
    code, out, _ = run(capsys, "generate", "--m", "2", "--out", str(a))
    assert code == 0 and "seed=9" in out
    b = tmp_path / "b.json"
    run(capsys, "generate", "--m", "2", "--seed", "9", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_generate_bad_env_seed(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ADJROBUST_SEED", "not-a-number")
    code, _, err = run(capsys, "generate", "--m", "2",
                       "--out", str(tmp_path / "x.json"))
    assert code == 1
    assert err == ("error: ADJROBUST_SEED must be an integer, "
                   "got 'not-a-number'\n")


def test_solve_affine_with_policy(capsys, tmp_path):
    inst = gen(capsys, tmp_path)
    pol = tmp_path / "policy.json"
    code, out, _ = run(capsys, "solve-affine", str(inst),
                       "--policy-out", str(pol))
    assert code == 0
    z = float(grab(r"z_aff=([\d.e+-]+) t_s=\d+\.\d{3}", out))
    doc = json.loads(pol.read_text())
    assert doc["z_aff"] == z
    assert np.asarray(doc["P"]).shape == (2, 2)
    assert np.asarray(doc["q"]).shape == (2,)
    assert np.asarray(doc["x"]).shape == (2,)


def test_solve_adjustable_engines_agree(capsys, tmp_path):
    inst = gen(capsys, tmp_path)
    code, out, _ = run(capsys, "solve-adjustable", str(inst),
                       "--engine", "oracle")
    assert code == 0
    z_oracle = float(grab(r"z_ar=([\d.e+-]+) engine=oracle", out))
    code, out, _ = run(capsys, "solve-adjustable", str(inst),
                       "--engine", "special")
    assert code == 0
    z_special = float(grab(r"z_ar=([\d.e+-]+) engine=special", out))
    assert z_special == pytest.approx(z_oracle, abs=1e-8)


def test_special_engine_takes_the_top_k_route_past_the_vertex_cap(capsys,
                                                                  tmp_path):
    # m=13 is past the vertex enumeration cap of 12: on the generated
    # budget set the special engine separates by the top-k MIP, as the
    # default engine does
    inst = tmp_path / "m13.json"
    code, _, _ = run(capsys, "generate", "--m", "13", "--seed", "0",
                     "--out", str(inst))
    assert code == 0
    code, out, _ = run(capsys, "solve-adjustable", str(inst),
                       "--engine", "special")
    assert code == 0
    z_special = float(grab(r"z_ar=([\d.e+-]+) engine=special", out))
    code, out, _ = run(capsys, "solve-adjustable", str(inst))
    assert code == 0
    z_auto = float(grab(r"z_ar=([\d.e+-]+) engine=auto", out))
    assert z_special == pytest.approx(z_auto, rel=1e-6)


def test_special_engine_enumerates_another_hrep_set(capsys, tmp_path):
    # a budget of 1.2 instead of sqrt(3) is not the budget set: the
    # special engine separates over the set's enumerated vertices
    inst = read_instance(gen(capsys, tmp_path))
    uset = UncertaintySet.hrep(np.vstack([np.eye(2), np.ones((1, 2))]),
                               [1.0, 1.0, 1.2])
    path = tmp_path / "cut.json"
    write_instance(inst.with_uncertainty(uset), path)
    z = {}
    for engine in ("special", "oracle"):
        code, out, _ = run(capsys, "solve-adjustable", str(path),
                           "--engine", engine)
        assert code == 0
        z[engine] = float(grab(rf"z_ar=([\d.e+-]+) engine={engine}", out))
    assert z["special"] == pytest.approx(z["oracle"], abs=1e-8)


def test_solve_adjustable_auto_with_cuts(capsys, tmp_path):
    inst = gen(capsys, tmp_path)
    cuts = tmp_path / "cuts.json"
    code, out, _ = run(capsys, "solve-adjustable", str(inst),
                       "--eps", "0.5", "--cuts-out", str(cuts))
    assert code == 0
    assert "engine=auto status=optimal" in out
    # the generated set is the budget set, whose separations are top-k
    # MIPs: their B&B nodes are printed next to the loop's counts
    nodes = int(grab(r"iterations=\d+ cuts=\d+ nodes=(\d+) t_s=", out))
    assert nodes == solve_adjustable(read_instance(inst), eps=0.5).nodes > 0
    data = json.loads(cuts.read_text())["cuts"]
    assert len(data) == int(grab(r"cuts=(\d+)", out)) >= 2
    # the loop starts from the w = 0 cut; every cut's value is h.w, as
    # the generated instance has A = 0
    assert data[0] == {"h": [0.0, 0.0], "w": [0.0, 0.0], "value": 0.0}
    for cut in data:
        assert len(cut["h"]) == len(cut["w"]) == 2
        assert cut["value"] == pytest.approx(np.dot(cut["h"], cut["w"]),
                                             abs=1e-12)


# ---------------------------------------------------------------------------
# sandwich / bounds / worst-case
# ---------------------------------------------------------------------------

def test_sandwich_report(capsys, tmp_path):
    inst = gen(capsys, tmp_path)
    code, out, _ = run(capsys, "sandwich", str(inst))
    assert code == 0
    assert "b_empirical=true" in out and "predicted_bound=nan" in out
    float(grab(r"kappa_emp=([\d.e+-]+)", out))
    code, out, _ = run(capsys, "sandwich", str(inst), "--b", "1", "--mu", "0.5")
    assert code == 0
    assert "b_empirical=false" in out
    assert "predicted_bound=nan" not in out


def test_bounds_uniform(capsys):
    code, out, _ = run(capsys, "bounds", "--dist", "uniform", "--m", "100")
    assert code == 0
    eps = float(grab(r"epsilon=([\d.e+-]+)", out))
    bound = float(grab(r"ratio_bound=([\d.e+-]+)", out))
    assert eps == pytest.approx(0.4292, abs=1e-4)
    assert bound == pytest.approx(3.504, abs=1e-3)
    assert "regime_valid=true" in out
    lb = float(grab(r"worst_case_lower_bound=([\d.e+-]+)", out))
    assert lb == pytest.approx(99.0 / 60.0)


def test_bounds_refuses_an_impossible_p(capsys):
    # p = 1.5 once gave ratio_bound=0.98, a ratio below 1, and exit 0
    code, out, err = run(capsys, "bounds", "--dist", "bernoulli", "--p",
                         "1.5", "--m", "10")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "p in (0, 1)" in err


def test_bounds_folded_normal(capsys):
    code, out, _ = run(capsys, "bounds", "--dist", "folded-normal",
                       "--m", "100")
    assert code == 0
    val = float(grab(r"theorem2: ratio_bound=([\d.e+-]+)", out))
    assert val == pytest.approx(20.162784578203745, rel=1e-12)
    code, out, _ = run(capsys, "bounds", "--dist", "folded-normal", "--m", "4")
    assert code == 0 and "regime_valid=false" in out


def test_worst_case_ratios_increase(capsys):
    code, out, _ = run(capsys, "worst-case", "--m", "4", "--m", "9")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    ratios = [float(grab(r"ratio=([\d.e+-]+)", ln)) for ln in lines]
    z_ars = [float(grab(r"z_ar=([\d.e+-]+)", ln)) for ln in lines]
    assert ratios[1] > ratios[0]
    for z in z_ars:
        assert z == pytest.approx(1.0, abs=1e-5)
    assert float(grab(r"lower_bound=([\d.e+-]+)", lines[0])) == 0.25


def test_worst_case_checks_every_m_before_solving(capsys):
    code, out, err = run(capsys, "worst-case", "--m", "4", "--m", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "m must be at least 2" in err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_stdout_csv(capsys):
    code, out, _ = run(capsys, "bench", "--m", "2", "--count", "2",
                       "--seed", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert sum(not ln.startswith("#") for ln in lines[1:]) == 2
    assert lines[-1].startswith("# m=2 ")


def test_bench_rederivable_via_cli(capsys, tmp_path):
    code, out, _ = run(capsys, "bench", "--m", "2", "--count", "1",
                       "--seed", "6")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[2] == "6"
    inst = tmp_path / "re.json"
    run(capsys, "generate", "--m", "2", "--seed", "6", "--out", str(inst))
    code, out, _ = run(capsys, "solve-affine", str(inst))
    assert grab(r"z_aff=([\d.e+-]+)", out) == row[3]


def test_bench_out_file(capsys, tmp_path):
    csv = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "bench", "--m", "2", "--count", "2",
                       "--out", str(csv))
    assert code == 0
    assert re.search(r"m=2 completed=2/2 r_avg=", out)
    assert csv.read_text().startswith(CSV_HEADER)


@pytest.mark.skipif(not os.environ.get("ADJROBUST_SLOW"),
                    reason="about 15 s and 450 MB; set ADJROBUST_SLOW=1 to run")
def test_bench_finishes_both_values_at_m30(capsys):
    # the budget set has 3.7 million vertices at m = 30: z_ar comes from
    # the top-k MIP on the HRep set
    code, out, _ = run(capsys, "bench", "--m", "30", "--count", "2")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:3]]
    assert [r[8] for r in rows] == ["ok", "ok"]
    for r in rows:
        assert float(r[3]) >= float(r[4]) > 0.0
    assert "completed=2/2 timeouts=0 errors=0" in out


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_1(capsys):
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "generate", "--m", "2")[0] == 1     # missing --out
    assert run(capsys, "bench", "--m", "2", "--count", "0")[0] == 1


@pytest.mark.parametrize("argv,message", [
    (("--dist", "worst-case-randomized", "--m", "0"), "every m must be >= 1"),
    (("--m", "0"), "every m must be >= 1"),
    (("--m", "2", "--n", "0"), "every n must be >= 1"),
    (("--m", "3", "--time-limit", "-1"), "time_limit_s must be positive"),
    (("--m", "3", "--time-limit", "0"), "time_limit_s must be positive"),
    (("--dist", "worst-case-randomized", "--m", "4", "--n", "2"),
     "have n = m"),
])
def test_bench_input_errors_exit_1(capsys, argv, message):
    # rejected before any row is solved, not reported as failed rows
    code, out, err = run(capsys, "bench", *argv, "--count", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


def test_generate_rejects_another_n_for_the_worst_case_family(capsys,
                                                              tmp_path):
    path = tmp_path / "wc.json"
    code, out, err = run(capsys, "generate", "--dist",
                         "worst-case-deterministic", "--m", "4", "--n", "2",
                         "--out", str(path))
    assert code == 1 and out == "" and not path.exists()
    assert err.startswith("error:") and "have n = m" in err


def test_missing_and_malformed_files_exit_1(capsys, tmp_path):
    assert run(capsys, "solve-affine", str(tmp_path / "nope.json"))[0] == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "solve-affine", str(bad))[0] == 1


def test_non_numeric_set_data_exits_1(capsys, tmp_path):
    doc = {"m": 2, "n": 1, "d_bar": 1.0, "c": [0.0],
           "A": [[0.0], [0.0]], "B": [[1.0], [1.0]],
           "uncertainty": {"type": "hrep", "R": "zero", "r": [1, 1]}}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve-affine", str(path))
    assert code == 1
    assert err.startswith("error: malformed numeric field")


def test_unbounded_set_exits_1(capsys, tmp_path):
    # h_2 has no cap on {h >= 0 : h_1 <= 1}: an input error
    uset = UncertaintySet.hrep([[1.0, 0.0]], [1.0])
    inst = Instance(m=2, n=2, c=np.zeros(2), A=np.zeros((2, 2)),
                    B=np.eye(2), d_bar=1.0, uncertainty=uset, seed=0)
    path = tmp_path / "unb.json"
    write_instance(inst, path)
    code, _, err = run(capsys, "solve-affine", str(path))
    assert code == 1
    assert err.startswith("error: ")
    assert "coordinate 1 unbounded" in err


def test_solver_failure_exits_2(capsys, tmp_path):
    # a zero row in B leaves one demand coordinate uncoverable (W unbounded)
    uset = UncertaintySet.hrep(np.eye(2), np.ones(2))
    inst = Instance(m=2, n=2, c=np.zeros(2), A=np.zeros((2, 2)),
                    B=np.array([[1.0, 1.0], [0.0, 0.0]]), d_bar=1.0,
                    uncertainty=uset, seed=0)
    path = tmp_path / "unbounded.json"
    write_instance(inst, path)
    code, _, err = run(capsys, "solve-adjustable", str(path), "--eps", "0.5")
    assert code == 2
    assert "solver failure" in err


def test_a_zero_row_of_B_that_A_covers_solves(capsys, tmp_path):
    # row 2 of B is zero, but x_2 >= 10 covers h_2 <= 1 through A: the
    # cut loop's value is the oracle's, 2, on the HRep set and on a VRep
    # one
    for uset in (UncertaintySet.hrep([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                                     [1.0, 1.0, 1.4]),
                 UncertaintySet.vrep([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])):
        inst = Instance(m=2, n=2, c=[0.1, 0.1], A=0.1 * np.eye(2),
                        B=[[1.0, 0.5], [0.0, 0.0]], d_bar=1.0,
                        uncertainty=uset)
        path = tmp_path / "covered.json"
        write_instance(inst, path)
        for engine in ("auto", "oracle"):
            code, out, _ = run(capsys, "solve-adjustable", str(path),
                               "--engine", engine)
            assert code == 0
            assert float(grab(r"z_ar=(\S+)", out)) == pytest.approx(
                2.0, abs=1e-6)


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "bench", "--help")[0] == 0
