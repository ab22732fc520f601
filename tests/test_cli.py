import json
import re

import numpy as np
import pytest

from adjrobust.bench import CSV_HEADER
from adjrobust.cli import cli_main
from adjrobust.instances import Instance, UncertaintySet, write_instance


def run(capsys, *argv):
    code = cli_main(list(argv))
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


def test_solve_adjustable_auto_with_cuts(capsys, tmp_path):
    inst = gen(capsys, tmp_path)
    cuts = tmp_path / "cuts.json"
    code, out, _ = run(capsys, "solve-adjustable", str(inst),
                       "--eps", "0.5", "--cuts-out", str(cuts))
    assert code == 0
    assert "engine=auto status=optimal" in out
    assert cuts.exists() and json.loads(cuts.read_text())


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


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_stdout_csv(capsys):
    code, out, _ = run(capsys, "bench", "--m", "2", "--count", "2",
                       "--eps", "0.5", "--seed", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert sum(not ln.startswith("#") for ln in lines[1:]) == 2
    assert lines[-1].startswith("# m=2 ")


def test_bench_rederivable_via_cli(capsys, tmp_path):
    code, out, _ = run(capsys, "bench", "--m", "2", "--count", "1",
                       "--eps", "0.5", "--seed", "6")
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
                       "--eps", "0.5", "--out", str(csv))
    assert code == 0
    assert re.search(r"m=2 completed=2/2 r_avg=", out)
    assert csv.read_text().startswith(CSV_HEADER)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_1(capsys):
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "generate", "--m", "2")[0] == 1     # missing --out
    assert run(capsys, "bench", "--m", "2", "--count", "0")[0] == 1


def test_missing_and_malformed_files_exit_1(capsys, tmp_path):
    assert run(capsys, "solve-affine", str(tmp_path / "nope.json"))[0] == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "solve-affine", str(bad))[0] == 1


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


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "bench", "--help")[0] == 0
