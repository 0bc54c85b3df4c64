import json
import os

import pytest

import covertmac as cm
from covertmac.cli import main


@pytest.fixture()
def chan_file(tmp_path):
    p = tmp_path / "chan.json"
    cm.save_channel(cm.paper_channel(), p)
    return str(p)


@pytest.fixture()
def plan_file(tmp_path):
    plan = cm.PhasePlan.single_phase((0.535, 0.465), 0.5, 0.5)
    p = tmp_path / "plan.json"
    p.write_text(plan.to_json())
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_profile_stdout(capsys, chan_file):
    code, out, _ = run(capsys, "profile", "--channel", chan_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# subcommand=profile")
    assert lines[1] == "x3,d_y1,d_y2,d_z1,d_z2,d_zy1,d_zy2"
    data = [l for l in lines if l and not l.startswith(("#", "x3"))]
    assert len(data) == 2 + 10         # 2 profile rows + 5 chi2 rows per x3


def test_profile_uniform_zeros(capsys, tmp_path):
    row = [0.25, 0.25, 0.25, 0.25]
    d = cm.channel.from_dict({"x3_size": 1, "y_size": 4, "z_size": 4,
                              "gamma_y": [row] * 4, "gamma_z": [row] * 4})
    p = tmp_path / "u.json"
    cm.save_channel(d, p)
    code, out, _ = run(capsys, "profile", "--channel", str(p))
    assert code == 0
    prof_line = out.strip().splitlines()[2]
    assert all(abs(float(v)) < 1e-14 for v in prof_line.split(",")[1:])


def test_profile_malformed_file_exit_3(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    code, _, err = run(capsys, "profile", "--channel", str(p))
    assert code == 3 and "error" in err


def test_usage_error_exit_2(capsys):
    assert main(["profile"]) == 2          # missing --channel
    assert main(["nonsense"]) == 2


def test_curve_csv_and_reproducibility(capsys, chan_file, tmp_path):
    os.environ["SOURCE_DATE_EPOCH"] = "1700000000"
    try:
        args = ["curve", "--channel", chan_file, "--r1", "0.1",
                "--k1-max", "0.8", "--k2-grid", "0.2,0.6", "--fix-x3", "0",
                "--restarts", "6", "--max-iter", "600", "--max-phases", "2",
                "--seed", "5"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        lines = f1.read_text().strip().splitlines()
        assert lines[1] == "k2,r2"
        assert len(lines) == 4
        k_vals = [float(l.split(",")[0]) for l in lines[2:]]
        assert k_vals == [0.2, 0.6]
    finally:
        del os.environ["SOURCE_DATE_EPOCH"]


def test_region_small_and_max_phases_one(capsys, chan_file, tmp_path):
    f = tmp_path / "region.csv"
    code = main(["region", "--channel", chan_file, "--r1", "0.1",
                 "--k1-max", "0.8", "--k2-max", "0.8",
                 "--r3-grid", "0.0,0.15", "--restarts", "6",
                 "--max-iter", "600", "--max-phases", "1", "--seed", "3",
                 "--out", str(f)])
    assert code == 0
    lines = f.read_text().strip().splitlines()
    assert lines[1] == "r2,R3"
    assert len(lines) >= 3


def test_region_infeasible_exit_4(capsys, chan_file):
    code, _, err = run(capsys, "region", "--channel", chan_file,
                       "--r1", "1e6", "--r3-grid", "0.0",
                       "--restarts", "4", "--max-iter", "300",
                       "--max-phases", "1")
    assert code == 4 and "infeasible" in err


def test_simulate_report(capsys, chan_file, plan_file, tmp_path):
    f = tmp_path / "rep.json"
    code = main(["simulate", "--channel", chan_file, "--plan", plan_file,
                 "--n", "24", "--m3", "2", "--trials", "40", "--seed", "1",
                 "--out", str(f)])
    assert code == 0
    doc = json.loads(f.read_text())
    assert doc["trials_run"] == 40
    assert 0 <= doc["pe0_hat"] <= 1
    assert doc["codebook_mode"] == "fresh-per-trial"


def test_simulate_exact_delta_budget_exit_5(capsys, chan_file, plan_file):
    code, _, err = run(capsys, "simulate", "--channel", chan_file,
                       "--plan", plan_file, "--n", "64", "--trials", "1",
                       "--exact-delta")
    assert code == 5 and "budget" in err


def test_verify_asymptotics_table(capsys, chan_file):
    code, out, _ = run(capsys, "verify-asymptotics", "--channel", chan_file,
                       "--alpha", "1e-3,1e-4", "--random", "4", "--seed", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "rho1,rho2,x3,alpha,ratio"
    rows = lines[2:]
    assert len(rows) == 8
    for r in rows:
        ratio = float(r.split(",")[-1])
        assert 0.9 < ratio < 1.1


def test_sizing_report(capsys, chan_file, plan_file, tmp_path):
    f = tmp_path / "sz.json"
    code = main(["sizing", "--channel", chan_file, "--plan", plan_file,
                 "--n", "1000000", "--xi", "0.1", "--out", str(f)])
    assert code == 0
    doc = json.loads(f.read_text())
    assert doc["log_m3"] > 0 and doc["divergence_bound"] > 0
    assert doc["unit"] == "bits"


def test_paper_channel_alias(capsys):
    code, out, _ = run(capsys, "profile", "--channel", "paper")
    assert code == 0 and "d_y1" in out


@pytest.mark.parametrize("argv", [
    ["verify-asymptotics", "--channel", "paper", "--rho1", "1", "--x3", "5"],
    ["sizing", "--channel", "paper", "--plan", "PLAN", "--n", "0"],
    ["simulate", "--channel", "paper", "--plan", "PLAN", "--n", "24",
     "--trials", "-3"],
    ["simulate", "--channel", "paper", "--plan", "PLAN", "--n", "0",
     "--trials", "20"],
    ["simulate", "--channel", "paper", "--plan", "PLAN", "--n", "0",
     "--trials", "20", "--exact-delta"],
    ["region", "--channel", "paper", "--r3-grid", "nan"],
    ["curve", "--channel", "paper", "--r1", "nan", "--k2-grid", "0.5"],
    ["curve", "--channel", "paper", "--k2-grid", "nan"],
    ["region", "--channel", "paper", "--r3-grid", "0:0.1:0"],
    ["curve", "--channel", "paper", "--k2-grid", "0:1:0"],
    ["region", "--channel", "paper", "--r3-grid", "0", "--max-phases", "0"],
], ids=["x3-out-of-range", "sizing-n-zero", "negative-trials",
        "simulate-n-zero", "simulate-n-zero-exact-delta", "region-nan-r3",
        "curve-nan-r1", "curve-nan-k2", "region-empty-grid",
        "curve-empty-grid", "max-phases-zero"])
def test_invalid_input_exit_3(capsys, plan_file, argv):
    code, out, err = run(capsys, *[plan_file if a == "PLAN" else a
                                   for a in argv])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
