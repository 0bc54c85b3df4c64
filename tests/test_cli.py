import copy
import functools
import json
import math
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import covertmac as cm
from covertmac.cli import main
from conftest import make_dmc
from test_region import random_problem


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
    """An infeasible point exits 4: at R3 = 0 at one phase, and at R3 > 0,
    where phase 1 of the phase LP finds no feasible column set."""
    for argv in (["--channel", chan_file, "--r1", "1e6", "--r3-grid", "0.0",
                  "--restarts", "4", "--max-iter", "300", "--max-phases",
                  "1"],
                 ["--channel", "paper", "--r1", "2", "--k1-max", "0.8",
                  "--k2-max", "0.8", "--r3-grid", "0.1", "--max-phases",
                  "3"]):
        code, _, err = run(capsys, "region", *argv)
        assert code == 4 and "infeasible" in err


@pytest.mark.parametrize("argv", [
    ["profile", "--channel", "paper"],
    ["sizing", "--channel", "paper", "--plan", "PLAN", "--n", "1000"],
    ["verify-asymptotics", "--channel", "paper", "--random", "1"]],
    ids=["profile", "sizing", "verify-asymptotics"])
def test_threads_is_a_usage_error_where_never_passed(capsys, plan_file, argv):
    """profile, sizing and verify-asymptotics take no --threads: with it they
    exit 2 naming the flag, without it they run."""
    argv = [plan_file if a == "PLAN" else a for a in argv]
    code, _, err = run(capsys, *argv, "--threads", "1")
    assert code == 2 and "--threads" in err
    assert run(capsys, *argv)[0] == 0


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


def test_verify_asymptotics_one_case(capsys):
    """--rho1/--rho2/--x3 give one row per alpha for that case, with the
    ratio near 1 at small alpha."""
    code, out, _ = run(capsys, "verify-asymptotics", "--channel", "paper",
                       "--rho1", "0.7", "--rho2", "0.4", "--x3", "1",
                       "--alpha", "1e-3,1e-4")
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()[2:]]
    assert [r[:4] for r in rows] == [["0.7", "0.4", "1", "0.001"],
                                     ["0.7", "0.4", "1", "0.0001"]]
    assert all(0.99 < float(r[4]) < 1.01 for r in rows)


@pytest.mark.filterwarnings("error")    # a numpy warning is a second line
@pytest.mark.parametrize("rhos", [["--rho1", "inf"],
                                  ["--rho1", "1e400", "--rho2", "1e400"],
                                  ["--rho1", "nan"]],
                         ids=["inf", "overflow", "nan"])
def test_verify_asymptotics_rejects_non_finite_rho(capsys, rhos):
    code, out, err = run(capsys, "verify-asymptotics", "--channel", "paper",
                         *rhos)
    assert (code, out) == (3, "")
    assert err.startswith("error: rho1, rho2 ") and err.count("\n") == 1


def test_simulate_exact_delta_silent_plan_strict_json(capsys, tmp_path):
    """A silent plan has a zero divergence bound: its delta_bound_ratio is
    null, and the report is JSON without Infinity or NaN."""
    p = tmp_path / "silent.json"
    p.write_text(cm.PhasePlan.single_phase((0.5, 0.5), 0.0, 0.0).to_json())
    code, out, _ = run(capsys, "simulate", "--channel", "paper", "--plan",
                       str(p), "--n", "4", "--trials", "2", "--exact-delta")
    assert code == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads(out, parse_constant=reject)
    assert doc["delta_exact_nats"] == 0.0 and doc["delta_bound_ratio"] is None


def test_simulate_exact_delta_both_on_support_violation(capsys, tmp_path):
    """Where only the warden's (1,1,x3) row leaves the support of the
    all-off row, the plan's chi-square is finite but the exact divergence
    is not: simulate --exact-delta exits 3 with a message naming that row."""
    chan, plan = tmp_path / "chan.json", tmp_path / "plan.json"
    gz = [[0.5, 0.5, 0.0], [0.6, 0.4, 0.0], [0.4, 0.6, 0.0], [0.0, 0.0, 1.0]]
    cm.save_channel(make_dmc([[0.5, 0.3, 0.2]] * 4, gz), chan)
    plan.write_text(cm.PhasePlan.single_phase((1.0,), 2.5, 2.5).to_json())
    code, out, err = run(capsys, "simulate", "--channel", str(chan),
                         "--plan", str(plan), "--n", "4", "--trials", "2",
                         "--exact-delta")
    assert code == 3 and out == ""
    assert err.startswith("error: the exact divergence is infinite: a "
                          "(1,1,x3) warden row")


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


def _capped_region_argv():
    """region on random_problem(5) at R3 = 0.3 x capacity, whose optimum
    needs three phases, with at most two allowed."""
    d, cons, _ = random_problem(5)
    r3 = 0.3 * cm.capacity_x3(d)[0]
    return ["region", "--channel", "CHAN5", "--r1", repr(cons.r1_min),
            "--k1-max", repr(cons.k1_max), "--k2-max", repr(cons.k2_max),
            "--r3-grid", repr(r3), "--max-phases", "2"]


def _bad_docs():
    """Channel and plan documents that each fail one input check, and the
    GZ_AC channel with a plan that sends its violating x3 symbol."""
    from test_region import GZ_AC
    paper = cm.paper_channel().to_dict()
    plan = cm.PhasePlan.single_phase((0.535, 0.465), 0.5, 0.5).to_dict()
    negative = [[-0.1, 0.3, 0.2, 0.2, 0.2, 0.2]] + paper["gamma_y"][1:]
    return {
        "NEGATIVE": {**paper, "gamma_y": negative},
        "NANCHAN": {**paper, "gamma_z": [[math.nan] * 6] + paper["gamma_z"][1:]},
        "BADSIZE": {**paper, "x3_size": "two"},
        "ZEROSIZE": {**paper, "x3_size": 0},
        "LISTDOC": [paper],
        "RAGGED": {**plan, "rho1": [0.5, 0.5]},
        "NOTDIST": {**plan, "p_x3_given_t": [[0.5, 0.4]]},
        "ACCHAN": make_dmc([[0.5, 0.3, 0.2]] * 8, GZ_AC).to_dict(),
        "ACPLAN": cm.PhasePlan.single_phase((1.0, 0.0), 1.0, 1.0).to_dict(),
    }


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
    ["curve", "--channel", "paper", "--r1", "inf"],
    ["curve", "--channel", "paper", "--fix-x3", "2"],
    ["curve", "--channel", "paper", "--fix-x3", "-1"],
    ["region", "--channel", "paper", "--r3-grid", "0:0.1:0"],
    ["curve", "--channel", "paper", "--k2-grid", "0:1:0"],
    ["region", "--channel", "paper", "--r3-grid", "0", "--max-phases", "0"],
    _capped_region_argv(),
    ["verify-asymptotics", "--channel", "paper", "--alpha", "0"],
    ["verify-asymptotics", "--channel", "paper", "--alpha", "1e-3,nan"],
    ["simulate", "--channel", "paper", "--plan", "PLAN", "--n", "24",
     "--omega", "0"],
    ["simulate", "--channel", "paper", "--plan", "PLAN", "--n", "24",
     "--omega", "-1"],
    ["simulate", "--channel", "paper", "--plan", "PLAN", "--n", "24",
     "--omega", "nan"],
    ["verify-asymptotics", "--channel", "UNIFORM", "--random", "2"],
    ["profile", "--channel", "NEGATIVE"],
    ["profile", "--channel", "NANCHAN"],
    ["profile", "--channel", "BADSIZE"],
    ["profile", "--channel", "ZEROSIZE"],
    ["profile", "--channel", "LISTDOC"],
    ["sizing", "--channel", "paper", "--plan", "RAGGED", "--n", "100"],
    ["sizing", "--channel", "paper", "--plan", "NOTDIST", "--n", "100"],
    ["sizing", "--channel", "paper", "--plan", "PLAN", "--n", "100",
     "--xi", "1.5"],
    ["sizing", "--channel", "paper", "--plan", "PLAN", "--n", "100",
     "--omega", "2"],
    ["simulate", "--channel", "paper", "--plan", "PLAN", "--n", "24",
     "--m1", "0"],
    ["simulate", "--channel", "ACCHAN", "--plan", "ACPLAN", "--n", "4",
     "--trials", "2", "--exact-delta"],
], ids=["x3-out-of-range", "sizing-n-zero", "negative-trials",
        "simulate-n-zero", "simulate-n-zero-exact-delta", "region-nan-r3",
        "curve-nan-r1", "curve-nan-k2", "r1-inf", "fix-x3-above-range",
        "fix-x3-negative", "region-empty-grid",
        "curve-empty-grid", "max-phases-zero", "max-phases-below-optimum",
        "alpha-zero", "alpha-nan", "omega-zero", "omega-negative",
        "omega-nan", "warden-blind", "channel-negative-entry",
        "channel-nan-entry",
        "channel-bad-size", "channel-zero-size", "channel-not-an-object",
        "plan-ragged", "plan-row-not-a-distribution", "sizing-xi-above-one",
        "sizing-omega-above-one", "simulate-m1-zero",
        "exact-delta-ac-violation"])
def test_invalid_input_exit_3(capsys, plan_file, tmp_path, uniform_channel,
                              argv):
    chan5, uniform = tmp_path / "chan5.json", tmp_path / "uniform.json"
    cm.save_channel(random_problem(5)[0], chan5)
    cm.save_channel(uniform_channel, uniform)
    files = {"PLAN": plan_file, "CHAN5": str(chan5), "UNIFORM": str(uniform)}
    for name, doc in _bad_docs().items():
        files[name] = str(tmp_path / f"{name}.json")
        with open(files[name], "w") as f:
            json.dump(doc, f)
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("field, value", [
    ("p_t", [math.nan]), ("p_x3_given_t", [[math.nan, 1.0]]),
    ("rho1", [math.inf]), ("rho2", [math.nan])])
@pytest.mark.parametrize("cmd", [["sizing", "--n", "1000000"],
                                 ["simulate", "--n", "24", "--trials", "2"]],
                         ids=["sizing", "simulate"])
def test_non_finite_plan_exit_3(capsys, tmp_path, field, value, cmd):
    """json.load reads NaN and Infinity, so a plan file can hold them: it
    exits 3 with a message naming the field, not a report or a crash."""
    doc = {**cm.PhasePlan.single_phase((0.535, 0.465), 0.5, 0.5).to_dict(),
           field: value}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, cmd[0], "--channel", "paper", "--plan",
                         str(path), *cmd[1:])
    assert (code, out) == (3, "")
    assert err == f"error: {field} has a non-finite entry\n"


PLAN_DOC = cm.PhasePlan.single_phase((0.535, 0.465), 0.5, 0.5).to_dict()


@pytest.mark.parametrize("doc, key", [
    ([PLAN_DOC], "JSON object"),
    ({k: v for k, v in PLAN_DOC.items() if k != "rho2"}, "rho2"),
    ({**PLAN_DOC, "beta1": None}, "beta1"),
    ({**PLAN_DOC, "beta2": True}, "beta2"),
    ({**PLAN_DOC, "p_t": "1.0"}, "p_t"),
    ({**PLAN_DOC, "rho1": [True]}, "rho1"),
    ({**PLAN_DOC, "p_x3_given_t": [[0.5, None]]}, "p_x3_given_t"),
    ({**PLAN_DOC, "p_x3_given_t": 1.0}, "p_x3_given_t"),
    ({**PLAN_DOC, "rho1": [10 ** 400]}, "rho1"),
    ({**PLAN_DOC, "beta2": -10 ** 400}, "beta2"),
], ids=["list", "no-rho2", "null-beta1", "bool-beta2", "string-p_t",
        "bool-rho1", "null-q-entry", "number-q", "huge-rho1", "huge-beta2"])
@pytest.mark.parametrize("cmd", [["sizing", "--n", "1000000"],
                                 ["sizing", "--n", "1000000", "--xi", "0.2"],
                                 ["simulate", "--n", "24", "--trials", "2"]],
                         ids=["sizing", "sizing-xi", "simulate"])
def test_malformed_plan_exit_3(capsys, tmp_path, doc, key, cmd):
    """A plan file that is not an object, lacks a key, or holds a value
    that is not a (list of) JSON number(s) exits 3 with a one-line message
    naming the key, not a traceback."""
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, cmd[0], "--channel", "paper", "--plan",
                         str(path), *cmd[1:])
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err


@pytest.mark.parametrize("key, value", [
    ("x3_size", "2"), ("x3_size", 2.5), ("y_size", 6.0), ("z_size", True),
    ("y_size", None)])
def test_channel_size_must_be_an_integer_exit_3(capsys, tmp_path, key, value):
    """Sizes that int() would accept (a string, a float, a bool) are not
    JSON integers: exit 3 with a message naming the size."""
    path = tmp_path / "chan.json"
    path.write_text(json.dumps({**cm.paper_channel().to_dict(), key: value}))
    code, out, err = run(capsys, "profile", "--channel", str(path))
    assert (code, out) == (3, "")
    assert err == f"error: {key} must be an integer, got {value!r}\n"


def test_channel_string_entry_exit_3(capsys, tmp_path):
    """A matrix entry that is a JSON string is not read as a number: exit 3
    with a message naming the matrix."""
    doc = cm.paper_channel().to_dict()
    doc["gamma_y"][0][0] = str(doc["gamma_y"][0][0])
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "profile", "--channel", str(path))
    assert (code, out) == (3, "")
    assert err == "error: gamma_y must be a list of rows of JSON numbers\n"


def test_profile_row_sum_message_exit_3(capsys, tmp_path):
    """A channel file whose first gamma_y row sums to 0.9: exit 3 and one
    stderr line that prints the sum as a plain float."""
    doc = cm.paper_channel().to_dict()
    doc["gamma_y"][0][0] -= 0.1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "profile", "--channel", str(path))
    assert (code, out) == (3, "") and err.count("\n") == 1
    assert "sums to 0.9000000000000001, not 1" in err


def test_profile_ac_violation_rows(capsys, tmp_path):
    """A warden-side absolute-continuity violation at x3 = 0 gives inf
    chi-square rows there, finite ones at x3 = 1, a comment line naming the
    symbol, and exit 0."""
    from test_region import GZ_AC
    p = tmp_path / "ac.json"
    cm.save_channel(make_dmc([[0.5, 0.3, 0.2]] * 8, GZ_AC), p)
    code, out, _ = run(capsys, "profile", "--channel", str(p))
    assert code == 0
    lines = out.splitlines()
    chi = [l.split(",") for l in lines[lines.index("x3,lambda,chi2") + 1:]
           if not l.startswith("#")]
    assert [c[2] for c in chi if c[0] == "0"] == ["inf"] * 5
    assert all(math.isfinite(float(c[2])) for c in chi if c[0] == "1")
    assert lines[-1] == "# absolute-continuity violations at x3: [0]"


@pytest.mark.parametrize("unit", ["bits", "nats"])
def test_profile_computes_one_divergence_profile(capsys, monkeypatch, unit):
    """profile reads its rows and its chi-square column from the one
    channel table of its unit: one divergence_profile per run."""
    import covertmac.infotheory as infotheory
    calls = []
    inner = infotheory.divergence_profile

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(infotheory, "divergence_profile", counted)
    code, _, _ = run(capsys, "profile", "--channel", "paper", "--unit", unit)
    assert code == 0
    assert len(calls) == 1


# The benchmark's three solve commands at the test-suite budget, and their
# outputs before the channel terms moved into one table per channel.
SOLVE_ARGV = ["--channel", "paper", "--seed", "0", "--restarts", "12",
              "--max-iter", "2000", "--max-phases", "3", "--threads", "1"]
MANIFEST = ("# subcommand={} channel=5b3277737d308b0a unit=bits seed=0 "
            "version={} timestamp=2023-11-14T22:13:20Z ")


@pytest.mark.parametrize("argv, tail, rows", [
    (["curve", "--fix-x3", "0", "--r1", "0.1", "--k1-max", "0.8",
      "--k2-grid", "1.0"], "r1=0.1 k1_max=0.8 x3_mode=fix0 max_phases=3",
     ["k2,r2", "1,0.235901882351"]),
    (["curve", "--r1", "0.1", "--k1-max", "0.8", "--k2-grid", "1.0"],
     "r1=0.1 k1_max=0.8 x3_mode=optimize max_phases=3",
     ["k2,r2", "1,1.09525502794"]),
    (["region", "--r1", "0.5", "--k1-max", "0.8", "--k2-max", "0.8",
      "--r3-grid", "0,0.1"], "r1=0.5 k1_max=0.8 k2_max=0.8 max_phases=3",
     ["r2,R3", "0.80785280757,0", "0.606688252205,0.1"]),
], ids=["curve-fix0", "curve-opt", "region-corner"])
def test_solve_outputs_pinned(capsys, monkeypatch, argv, tail, rows):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    code, out, _ = run(capsys, *argv, *SOLVE_ARGV)
    assert code == 0
    head = MANIFEST.format(argv[0], cm.__version__) + tail
    assert out == "\n".join([head] + rows) + "\n"


def test_curve_fix_x3_zero_key_cap(capsys):
    """The README's fix-x3 0 curve starts at k2 = 0, where the plan keeps
    user 2 silent (r2 = 0) instead of exiting 4."""
    code, out, _ = run(capsys, "curve", "--channel", "paper", "--r1", "0.1",
                       "--k1-max", "0.8", "--fix-x3", "0")
    assert code == 0
    assert out.splitlines()[1:3] == ["k2,r2", "0,0"]


def test_sizing_evaluates_the_plan_once(capsys, monkeypatch, plan_file):
    """The sizing report's bounds and rates come from one evaluation of the
    plan, and equal theorem1_sizing's and rate_tuple's."""
    from covertmac import region
    units = []
    real = region._plan_quantities
    monkeypatch.setattr(region, "_plan_quantities",
                        lambda d, plan, unit: units.append(unit)
                        or real(d, plan, unit))
    code, out, _ = run(capsys, "sizing", "--channel", "paper", "--plan",
                       plan_file, "--n", "1000", "--unit", "nats")
    assert code == 0 and units == ["nats"]
    doc = json.loads(out)
    with open(plan_file) as f:
        plan = cm.PhasePlan.from_dict(json.load(f))
    d = cm.paper_channel()
    sz = cm.theorem1_sizing(d, plan, 1000, 1000 ** -0.25, (0.1,) * 6, "nats")
    rt = cm.rate_tuple(d, plan, "nats")
    assert doc["log_m1"] == sz.log_m1
    assert doc["divergence_bound"] == sz.divergence_bound
    assert doc["asymptotic_rates"] == {"r1": rt.r1, "r2": rt.r2, "R3": rt.R3,
                                       "k1": rt.k1, "k2": rt.k2}


def test_sizing_json_pinned(capsys, monkeypatch, tmp_path):
    """The sizing report of REF_PLAN at n = 10^6, byte for byte."""
    from test_region import REF_PLAN
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    plan = tmp_path / "ref.json"
    plan.write_text(REF_PLAN.to_json())
    code, out, _ = run(capsys, "sizing", "--channel", "paper", "--plan",
                       str(plan), "--n", "1000000")
    assert code == 0
    head = MANIFEST.format("sizing", cm.__version__)
    assert out == (
        '{\n "manifest": "' + head + 'n=1000000 omega_n=0.03162277660168379",'
        '\n "phi1": 0.81,\n "phi2": 0.7200000000000001,\n "swapped": false,'
        '\n "log_m1": 15.582300859913124,\n "log_m2": 10.814900763032625,'
        '\n "log_m3": 139083.75039848353,\n "log_k1": 0.0,'
        '\n "log_k2": 7.825516289317798,'
        '\n "divergence_bound": 0.005170463324635028,'
        '\n "asymptotic_rates": {\n  "r1": 0.30332482591740323,'
        '\n  "r2": 0.21052268986155048,\n  "R3": 0.1545375004427595,'
        '\n  "k1": 0.0,\n  "k2": 0.15233137824193943\n },'
        '\n "unit": "bits"\n}\n')


REF_PLAN_DOC = {"p_t": [0.6, 0.4], "p_x3_given_t": [[0.7, 0.3], [0.2, 0.8]],
                "rho1": [0.9, 0.3], "rho2": [0.4, 1.1],
                "beta1": 0.9, "beta2": 0.8}


def _paths(node, path=()):
    """Every path of keys and indices into a JSON document, the root's too."""
    yield path
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, (*path, key))


# what a mutation puts in place of a value: _DROP deletes it, a function
# of the value wraps, retypes or lengthens it (a longer matrix row leaves
# the matrix ragged)
_DROP = object()
_REPLACEMENTS = [_DROP, None, True, False, math.nan, "0.5", 10 ** 400, [],
                 lambda v: [v], lambda v: {"v": v}, str,
                 lambda v: [*v, 0.0] if isinstance(v, list) else [v, 0.0]]
_RAGGED = cm.paper_channel().to_dict()
_RAGGED["gamma_y"][3].append(0.0)


@st.composite
def _mutated(draw, doc):
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    new = draw(st.sampled_from(_REPLACEMENTS))
    if not path:
        return new(doc) if callable(new) else None if new is _DROP else new
    *head, key = path
    parent = functools.reduce(lambda node, k: node[k], head, doc)
    if new is _DROP:
        del parent[key]
    else:
        parent[key] = new(parent[key]) if callable(new) else new
    return doc


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    st.tuples(_mutated(cm.paper_channel().to_dict()), st.just(REF_PLAN_DOC)),
    st.tuples(st.just(cm.paper_channel().to_dict()), _mutated(REF_PLAN_DOC))))
@example(docs=(_RAGGED, REF_PLAN_DOC))
def test_mutated_documents_exit_with_a_documented_code(tmp_path, docs):
    """A channel or plan document with one value dropped, retyped, nested,
    emptied or replaced by null, a bool, NaN, a string or an integer too
    large for a float: profile, sizing and simulate end with a documented
    exit code, and no exception escapes main."""
    chan, plan = tmp_path / "chan.json", tmp_path / "plan.json"
    chan.write_text(json.dumps(docs[0]))
    plan.write_text(json.dumps(docs[1]))
    common = ["--channel", str(chan), "--out", str(tmp_path / "out")]
    for argv in (["profile", *common],
                 ["sizing", *common, "--plan", str(plan), "--n", "1000"],
                 ["simulate", *common, "--plan", str(plan), "--n", "8",
                  "--trials", "1"]):
        assert main(argv) in (0, 2, 3, 4, 5)


# argv values the property draws, each of which argparse takes: valid
# ones (listed first and, for files, twice, as hypothesis draws them more
# often) and ones out of range, non-finite, too large for a float or
# malformed; file names are relative to the test's directory, and None
# leaves the flag out
_REAL = ["0", "0.1", "0.5", "0.8", "1", "2", "-1", "inf", "nan", "1e400"]
_COUNT = ["0", "1", "2", "-1"]                   # sizes of at most 2
_SIZE = ["1", "2", "3", "4", "0", "-1"]          # m's and k's of at most 4
_GRID = ["0", "0.1", "0,0.1", "0,0.05,0.1", "0:0.1:3", "0:1:2", "1,0.5",
         "-0.1", "nan", "inf", "0:1", "0:1:x", "0:1:0", "x", ""]
_COMMON = {"--unit": ["bits", "nats"], "--seed": ["0", "7", "-1"],
           "--out": ["out", "out", ".", "missing/out"]}
_SOLVE = {"--max-phases": ["1", "2", "3", "0", "-1"], "--restarts": _COUNT,
          "--max-iter": _COUNT, "--threads": _COUNT, "--r1": _REAL,
          "--k1-max": _REAL}
_PLAN = ["ref.json", "plan.json", "ref.json", "plan.json", "missing.json",
         "bad.json", None]
_CHANNEL = ["paper", "chan.json", "paper", "chan.json", "uniform.json",
            "missing.json", "bad.json", None]
# per subcommand: the flags drawn at will, and those always given, as they
# are required or their defaults are large (21 grid points, 20 cases,
# 1000 trials); simulate's --n is drawn apart
_FLAGS = {
    "profile": (_COMMON, {}),
    "region": ({**_COMMON, **_SOLVE, "--k2-max": _REAL, "--r3-grid": _GRID},
               {"--grid-points": ["0", "1", "2", "3", "-1"]}),
    "curve": ({**_COMMON, **_SOLVE, "--fix-x3": ["0", "1", "2", "-1"]},
              {"--k2-grid": _GRID}),
    "simulate": ({**_COMMON, "--omega": _REAL, "--threads": _COUNT,
                  **{f"--{m}": _SIZE for m in ("m1", "m2", "m3", "k1", "k2")}},
                 {"--plan": _PLAN, "--trials": _COUNT}),
    "verify-asymptotics": ({**_COMMON, "--rho1": _REAL, "--rho2": _REAL,
                            "--x3": ["0", "1", "2", "-1"],
                            "--alpha": ["1e-2", "1e-2,1e-3,1e-4", "0", "-1",
                                        "nan", "1e-2,x", ""]},
                           {"--random": _COUNT}),
    "sizing": ({**_COMMON, "--omega": _REAL,
                "--xi": ["0.1", "0.1,0.2", ",".join(["0.1"] * 6), "0", "1.5",
                         "nan", "x"]},
               {"--plan": _PLAN, "--n": ["1", "1000", "1000000", "0", "-5"]}),
}


@st.composite
def _argv(draw):
    """A subcommand, its --channel, its always-given flags and up to four
    of its other flags with drawn values; at times a value argparse refuses
    or an unknown flag.  simulate's --n is at most 64, and with
    --exact-delta at most 5 or at least 11, so that the enumeration is
    quick or over its cap."""
    cmd = draw(st.sampled_from(sorted(_FLAGS)))
    flags, given = _FLAGS[cmd]
    pairs = [(flag, draw(st.sampled_from(values)))
             for flag, values in given.items()]
    pairs += [(flag, draw(st.sampled_from(flags[flag])))
              for flag in draw(st.lists(st.sampled_from(sorted(flags)),
                                        unique=True, max_size=4))]
    pairs.append(("--channel", draw(st.sampled_from(_CHANNEL))))
    if cmd == "simulate":
        exact = draw(st.booleans())
        n = (st.one_of(st.integers(1, 5), st.integers(11, 64)) if exact
             else st.integers(1, 64))
        pairs.append(("--n", str(draw(st.one_of(n, st.just(0))))))
    if draw(st.sampled_from([False] * 9 + [True])):
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = (pairs[i][0], draw(st.sampled_from(["x", "", "1.5"])))
    argv = [cmd, *(a for pair in pairs if pair[1] is not None
                   for a in pair)]
    if cmd == "simulate":
        argv += ["--exact-delta"] * exact
        argv += ["--fixed-codebook"] * draw(st.booleans())
    if draw(st.sampled_from([False] * 19 + [True])):
        argv.insert(draw(st.integers(1, len(argv))), "--bogus")
    return argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv())
@example(["region", "--channel", "paper", "--grid-points", "3",
          "--r3-grid", "0,0.1", "--max-phases", "1"])
@example(["curve", "--channel", "paper", "--k2-grid", "0.3",
          "--max-phases", "1"])
@example(["simulate", "--channel", "paper", "--plan", "ref.json", "--trials",
          "2", "--n", "5", "--exact-delta", "--m1", "4", "--m2", "4",
          "--k1", "4", "--k2", "4"])
@example(["simulate", "--channel", "chan.json", "--plan", "plan.json",
          "--trials", "1", "--n", "11", "--exact-delta"])
def test_generated_argv_exits_with_a_documented_code(
        tmp_path, monkeypatch, uniform_channel, argv):
    """argv drawn from valid and invalid flags and values of every
    subcommand: main returns 0, 2, 3, 4 or 5, and no exception escapes.
    It runs in tmp_path, so that every file it names or writes is there."""
    monkeypatch.chdir(tmp_path)
    if not os.path.exists("chan.json"):
        cm.save_channel(cm.paper_channel(), "chan.json")
        cm.save_channel(uniform_channel, "uniform.json")
        (tmp_path / "plan.json").write_text(
            cm.PhasePlan.single_phase((0.535, 0.465), 0.5, 0.5).to_json())
        (tmp_path / "ref.json").write_text(json.dumps(REF_PLAN_DOC))
        (tmp_path / "bad.json").write_text("{")
    assert main(argv) in (0, 2, 3, 4, 5)
