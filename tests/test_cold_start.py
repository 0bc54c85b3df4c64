"""A cold start loads scipy.optimize only when an LP runs.  Every check runs
in a fresh interpreter, since a module once imported stays imported."""
import os
import subprocess
import sys
import textwrap

import covertmac as cm

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cm.__file__)))


def fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *argv],
                          capture_output=True, text=True, env=env, timeout=300)


def test_scipy_optimize_loaded_on_first_lp(tmp_path):
    """profile, sizing, verify-asymptotics and exact-delta simulate run no
    LP and leave scipy.optimize unloaded; a following curve loads it and
    prints the pinned optimum."""
    plan = tmp_path / "plan.json"
    plan.write_text(cm.PhasePlan.single_phase((0.535, 0.465), 0.5, 0.5)
                    .to_json())
    out = fresh("""
        import sys
        import covertmac, covertmac.cli
        plan = sys.argv[1]
        for argv in (["profile"],
                     ["sizing", "--plan", plan, "--n", "1000000"],
                     ["verify-asymptotics", "--random", "2"],
                     ["simulate", "--plan", plan, "--n", "6", "--trials", "0",
                      "--exact-delta"]):
            assert covertmac.cli.main([*argv, "--channel", "paper"]) == 0
        print("loaded:", "scipy.optimize" in sys.modules)
        code = covertmac.cli.main(["curve", "--channel", "paper",
                                   "--k2-grid", "1.0"])
        print("loaded:", "scipy.optimize" in sys.modules, code)
    """, str(plan))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "loaded: False" in lines
    assert lines[-3:] == ["k2,r2", "1,1.09525502794", "loaded: True 0"]


def test_region_minimize_resolves_by_name():
    """region.minimize is scipy's, looked up on demand; other missing
    names raise AttributeError."""
    out = fresh("""
        import covertmac.region as region
        from scipy.optimize import minimize
        assert region.minimize is minimize
        try:
            region.nope
        except AttributeError as e:
            print("AttributeError:", e)
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout == ("AttributeError: module 'covertmac.region' has no "
                          "attribute 'nope'\n")
