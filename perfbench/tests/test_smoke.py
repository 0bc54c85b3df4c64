"""Smoke runs of every workload, untraced and traced.

    python3 -m pytest perfbench/tests

Each run does one short pass (--smoke) and must print every metric that
BENCHMARK.json declares, with its unit, the workload's named metrics, and
fail_frac = 0.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

NAMED = {"solve": ["solve_s.p50", "oracle_gap_rel"],
         "simulate": ["trials_per_s.n1e3_fresh", "trials_per_s.n1e4_fixed"],
         "enumerate": ["enum_call_s.p50", "enum_call_s.p75"],
         "evaluate": ["rate_evals_per_s", "rate_eval_us.p50", "rate_eval_us.p99"]}
COMMON = ["passes", "wall_s", "pass_s.p50", "pass_s.p90", "host_kernel_ms", "setup_s.raw",
          "fail_frac"]


def run(workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                             "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    head, doc = run(workload, trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in doc["metrics"].items()}
    for v in doc["metrics"].values():
        assert isinstance(v["value"], (int, float))
    named = {}
    for line in head:
        parts = line.split()
        if len(parts) == 5 and parts[0] == workload and parts[2] == "=":
            named[parts[1]] = (float(parts[3]), parts[4])
    expect = NAMED[workload] + (["fail_frac"] if trace else COMMON)
    assert set(expect) <= set(named)
    assert named["fail_frac"][0] == 0.0
    assert any(line.startswith("fingerprint ") for line in head)


def test_workloads_match_spec():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run as bench
    assert tuple(w["name"] for w in SPEC["workloads"]) == bench.WORKLOADS
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == bench.PER_LAYER


def test_refuses_without_sources():
    """Without src/ next to it the benchmark fails instead of printing a result."""
    bare = os.path.join(ROOT, "perfbench", "out", "no-src")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(SPEC["command"] + ["--workload", "evaluate", "--seed", "0",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip()
