"""The benchmark's workloads: generated inputs, the operations of one pass,
and the checks on their outputs.

A workload is a sequence of passes.  Pass p draws its inputs from
SeedSequence([workload seed, crc32(workload name), p, ...]); covertmac only
ever receives those generated inputs (CLI seeds, channels, plans).  Every
operation is timed on its own; the checks run after the pass, outside the
timed region.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import zlib

import numpy as np

import covertmac
import covertmac.cli
from covertmac import channel, region, simulator

import reference
from run import percentile

DEFAULT_SEED = 0
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# Frozen optima of tests/test_region.py (independent LP solves).
ORACLE_FIX0_PLATEAU = 0.235901882351458     # r1>=0.1, k1<=0.8, k2<=1.0, x3=0
ORACLE_OPT_PLATEAU = 1.09525502794079       # r1>=0.1, k1<=0.8, k2<=1.0
ORACLE_CORNER = 0.807852807569945           # r1>=0.5, k1<=0.8, k2<=0.8

# Optimizer budget of the test suite.
SOLVE_BUDGET = ["--restarts", "12", "--max-iter", "2000", "--max-phases", "3",
                "--threads", "1"]

# REF_PLAN of tests/test_region.py: two phases, unequal betas.
REF_PLAN = {"p_t": [0.6, 0.4], "p_x3_given_t": [[0.7, 0.3], [0.2, 0.8]],
            "rho1": [0.9, 0.3], "rho2": [0.4, 1.1], "beta1": 0.9, "beta2": 0.8}
# Sparse: the single-phase x3 = 0 plan of acceptance criterion 8.
ENUM_PLAN_A = {"p_t": [1.0], "p_x3_given_t": [[1.0, 0.0]],
               "rho1": [0.5], "rho2": [0.5], "beta1": 1.0, "beta2": 1.0}
# Dense: two phases, rho up to 2, beta2 < beta1 so user 2 pads.
ENUM_PLAN_B = {"p_t": [0.5, 0.5], "p_x3_given_t": [[0.6, 0.4], [0.3, 0.7]],
               "rho1": [2.0, 1.5], "rho2": [1.5, 2.0], "beta1": 1.0, "beta2": 0.8}
ENUM_SIZES = {"n": 8, "m1": 2, "m2": 2, "m3": 2, "k1": 2, "k2": 2}


class Op:
    """One timed call.  ``work`` counts the workload's units of work done."""

    def __init__(self, kind, fn, check, work=0):
        self.kind, self.fn, self.check = kind, fn, check
        self.work = work


def run_cli(argv):
    """covertmac.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = covertmac.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_ok(res) -> list[str]:
    code, _, err = res
    return [] if code == 0 else [f"exit code {code}: {err.strip()[:200]}"]


class Workload:
    name = ""
    trace_passes = 1

    def __init__(self, seed: int, out_dir: str, smoke: bool):
        self.seed = seed
        self.out_dir = out_dir
        self.smoke = smoke
        self.salt = zlib.crc32(self.name.encode())
        self.golden = None
        if seed == DEFAULT_SEED:
            with open(GOLDEN_PATH) as f:
                self.golden = json.load(f).get(self.name)

    def sub_seed(self, *key) -> int:
        seq = np.random.SeedSequence([self.seed, self.salt, *key])
        return int(seq.generate_state(1)[0])

    def write_plan(self, tag: str, plan: dict) -> str:
        path = os.path.join(self.out_dir, f"plan-{self.name}-{tag}.json")
        with open(path, "w") as f:
            json.dump(plan, f)
        return path

    def make_pass(self, p: int) -> list[Op]:
        raise NotImplementedError

    def named(self, op_s: dict[str, list[float]]) -> dict:
        """The workload's own metrics from the times of its successful
        calls, by kind: {name: [value, unit]}."""
        raise NotImplementedError


class Solve(Workload):
    """The three frozen oracle problems through `curve` and `region`: four
    max_r2 solves in three CLI calls per pass."""

    name = "solve"

    def __init__(self, *a):
        super().__init__(*a)
        self.gaps: list[float] = []

    def make_pass(self, p):
        def argv(i, *problem):
            return list(problem) + ["--channel", "paper", "--seed",
                                    str(self.sub_seed(p, i))] + SOLVE_BUDGET
        fix0 = argv(0, "curve", "--fix-x3", "0", "--r1", "0.1", "--k1-max", "0.8",
                    "--k2-grid", "1.0")
        opt = argv(1, "curve", "--r1", "0.1", "--k1-max", "0.8", "--k2-grid", "1.0")
        corner = argv(2, "region", "--r1", "0.5", "--k1-max", "0.8", "--k2-max", "0.8",
                      "--r3-grid", "0,0.1")
        ops = [Op("curve-fix0", lambda: run_cli(fix0),
                  lambda r: self._check_curve(r, ORACLE_FIX0_PLATEAU), work=1)]
        if not self.smoke:
            ops += [Op("curve-opt", lambda: run_cli(opt),
                       lambda r: self._check_curve(r, ORACLE_OPT_PLATEAU), work=1),
                    Op("region-corner", lambda: run_cli(corner),
                       self._check_region, work=2)]
        return ops

    def _oracle(self, r2: float, oracle: float, what: str) -> list[str]:
        self.gaps.append((oracle - r2) / oracle)
        if oracle * 0.995 <= r2 <= oracle * (1 + 1e-6):
            return []
        return [f"{what}: r2={r2!r} outside [0.995, 1+1e-6] x {oracle!r}"]

    def _check_curve(self, res, oracle):
        errs = cli_ok(res)
        if errs:
            return errs
        rows = res[1].splitlines()[2:]
        if len(rows) != 1:
            return [f"curve: expected one row, got {rows}"]
        return self._oracle(float(rows[0].split(",")[1]), oracle, "curve")

    def _check_region(self, res):
        errs = cli_ok(res)
        if errs:
            return errs
        rows = [tuple(map(float, r.split(","))) for r in res[1].splitlines()[2:]]
        if [r3 for _, r3 in rows] != [0.0, 0.1]:
            return [f"region: expected R3 rows 0 and 0.1, got {rows}"]
        errs = self._oracle(rows[0][0], ORACLE_CORNER, "region R3=0")
        if rows[1][0] > rows[0][0]:
            errs.append(f"region: r2 at R3=0.1 ({rows[1][0]!r}) above the corner")
        return errs

    def named(self, op_s):
        calls = [t for ts in op_s.values() for t in ts]
        return {"solve_s.p50": [statistics.median(calls), "s"],
                "oracle_gap_rel": [max(self.gaps), "rel"]}


class Simulate(Workload):
    """`simulate` on REF_PLAN, m1 = m2 = 4, k1 = k2 = 2, m3 = 16, once in
    each codebook mode per pass."""

    name = "simulate"
    trace_passes = 10
    # (tag, n, trials, extra arguments)
    MODES = [("n1e3_fresh", 1000, 200, []),
             ("n1e4_fixed", 10_000, 40, ["--fixed-codebook"])]

    def __init__(self, *a):
        super().__init__(*a)
        self.plan_path = self.write_plan("ref", REF_PLAN)

    def make_pass(self, p):
        ops = []
        for i, (tag, n, trials, extra) in enumerate(self.MODES):
            argv = ["simulate", "--channel", "paper", "--plan", self.plan_path,
                    "--n", str(n), "--m1", "4", "--m2", "4", "--k1", "2",
                    "--k2", "2", "--m3", "16", "--trials", str(trials),
                    "--threads", "1", "--seed", str(self.sub_seed(p, i))] + extra
            golden = self.golden[i] if self.golden and p == 0 else None
            ops.append(Op(tag, lambda argv=argv: run_cli(argv),
                          lambda r, t=trials, golden=golden: self._check(r, t, golden),
                          work=trials))
        return ops

    @staticmethod
    def _check(res, t, golden):
        errs = cli_ok(res)
        if errs:
            return errs
        doc = json.loads(res[1])
        doc.pop("wall_time_s")
        if doc["trials_run"] != t:
            errs.append(f"trials_run {doc['trials_run']} != {t}")
        for h in ("pe0", "pe1"):
            lo, hi = doc[f"{h}_interval"]
            hat = doc[f"{h}_hat"]
            # the Wilson bounds carry rounding of order 1e-18 at 0 or t errors
            if not (0.0 <= lo <= hat + 1e-12 and hat - 1e-12 <= hi <= 1.0):
                errs.append(f"{h}: interval {lo}, {hi} around {hat}")
        st = doc["stage_errors"]
        if round(doc["pe0_hat"] * t) != st["w3_h0"]:
            errs.append(f"pe0_hat {doc['pe0_hat']} vs w3_h0 errors {st['w3_h0']}")
        e1 = round(doc["pe1_hat"] * t)
        if not max(st["w3"], st["w1"], st["w2"]) <= e1 <= st["w3"] + st["w1"] + st["w2"]:
            errs.append(f"pe1 errors {e1} inconsistent with stage errors {st}")
        if golden is not None and doc != golden:
            errs.append("report differs from the recorded default-seed report")
        return errs

    def named(self, op_s):
        return {f"trials_per_s.{tag}": [trials / statistics.median(op_s[tag]), "1/s"]
                for tag, _, trials, _ in self.MODES if op_s.get(tag)}


class Enumerate(Workload):
    """`simulate --trials 0 --exact-delta` at n = 8 on a sparse and a dense plan."""

    name = "enumerate"
    trace_passes = 5

    def __init__(self, *a):
        super().__init__(*a)
        self.d = covertmac.paper_channel()
        self.plans = [("A", ENUM_PLAN_A, self.write_plan("A", ENUM_PLAN_A)),
                      ("B", ENUM_PLAN_B, self.write_plan("B", ENUM_PLAN_B))]

    def make_pass(self, p):
        ops = []
        for i, (tag, plan, path) in enumerate(self.plans):
            seed = self.sub_seed(p, i)
            argv = ["simulate", "--channel", "paper", "--plan", path, "--trials", "0",
                    "--exact-delta", "--threads", "1", "--seed", str(seed)]
            for k, v in ENUM_SIZES.items():
                argv += [f"--{k}", str(v)]
            golden = self.golden[i] if self.golden and p == 0 else None
            ops.append(Op(f"exact-delta-{tag}", lambda argv=argv: run_cli(argv),
                          lambda r, plan=plan, seed=seed, golden=golden:
                          self._check(r, plan, seed, golden),
                          work=ENUM_SIZES["m3"]))
        return ops

    def _bound(self, plan: dict, seed: int) -> float:
        """Mean over w3 of the convexity bound, for the CLI's ensemble."""
        cfg = simulator.SimConfig(plan=region.PhasePlan.from_dict(plan), trials=0,
                                  seed=seed, **ENUM_SIZES)
        # run_trials draws the ensemble it enumerates from stream (seed, 2^31)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2 ** 31]))
        ens = simulator.build_codebooks(cfg, rng, d=self.d)
        words = [(ens.covert_sequence(1, wa, sa), ens.covert_sequence(2, wb, sb))
                 for wa in range(cfg.m1) for sa in range(cfg.k1)
                 for wb in range(cfg.m2) for sb in range(cfg.k2)]
        words = [([int(v) for v in a], [int(v) for v in b]) for a, b in words]
        gz = self.d.gamma_z.tolist()
        return statistics.fmean(
            reference.convexity_bound(gz, self.d.x3_size, cfg.n, plan, cfg.omega_n,
                                      words, [int(v) for v in ens.x3_sequence(w3)])
            for w3 in range(cfg.m3))

    def _check(self, res, plan, seed, golden):
        errs = cli_ok(res)
        if errs:
            return errs
        doc = json.loads(res[1])
        delta = doc["delta_exact_nats"]
        bound = self._bound(plan, seed)
        if not (math.isfinite(delta) and -1e-15 <= delta <= bound * (1 + 1e-9)):
            errs.append(f"delta {delta!r} outside [0, convexity bound {bound!r}]")
        got = [delta, doc["delta_bound_ratio"]]
        if golden is not None and got != golden:
            errs.append(f"delta {got} differs from the recorded {golden}")
        return errs

    def named(self, op_s):
        calls = [t for ts in op_s.values() for t in ts]
        return {"enum_call_s.p50": [statistics.median(calls), "s"],
                "enum_call_s.p75": [percentile(calls, 75), "s"]}


class Evaluate(Workload):
    """Library calls: from_dict, capacity_x3, then rate_tuple and
    theorem1_sizing over random plans, on the paper channel and a fresh
    random channel in every pass.  Many plans per channel keep the heavy
    tail of capacity_x3's iteration count from dominating a run's time."""

    name = "evaluate"
    trace_passes = 30
    random_channels = 1
    plans_per_channel = 120
    sizing_n = 10 ** 6

    def __init__(self, *a):
        super().__init__(*a)
        self.paper_doc = covertmac.paper_channel().to_dict()

    def _random_channel(self, rng) -> dict:
        k = int(rng.integers(2, 5))
        ny, nz = (int(v) for v in rng.integers(4, 9, size=2))
        # Dirichlet rows are strictly positive: absolute continuity holds
        gy = rng.dirichlet(np.full(ny, 2.0), size=4 * k)
        gz = rng.dirichlet(np.full(nz, 2.0), size=4 * k)
        return {"x3_size": k, "y_size": ny, "z_size": nz,
                "gamma_y": (gy / gy.sum(1, keepdims=True)).tolist(),
                "gamma_z": (gz / gz.sum(1, keepdims=True)).tolist()}

    @staticmethod
    def _random_plan(rng, k: int) -> dict:
        tau = int(rng.integers(1, 7))
        p_t = rng.dirichlet(np.ones(tau))
        q = rng.dirichlet(np.ones(k), size=tau)
        return {"p_t": (p_t / p_t.sum()).tolist(),
                "p_x3_given_t": (q / q.sum(1, keepdims=True)).tolist(),
                "rho1": rng.uniform(0.05, 2.0, tau).tolist(),
                "rho2": rng.uniform(0.05, 2.0, tau).tolist(),
                "beta1": float(rng.uniform(0.1, 1.0)),
                "beta2": float(rng.uniform(0.1, 1.0))}

    def make_pass(self, p):
        ops = []
        n_random = 0 if self.smoke else self.random_channels
        for c in range(n_random + 1):
            rng = np.random.default_rng(np.random.SeedSequence(
                [self.seed, self.salt, p, c]))
            doc = self.paper_doc if c == 0 else self._random_channel(rng)
            ops += self._channel_ops(doc, rng)
        return ops

    def _channel_ops(self, doc, rng) -> list[Op]:
        state = {}
        tables = reference.ChannelTables(doc)

        def load():
            d = channel.from_dict(doc)
            state["d"] = d
            return covertmac.infotheory.capacity_x3(d)

        def check_load(res):
            cap, pstar = res
            ok = 0.0 <= cap <= math.log2(doc["x3_size"]) + 1e-9 and \
                abs(float(np.sum(pstar)) - 1.0) < 1e-9
            return [] if ok else [f"capacity {cap!r} or p* {pstar!r} invalid"]

        ops = [Op("load", load, check_load)]
        n_plans = 4 if self.smoke else self.plans_per_channel
        omega = self.sizing_n ** -0.25
        for i in range(n_plans):
            plan_doc = self._random_plan(rng, doc["x3_size"])
            plan = region.PhasePlan.from_dict(plan_doc)
            ops.append(Op(
                "rate_tuple", lambda plan=plan: region.rate_tuple(state["d"], plan),
                lambda rt, pd=plan_doc, plan=plan, i=i:
                self._check_rates(state["d"], tables, pd, plan, rt, scale=i % 4 == 0),
                work=1))
            ops.append(Op(
                "theorem1_sizing",
                lambda plan=plan: region.theorem1_sizing(
                    state["d"], plan, self.sizing_n, omega, (0.1,) * 6),
                self._check_sizing))
        return ops

    @staticmethod
    def _check_rates(d, tables, plan_doc, plan, rt, scale) -> list[str]:
        got = (rt.r1, rt.r2, rt.R3, rt.k1, rt.k2)
        want = reference.rate_tuple(tables, plan_doc, rt.unit)
        errs = []
        if not all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
                   for a, b in zip(got, want)):
            errs.append(f"rate_tuple {got} != direct formula {want}")
        if scale:
            sc = region.rate_tuple(d, plan.scaled(1e3))
            if not all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12) for a, b in
                       zip(got, (sc.r1, sc.r2, sc.R3, sc.k1, sc.k2))):
                errs.append(f"rates change when rho is scaled: {got} vs {sc}")
        return errs

    @staticmethod
    def _check_sizing(sz) -> list[str]:
        vals = (sz.log_m1, sz.log_m2, sz.log_m3, sz.log_k1, sz.log_k2,
                sz.divergence_bound)
        ok = all(math.isfinite(v) and v >= 0 for v in vals)
        return [] if ok else [f"sizing has a negative or non-finite field: {vals}"]

    def named(self, op_s):
        rt = op_s.get("rate_tuple", [])
        if not rt:
            return {}
        return {"rate_evals_per_s": [len(rt) / sum(rt), "1/s"],
                "rate_eval_us.p50": [statistics.median(rt) * 1e6, "us"],
                "rate_eval_us.p99": [percentile(rt, 99) * 1e6, "us"]}


WORKLOADS = {w.name: w for w in (Solve, Simulate, Enumerate, Evaluate)}
