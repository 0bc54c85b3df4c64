"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 3 (the fix-x3=0 plateau) keep targets from the shipped
channel's published rate-region dataset, which agree with the rate formulas
of ``covertmac.region``.  The other optimum targets of criteria 2, 3 and 4
are derived in each test from the channel matrices: by the closed-form key
bound at a fixed x3, or by the independent LP oracle of ``lp_oracle.py``.
The dataset values they replace contradict those formulas; the README,
"Acceptance suite and reference targets", keeps them on record.
"""
import itertools
import math

import numpy as np
import pytest

import covertmac as cm
import covertmac.region as region
import lp_oracle
from covertmac.infotheory import capacity_x3, chi_square, mixture_kl
from covertmac.region import (Constraints, OptBudget, PhasePlan, max_r2,
                              rate_tuple, trace_r2_R3, curve_r2_vs_k2)
from covertmac.simulator import (SimConfig, auto_thresholds, build_codebooks,
                                 decode, encode, exact_delta, run_trials)

CAPACITY_REF = 0.197534            # criterion 1, +-1e-3
CURVE_K2 = (0.05, 0.3, 1.0)        # criterion 2 grid, +-2% of the LP oracle
FIX0_REF = 0.235812824459213       # criterion 3 plateau, +-2%

STRONG = OptBudget(max_phases=3)


def report(num, ok, detail):
    print(f"\nACCEPTANCE criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def meets_caps(rt, cons):
    return (rt.r1 >= cons.r1_min - 1e-9 and rt.k1 <= cons.k1_max + 1e-9
            and rt.k2 <= cons.k2_max + 1e-9)


def test_criterion_1_capacity_anchor(paper):
    cap_bits, _ = capacity_x3(paper, unit="bits")
    cap_nats, _ = capacity_x3(paper, unit="nats")
    hit_bits = abs(cap_bits - CAPACITY_REF) < 1e-3
    hit_nats = abs(cap_nats - CAPACITY_REF) < 1e-3
    ok = hit_bits != hit_nats and hit_bits and cm.DEFAULT_UNIT == "bits"
    report(1, ok, f"capacity {cap_bits:.6f} bits / {cap_nats:.6f} nats vs "
                  f"{CAPACITY_REF}; pinned default unit = {cm.DEFAULT_UNIT}")
    assert ok


def test_criterion_2_optimized_curve(paper, monkeypatch):
    solves = {}                     # k2 cap -> (constraints, rate tuple)
    inner = region.max_r2

    def recording_max_r2(d, cons, *args, **kwargs):
        plan, rt = inner(d, cons, *args, **kwargs)
        solves[cons.k2_max] = (cons, rt)
        return plan, rt

    monkeypatch.setattr(region, "max_r2", recording_max_r2)
    pts = dict(curve_r2_vs_k2(paper, 0.1, 0.8, CURVE_K2,
                              "optimize", OptBudget()))
    rows = []
    ok = True
    for k2 in CURVE_K2:
        want = lp_oracle.max_r2(paper, 0.1, 0.8, k2)
        got = pts[k2]
        cons, rt = solves[k2]
        good = (abs(got - want) <= 0.02 * want and rt.r2 == got
                and meets_caps(rt, cons))
        ok &= good
        rows.append(f"k2={k2}: r2={got:.6f} vs LP {want:.6f} "
                    f"(rel {(got - want) / want:+.1e}), k2 used {rt.k2:.4f}")
    report(2, ok, "; ".join(rows))
    assert ok, "optimized curve misses the LP optimum or breaks a cap"


def test_criterion_3_fix_x3_0_plateau(paper):
    _, rt = max_r2(paper, Constraints(r1_min=0.1, k1_max=0.8, k2_max=1.0),
                   STRONG, x3_mode=("fix", 0))
    ok = abs(rt.r2 - FIX0_REF) <= 0.02 * FIX0_REF
    report("3 (fix x3=0, k2=1.0)", ok, f"r2={rt.r2:.6f} vs {FIX0_REF:.6f} "
           f"({(rt.r2 - FIX0_REF) / FIX0_REF * 100:+.2f}%)")
    assert ok


def test_criterion_3_fix_x3_0_small_key(paper):
    cons = Constraints(r1_min=0.1, k1_max=0.8, k2_max=0.05)
    _, rt = max_r2(paper, cons, STRONG, x3_mode=("fix", 0))
    # with x3 pinned, every plan has k2/r2 = (D_Z2 - D_Y2)/D_Y2 at x3 = 0, so
    # the key cap bounds r2; beta2 reaches the bound from the key-free plateau
    dv = lp_oracle.divergences(paper)
    want = cons.k2_max * dv["y2"][0] / (dv["z2"][0] - dv["y2"][0])
    ok = abs(rt.r2 - want) <= 0.02 * want and meets_caps(rt, cons)
    report("3 (fix x3=0, k2=0.05)", ok,
           f"r2={rt.r2:.6f} vs key-limited bound {want:.6f} "
           f"(rel {(rt.r2 - want) / want:+.1e}), k2={rt.k2:.6f}")
    assert ok, "fix-x3=0 optimum misses the closed-form key bound"


def test_criterion_3_fix_x3_1_point(paper):
    cons = Constraints(r1_min=0.1, k1_max=0.8, k2_max=0.05)
    _, rt = max_r2(paper, cons, STRONG, x3_mode=("fix", 1))
    want = lp_oracle.max_r2(paper, 0.1, 0.8, 0.05, fix_x3=1)
    ok = abs(rt.r2 - want) <= 0.02 * want and meets_caps(rt, cons)
    report("3 (fix x3=1, k2=0.05)", ok,
           f"r2={rt.r2:.6f} vs LP {want:.6f} "
           f"(rel {(rt.r2 - want) / want:+.1e}): at x3=1 the receiver "
           f"divergences dominate the warden's, so no key is needed and the "
           f"k2 cap cannot bind")
    assert ok, "fix-x3=1 optimum misses the LP optimum or breaks a cap"


def test_criterion_4_region_corner(paper):
    pts = trace_r2_R3(paper, 0.5, 0.8, 0.8, [0.0], STRONG)
    got = pts[0][0]
    want = lp_oracle.max_r2(paper, 0.5, 0.8, 0.8)
    ok = abs(got - want) <= 0.01 * want
    report(4, ok, f"r2={got:.6f} at R3=0 vs LP {want:.6f} "
                  f"(rel {(got - want) / want:+.1e})")
    assert ok, "region corner misses the LP optimum"


def test_criterion_5_scale_invariance_suite(paper):
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(1000):
        tau = int(rng.integers(1, 4))
        p = rng.dirichlet(np.ones(tau))
        plan = PhasePlan(
            p_t=tuple(p / p.sum()),
            p_x3_given_t=tuple(tuple(rng.dirichlet([1, 1])) for _ in range(tau)),
            rho1=tuple(rng.uniform(0, 2, tau)),
            rho2=tuple(rng.uniform(0.01, 2, tau)),
            beta1=float(rng.uniform(0.1, 1)), beta2=float(rng.uniform(0.1, 1)))
        base = rate_tuple(paper, plan)
        for c in (1e-3, 1e3):
            other = rate_tuple(paper, plan.scaled(c))
            for x, y in zip((base.r1, base.r2, base.R3, base.k1, base.k2),
                            (other.r1, other.r2, other.R3, other.k1, other.k2)):
                assert math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)
        checked += 1
    report(5, True, f"{checked} random plans invariant under rho scaling "
                    f"by 1e-3 and 1e3 (rel 1e-9)")


def test_criterion_6_small_signal_lemma(paper):
    rng = np.random.default_rng(6)
    worst = {1e-3: 0.0, 1e-4: 0.0}
    for _ in range(20):
        rho1 = float(rng.uniform(0.1, 1.5))
        rho2 = float(rng.uniform(0.1, 1.5))
        x3 = int(rng.integers(paper.x3_size))
        c2 = chi_square(paper, rho1, rho2, x3)
        for alpha, band in ((1e-3, 0.05), (1e-4, 0.01)):
            ratio = (mixture_kl(paper, rho1, rho2, x3, alpha, "nats")
                     / ((alpha * (rho1 + rho2)) ** 2 / 2 * c2))
            worst[alpha] = max(worst[alpha], abs(ratio - 1))
            assert 1 - band <= ratio <= 1 + band, \
                f"ratio {ratio} outside band at alpha={alpha}"
    report(6, True, f"max |ratio-1|: {worst[1e-3]:.4f} at alpha=1e-3 "
                    f"(<=0.05), {worst[1e-4]:.5f} at alpha=1e-4 (<=0.01)")


def test_criterion_7_simulator_exactness(paper):
    # (a) all-zero covert codebooks give exactly zero warden divergence
    plan0 = PhasePlan.single_phase((0.535, 0.465), 0.0, 0.0)
    cfg0 = SimConfig(n=6, plan=plan0, m1=2, m2=2, m3=2, k1=2, k2=2, trials=0)
    ens0 = build_codebooks(cfg0, np.random.default_rng(70), d=paper)
    deltas = [abs(exact_delta(ens0, paper, w3)) for w3 in range(2)]
    assert max(deltas) < 1e-12

    # (b) a single codeword pair matches the per-symbol KL closed form
    plan1 = PhasePlan.single_phase((0.5, 0.5), 2.0, 1.0)
    cfg1 = SimConfig(n=5, plan=plan1, m1=1, m2=1, m3=1, k1=1, k2=1, trials=0)
    ens1 = build_codebooks(cfg1, np.random.default_rng(71), d=paper)
    x1 = ens1.covert_sequence(1, 0, 0)
    x2 = ens1.covert_sequence(2, 0, 0)
    x3 = ens1.x3_sequence(0)
    closed = sum(cm.kl_div(paper.row("Z", int(a), int(b), int(c)),
                           paper.row("Z", 0, 0, int(c)), "nats")
                 for a, b, c in zip(x1, x2, x3))
    gap = abs(exact_delta(ens1, paper, 0, "nats") - closed)
    assert gap < 1e-10

    # (c) Monte-Carlo estimates sit inside the Wilson interval around the
    # exhaustive enumeration over all messages, keys, and noise outcomes
    plan = PhasePlan.single_phase((0.535, 0.465), rho1=2.0, rho2=2.0)
    cfg = SimConfig(n=4, plan=plan, m1=2, m2=2, m3=2, k1=2, k2=2,
                    trials=2000, seed=13, fixed_codebook=True)
    ens = build_codebooks(
        cfg, np.random.default_rng(np.random.SeedSequence([13, 2 ** 31])),
        d=paper)
    eta1, eta2 = auto_thresholds(paper, plan, cfg.n, cfg.omega_n, cfg.mu)
    all_y = list(itertools.product(range(paper.y_size), repeat=cfg.n))
    cache = {}

    def dec(y, s1, s2, hyp):
        key = (y, s1, s2, hyp)
        if key not in cache:
            cache[key] = decode(ens, paper, np.array(y), s1, s2, hyp,
                                eta1, eta2)
        return cache[key]

    def prob_vec(x1, x2, x3):
        out = np.ones(1)
        for a, b, c in zip(x1, x2, x3):
            out = np.kron(out, paper.row("Y", int(a), int(b), int(c)))
        return out

    zeros = np.zeros(cfg.n, dtype=int)
    pe0 = 0.0
    for w3 in range(cfg.m3):
        pv = prob_vec(zeros, zeros, ens.x3_sequence(w3))
        for idx, y in enumerate(all_y):
            if dec(y, 0, 0, 0).w3 != w3:
                pe0 += pv[idx] / cfg.m3
    pe1 = 0.0
    combos = list(itertools.product(range(2), repeat=5))
    for w1, s1, w2, s2, w3 in combos:
        x1, x2, x3 = encode(ens, 1, w1, s1, w2, s2, w3,
                            np.random.default_rng(0))
        pv = prob_vec(x1, x2, x3)
        for idx, y in enumerate(all_y):
            r = dec(y, s1, s2, 1)
            if r.w3 != w3 or r.w1 != w1 or r.w2 != w2:
                pe1 += pv[idx] / len(combos)
    rep = run_trials(cfg, paper)
    in0 = rep.pe0_interval[0] <= pe0 <= rep.pe0_interval[1]
    in1 = rep.pe1_interval[0] <= pe1 <= rep.pe1_interval[1]
    report(7, in0 and in1,
           f"delta(all-zero)={max(deltas):.2e}; closed-form gap={gap:.2e}; "
           f"exhaustive pe0={pe0:.4f} in {rep.pe0_interval}, "
           f"pe1={pe1:.4f} in {rep.pe1_interval}")
    assert in0 and in1


def test_criterion_8_divergence_bound_trend(paper):
    """Ensemble-averaged exact delta over the Theorem-1 predictor: finite,
    within the (1+xi6) slack, approaching it as n grows."""
    xi6 = 0.1
    rho1, rho2 = 0.5, 0.5
    plan = PhasePlan.single_phase((1.0, 0.0), rho1=rho1, rho2=rho2)
    chibar = chi_square(paper, rho1, rho2, 0)
    ratios = []
    for n in (4, 6, 8):
        cfg = SimConfig(n=n, plan=plan, m1=2, m2=2, m3=2, k1=2, k2=2, trials=0)
        vals = []
        for r in range(16):
            ens = build_codebooks(
                cfg, np.random.default_rng(np.random.SeedSequence([85, n, r])),
                d=paper)
            vals.extend(exact_delta(ens, paper, w3, "nats")
                        for w3 in range(cfg.m3))
        omega = float(n) ** -0.25
        predictor = omega ** 2 / 2 * (rho1 + rho2) ** 2 * chibar  # phi1 = 1
        ratios.append(float(np.mean(vals)) / predictor)
    gaps = [abs(1.0 - r) for r in ratios]
    finite = all(math.isfinite(r) for r in ratios)
    within = all(r <= 1 + xi6 for r in ratios)
    trending = gaps[-1] < gaps[0] and all(gaps[i + 1] <= gaps[i] + 0.02
                                          for i in range(len(gaps) - 1))
    ok = finite and within and trending
    report(8, ok, "ratios delta/predictor at n=4,6,8: "
           + ", ".join(f"{r:.4f}" for r in ratios)
           + f" (all <= {1 + xi6}, gap to 1 shrinking)")
    assert ok
