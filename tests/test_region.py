import json
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covertmac as cm
import covertmac.region as region
from covertmac.infotheory import chi_square, divergence_profile, mutual_info_x3
from covertmac.region import (Constraints, InfeasibleError, OptBudget,
                              PhasePlan, max_r2, rate_tuple, theorem1_sizing,
                              trace_r2_R3, curve_r2_vs_k2, _feasible, _pareto)

import lp_oracle
from conftest import make_dmc

# Globally-optimal values certified by an independent LP solve over the
# (lambda, q) mode grid (denominator linearized via the optimal time-share
# allocation), frozen as oracles for the direct-search optimizer;
# lp_oracle.py reproduces them (test_lp_oracle_reproduces_frozen_optima).
ORACLE_FIX0_PLATEAU = 0.235901882351458     # r1>=0.1, k1<=0.8, k2<=1.0, x3=0
ORACLE_OPT_PLATEAU = 1.09525502794079       # r1>=0.1, k1<=0.8, k2<=1.0
ORACLE_CORNER = 0.807852807569945           # r1>=0.5, k1<=0.8, k2<=0.8

# R3 > 0 optima of the exact column-generated LP (region._lp_max_r2_r3),
# frozen before the direct search goes.  Each exceeds the direct search's
# value at the acceptance suite's STRONG budget (recorded in CHANGES.md)
# and lies within 1e-3 above the grid lower bound of lp_oracle.max_r2_r3.
ORACLE_R3_CORNER = 0.606688252198   # r1>=0.5, R3>=0.1, k1<=0.8, k2<=0.8
ORACLE_R3_LOW = 0.852515000651      # r1>=0.1, R3>=0.09, k1<=0.8, k2<=0.8
ORACLE_R3_KEY = 0.980675917053      # r1>=0.1, R3>=0.05, k1<=0.8, k2<=0.3

BUDGET = OptBudget(max_phases=3)

REF_PLAN = PhasePlan(p_t=(0.6, 0.4), p_x3_given_t=((0.7, 0.3), (0.2, 0.8)),
                     rho1=(0.9, 0.3), rho2=(0.4, 1.1), beta1=0.9, beta2=0.8)

# theorem-1 sizing goldens for REF_PLAN at n=1e6, omega=n^-1/4, xi=0.1 (nats):
SIZING_GOLDEN = dict(log_m1=10.8008279076855906, log_m2=7.4963179719316607,
                     log_m3=96405.5094504120282, log_k1=0.0,
                     log_k2=5.4242345523665572, bound=0.00358389207565937099)


def plans(max_tau=3):
    @st.composite
    def _plan(draw):
        tau = draw(st.integers(1, max_tau))
        def simplex(n):
            raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
            s = sum(raw)
            vals = [v / s for v in raw]
            vals[-1] = 1.0 - sum(vals[:-1])
            return tuple(vals)
        return PhasePlan(
            p_t=simplex(tau),
            p_x3_given_t=tuple(simplex(2) for _ in range(tau)),
            rho1=tuple(draw(st.lists(st.floats(0, 2), min_size=tau, max_size=tau))),
            rho2=tuple(draw(st.lists(st.floats(0.01, 2), min_size=tau, max_size=tau))),
            beta1=draw(st.floats(0.1, 1.0)), beta2=draw(st.floats(0.1, 1.0)))
    return _plan()


def test_rate_tuple_silent_user2(paper):
    plan = PhasePlan(p_t=(0.5, 0.5), p_x3_given_t=((1.0, 0.0), (0.0, 1.0)),
                     rho1=(1.0, 0.5), rho2=(0.0, 0.0))
    rt = rate_tuple(paper, plan)
    assert rt.r2 == 0.0 and rt.k2 == 0.0 and rt.r1 > 0


def test_rate_tuple_no_covert(paper):
    plan = PhasePlan.single_phase((0.5, 0.5), 0.0, 0.0)
    rt = rate_tuple(paper, plan)
    assert (rt.r1, rt.r2, rt.k1, rt.k2) == (0, 0, 0, 0)
    assert rt.R3 > 0


@settings(max_examples=40, deadline=None)
@given(plans(), st.sampled_from([1e-3, 1e3]))
def test_rate_tuple_scale_invariant(plan, c):
    d = cm.paper_channel()
    a = rate_tuple(d, plan)
    b = rate_tuple(d, plan.scaled(c))
    for x, y in zip((a.r1, a.r2, a.R3, a.k1, a.k2),
                    (b.r1, b.r2, b.R3, b.k1, b.k2)):
        assert math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=25, deadline=None)
@given(plans(max_tau=1))
def test_single_phase_matches_direct_formula(plan):
    """tau=1 cross-check against a from-scratch evaluation, no T-averaging."""
    d = cm.paper_channel()
    rt = rate_tuple(d, plan, "nats")
    prof = divergence_profile(d, "nats")
    q = np.array(plan.p_x3_given_t[0])
    rho1, rho2 = plan.rho1[0], plan.rho2[0]
    a = rho1 + rho2
    if a == 0:
        assert rt.r1 == rt.r2 == 0
        return
    chi = sum(q[x] * chi_square(d, rho1, rho2, x) for x in range(2) if q[x] > 0)
    dd = math.sqrt(a * a * chi)
    r1 = math.sqrt(2) * plan.beta1 * rho1 * float(q @ prof.d_y1) / dd
    r2 = math.sqrt(2) * plan.beta2 * rho2 * float(q @ prof.d_y2) / dd
    k2 = max(0.0, math.sqrt(2) * plan.beta2 * rho2 * float(q @ prof.d_zy2) / dd)
    assert math.isclose(rt.r1, r1, rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(rt.r2, r2, rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(rt.k2, k2, rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(rt.R3, mutual_info_x3(d, q, "nats"), rel_tol=1e-12,
                        abs_tol=1e-15)


def test_beta_linearity_exact(paper):
    base = PhasePlan.single_phase((0.5, 0.5), 0.7, 0.9, beta1=1.0, beta2=1.0)
    half = PhasePlan.single_phase((0.5, 0.5), 0.7, 0.9, beta1=0.5, beta2=0.25)
    a, b = rate_tuple(paper, base), rate_tuple(paper, half)
    assert math.isclose(b.r1, 0.5 * a.r1, rel_tol=1e-12)
    assert math.isclose(b.r2, 0.25 * a.r2, rel_tol=1e-12)
    assert math.isclose(b.k1, 0.5 * a.k1, rel_tol=1e-12)
    assert math.isclose(b.k2, 0.25 * a.k2, rel_tol=1e-12)


def test_rate_tuple_fields_are_python_floats(paper):
    f = np.float64
    plan = PhasePlan(p_t=(f(0.6), f(0.4)),
                     p_x3_given_t=((f(0.7), f(0.3)), (f(0.2), f(0.8))),
                     rho1=(f(0.9), f(0.3)), rho2=(f(0.4), f(1.1)),
                     beta1=f(0.9), beta2=f(0.8))
    rt = rate_tuple(paper, plan)
    for name in ("r1", "r2", "R3", "k1", "k2"):
        assert type(getattr(rt, name)) is float, name


def test_rate_tuple_capacity_achieving_R3(paper):
    _, pstar = cm.capacity_x3(paper, unit="bits")
    plan = PhasePlan.single_phase(tuple(pstar), 0.5, 0.5)
    rt = rate_tuple(paper, plan, "bits")
    assert abs(rt.R3 - 0.197534050675693) < 1e-3


def test_rate_tuple_perfectly_covert_flag():
    gy = cm.paper_channel().gamma_y.tolist()
    gz = [[1.0 / 6] * 6] * 8            # warden sees nothing
    d = make_dmc(gy, gz)
    rt = rate_tuple(d, PhasePlan.single_phase((0.5, 0.5), 1.0, 1.0))
    assert rt.perfectly_covert and math.isinf(rt.r1) and math.isinf(rt.r2)


# warden rows with an absolute-continuity violation at x3 = 0
GZ_AC = [[1.0, 0.0, 0.0], [0.3, 0.3, 0.4],
         [1.0, 0.0, 0.0], [0.3, 0.3, 0.4],
         [0.0, 0.0, 1.0], [0.3, 0.3, 0.4],
         [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]]


def test_rate_tuple_ac_violation_raises():
    gy = [[0.5, 0.3, 0.2]] * 8
    d = make_dmc(gy, GZ_AC)
    with pytest.raises(ValueError, match="absolute continuity"):
        rate_tuple(d, PhasePlan.single_phase((1.0, 0.0), 1.0, 1.0))
    # fine when the violating symbol carries no probability
    rt = rate_tuple(d, PhasePlan.single_phase((0.0, 1.0), 1.0, 1.0))
    assert math.isfinite(rt.r1)


def test_sizing_independent_of_phase_order_at_infinite_chi_square():
    """An infinite chi-square in one phase must not drop later phases'
    numerators: both listings of the same two phases size alike."""
    gy = ([[0.5, 0.3, 0.2]] * 2 + [[0.2, 0.3, 0.5]] * 2
          + [[0.3, 0.5, 0.2]] * 2 + [[0.3, 0.3, 0.4]] * 2)
    d = make_dmc(gy, GZ_AC)
    sizes = []
    for order in ((0, 1), (1, 0)):
        plan = PhasePlan(p_t=(0.5, 0.5),
                         p_x3_given_t=tuple((1.0 - x, float(x)) for x in order),
                         rho1=(1.0, 1.0), rho2=(1.0, 1.0))
        sz = theorem1_sizing(d, plan, 10**6, 1e-2, (0.1,) * 6, "nats")
        assert sz.divergence_bound == math.inf
        sizes.append((sz.log_m1, sz.log_m2))
    assert sizes[0] == sizes[1]
    assert abs(sizes[0][0] - 0.9194861227787833) < 1e-12


def test_plan_validation():
    with pytest.raises(ValueError):
        PhasePlan(p_t=(0.5, 0.4), p_x3_given_t=((1, 0), (1, 0)),
                  rho1=(1, 1), rho2=(0, 0)).validate()
    with pytest.raises(ValueError):
        PhasePlan.single_phase((0.5, 0.5), -1.0, 0.0).validate()
    with pytest.raises(ValueError):
        PhasePlan.single_phase((0.5, 0.5), 1.0, 0.0, beta1=1.5).validate()
    seven = PhasePlan(p_t=(1 / 7,) * 7, p_x3_given_t=((0.5, 0.5),) * 7,
                      rho1=(1,) * 7, rho2=(0,) * 7)
    with pytest.raises(ValueError):
        seven.validate()


def test_plan_json_roundtrip():
    doc = json.loads(REF_PLAN.to_json())
    again = PhasePlan.from_dict(doc)
    assert again == REF_PLAN


def test_sizing_goldens(paper):
    sz = theorem1_sizing(paper, REF_PLAN, 10**6, (10**6) ** -0.25, (0.1,) * 6,
                         unit="nats")
    assert not sz.swapped and math.isclose(sz.phi1, 0.81, rel_tol=1e-12)
    assert math.isclose(sz.log_m1, SIZING_GOLDEN["log_m1"], rel_tol=1e-12)
    assert math.isclose(sz.log_m2, SIZING_GOLDEN["log_m2"], rel_tol=1e-12)
    assert math.isclose(sz.log_m3, SIZING_GOLDEN["log_m3"], rel_tol=1e-12)
    assert sz.log_k1 == SIZING_GOLDEN["log_k1"]
    assert math.isclose(sz.log_k2, SIZING_GOLDEN["log_k2"], rel_tol=1e-12)
    assert math.isclose(sz.divergence_bound, SIZING_GOLDEN["bound"],
                        rel_tol=1e-12)


def test_sizing_scaling_laws(paper):
    om = 1e-2
    a = theorem1_sizing(paper, REF_PLAN, 10**6, om, (0.1,) * 6, "nats")
    b = theorem1_sizing(paper, REF_PLAN, 2 * 10**6, om, (0.1,) * 6, "nats")
    assert math.isclose(b.log_m1 / a.log_m1, math.sqrt(2), rel_tol=1e-12)
    assert math.isclose(b.log_m3 / a.log_m3, 2.0, rel_tol=1e-12)


def test_sizing_vanishing_slack(paper):
    xi = (1 - 1e-9,) * 6
    sz = theorem1_sizing(paper, REF_PLAN, 10**6, 1e-2, xi, "nats")
    ref = theorem1_sizing(paper, REF_PLAN, 10**6, 1e-2, (0.1,) * 6, "nats")
    for name in ("log_m1", "log_m2", "log_m3", "log_k2"):
        assert getattr(sz, name) < 1e-8 * getattr(ref, name) / 0.9


def test_sizing_rate_identity(paper):
    """log M1 / sqrt(n * bound) equals r1 * (1-xi1)/sqrt(1+xi6) exactly."""
    xi = (0.07, 0.11, 0.13, 0.17, 0.19, 0.23)
    n = 10**8
    sz = theorem1_sizing(paper, REF_PLAN, n, float(n) ** -0.25, xi, "nats")
    rt = rate_tuple(paper, REF_PLAN, "nats")
    lhs = sz.log_m1 / math.sqrt(n * sz.divergence_bound)
    rhs = rt.r1 * (1 - xi[0]) / math.sqrt(1 + xi[5])
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_sizing_role_swap_recorded(paper):
    plan = PhasePlan.single_phase((0.5, 0.5), 1.0, 1.0, beta1=0.4, beta2=0.9)
    sz = theorem1_sizing(paper, plan, 10**6, 1e-2, (0.1,) * 6)
    assert sz.swapped and math.isclose(sz.phi1, 0.81, rel_tol=1e-12)


# ---- optimizer ----------------------------------------------------------


def test_max_r2_reaches_certified_optimum_fix0(paper):
    plan, rt = max_r2(paper, Constraints(r1_min=0.1, k1_max=0.8, k2_max=1.0),
                      BUDGET, x3_mode=("fix", 0))
    assert rt.r2 >= ORACLE_FIX0_PLATEAU * 0.995
    assert rt.r2 <= ORACLE_FIX0_PLATEAU * (1 + 1e-6)
    assert rt.r1 >= 0.1 - 1e-9 and rt.k2 <= 1.0 + 1e-9
    for q in plan.p_x3_given_t:                  # fix mode pins every phase
        assert q[0] == 1.0


def test_max_r2_reaches_certified_optimum_optimized(paper):
    _, rt = max_r2(paper, Constraints(r1_min=0.1, k1_max=0.8, k2_max=1.0),
                   BUDGET)
    assert rt.r2 >= ORACLE_OPT_PLATEAU * 0.995
    assert rt.r2 <= ORACLE_OPT_PLATEAU * (1 + 1e-6)


def test_max_r2_reaches_certified_optimum_corner(paper):
    _, rt = max_r2(paper, Constraints(r1_min=0.5, k1_max=0.8, k2_max=0.8),
                   BUDGET)
    assert rt.r2 >= ORACLE_CORNER * 0.995
    assert rt.r2 <= ORACLE_CORNER * (1 + 1e-6)


def test_lp_oracle_reproduces_frozen_optima(paper):
    for want, (r1, k1, k2, fix_x3) in (
            (ORACLE_FIX0_PLATEAU, (0.1, 0.8, 1.0, 0)),
            (ORACLE_OPT_PLATEAU, (0.1, 0.8, 1.0, None)),
            (ORACLE_CORNER, (0.5, 0.8, 0.8, None))):
        got = lp_oracle.max_r2(paper, r1, k1, k2, fix_x3=fix_x3)
        assert math.isclose(got, want, rel_tol=1e-6)


def test_max_r2_key_limited_fix0(paper):
    prof = divergence_profile(paper, "bits")
    limit = 0.05 * prof.d_y2[0] / prof.d_zy2[0]
    _, rt = max_r2(paper, Constraints(r1_min=0.1, k1_max=0.8, k2_max=0.05),
                   BUDGET, x3_mode=("fix", 0))
    assert rt.k2 <= 0.05 + 1e-9
    assert rt.r2 >= limit * 0.99 and rt.r2 <= limit * (1 + 1e-6)


def test_max_r2_zero_when_user2_invisible():
    base = cm.paper_channel()
    gy = base.gamma_y.copy()
    for x3 in range(2):                 # receiver rows for (0,1,x3) = (0,0,x3)
        gy[2 + x3] = gy[x3]
    d = make_dmc(gy, base.gamma_z)
    small = OptBudget(max_phases=2)
    _, rt = max_r2(d, Constraints(r1_min=0.0), small)
    assert rt.r2 <= 1e-9


def test_max_r2_infeasible(paper):
    small = OptBudget(max_phases=1)
    with pytest.raises(InfeasibleError):
        max_r2(paper, Constraints(r1_min=1e6), small)


def test_max_r2_deterministic_and_worker_invariant(paper):
    b1 = OptBudget(max_phases=2)
    cons = Constraints(r1_min=0.1, k1_max=0.8, k2_max=0.3)
    p1, r1 = max_r2(paper, cons, b1)
    p2, r2 = max_r2(paper, cons, b1)
    p3, r3 = max_r2(paper, cons, b1)
    assert p1.to_json() == p2.to_json() == p3.to_json()
    assert r1.r2 == r2.r2 == r3.r2


def test_max_r2_monotone_in_budget_and_keys(paper):
    """Looser constraints never reduce the optimum."""
    small = OptBudget(max_phases=2)
    _, a = max_r2(paper, Constraints(r1_min=0.1, k2_max=0.1), small,
                  x3_mode=("fix", 0))
    _, b = max_r2(paper, Constraints(r1_min=0.1, k2_max=0.3), small,
                  x3_mode=("fix", 0))
    assert b.r2 >= a.r2 - 1e-9


def random_problem(seed):
    """A seeded random positive channel with x3_size 2-3 and constraints that
    a lam = 1 mode at x3 = ``best_x`` can meet: (d, constraints, best_x)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    d = make_dmc(rng.dirichlet(np.ones(int(rng.integers(3, 6))), size=4 * k),
                 rng.dirichlet(np.ones(int(rng.integers(3, 6))), size=4 * k))
    dv = lp_oracle.divergences(d)
    r1_solo = math.sqrt(2) * dv["y1"] / np.sqrt(lp_oracle.chi2_coefficients(d)[0])
    r1_min = float(rng.uniform(0.1, 0.5) * r1_solo.max())
    key_ratio = max(0.0, float(((dv["z1"] - dv["y1"]) / dv["y1"]).max()))
    k1_max = float(r1_min * key_ratio * rng.uniform(1.0, 2.0)
                   + rng.uniform(0.0, 0.2))
    cons = Constraints(r1_min=r1_min, k1_max=k1_max,
                       k2_max=float(rng.uniform(0.05, 1.0)))
    return d, cons, int(np.argmax(r1_solo))


@pytest.mark.parametrize("seed", [5, 8, 9])
def test_max_r2_lp_between_oracle_grids(seed):
    """On R3 = 0 problems max_r2 solves the LP: an r2 between the
    2001-point oracle grid and (up to 1e-6) the 8001-point one, caps met at
    1e-9, at most max_phases phases, one-hot rows in fix mode, the same
    bytes again."""
    d, cons, best_x = random_problem(seed)
    budget = OptBudget()
    for mode, fix_x3 in (("optimize", None), (("fix", best_x), best_x)):
        plan, rt = max_r2(d, cons, budget, x3_mode=mode)
        lo, hi = (lp_oracle.max_r2(d, cons.r1_min, cons.k1_max, cons.k2_max,
                                   fix_x3=fix_x3, n_lambda=n)
                  for n in (2001, 8001))
        assert lo * (1 - 1e-9) <= rt.r2 <= hi * (1 + 1e-6)
        assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)
        assert plan.tau <= budget.max_phases
        if fix_x3 is not None:
            for q in plan.p_x3_given_t:
                assert q[fix_x3] == 1.0 and sum(q) == 1.0
        again, _ = max_r2(d, cons, budget, x3_mode=mode)
        assert again.to_json() == plan.to_json()


@pytest.fixture
def lp_bounds(monkeypatch):
    """List that gains the certified upper bound of every exact R3 > 0
    solve."""
    bounds = []
    inner = region._lp_max_r2_r3

    def recorded(*args):
        out = inner(*args)
        if out is not None:
            bounds.append(out[2])
        return out

    monkeypatch.setattr(region, "_lp_max_r2_r3", recorded)
    return bounds


@pytest.mark.parametrize("want, cons", [
    (ORACLE_R3_CORNER, Constraints(r1_min=0.5, R3_min=0.1, k1_max=0.8,
                                   k2_max=0.8)),
    (ORACLE_R3_LOW, Constraints(r1_min=0.1, R3_min=0.09, k1_max=0.8,
                                k2_max=0.8)),
    (ORACLE_R3_KEY, Constraints(r1_min=0.1, R3_min=0.05, k1_max=0.8,
                                k2_max=0.3))], ids=["corner", "low", "key"])
def test_max_r2_r3_reaches_frozen_optimum(paper, want, cons, lp_bounds):
    """R3 > 0 is solved exactly: the frozen optimum, a certificate gap
    within 1e-6, and an independent grid lower bound at most r2 and within
    1e-3 of it."""
    plan, rt = max_r2(paper, cons, BUDGET)
    assert math.isclose(rt.r2, want, rel_tol=1e-6)
    assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)
    assert plan.tau <= BUDGET.max_phases
    assert rt.r2 * (1 - 1e-9) <= lp_bounds[0] <= rt.r2 * (1 + 1e-6)
    lower = lp_oracle.max_r2_r3(paper, cons.r1_min, cons.R3_min, cons.k1_max,
                                cons.k2_max)
    assert rt.r2 * (1 - 1e-3) <= lower <= rt.r2 * (1 + 1e-9)


@pytest.mark.parametrize("seed, frac", [(1, 0.3), (2, 0.55), (6, 0.8)])
def test_max_r2_r3_exact_on_random_channels(seed, frac, lp_bounds):
    """On random channels (x3_size 2 and 3) with R3_min a fraction of the
    capacity, max_r2 takes the exact path: caps met at 1e-9, at most
    max_phases phases, r2 at least a grid oracle's lower bound, a
    certificate gap within 1e-6 at x3_size 2 (the pricing is exhaustive
    there), and the same bytes again."""
    d, cons, _ = random_problem(seed)
    cons = replace(cons, R3_min=frac * cm.capacity_x3(d)[0])
    budget = OptBudget()
    plan, rt = max_r2(d, cons, budget)
    assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)
    assert plan.tau <= budget.max_phases
    lower = lp_oracle.max_r2_r3(d, cons.r1_min, cons.R3_min, cons.k1_max,
                                cons.k2_max, n_lambda=11, q_steps=10,
                                u_grid=2.0 ** (np.arange(-12, 13) / 4))
    assert rt.r2 >= lower * (1 - 1e-9)
    if d.x3_size == 2:
        assert abs(lp_bounds[0] - rt.r2) <= 1e-6 * rt.r2
    assert max_r2(d, cons, budget)[0].to_json() == plan.to_json()


def test_trace_near_capacity_exact(paper, lp_bounds):
    """The boundary up to capacity comes from the exact path; at capacity
    only the capacity-achieving law is priced, and the bound still holds
    to 1e-6."""
    cap = cm.capacity_x3(paper)[0]
    pts = trace_r2_R3(paper, 0.1, 0.8, 0.8, [0.5 * cap, 0.99 * cap, cap],
                      OptBudget(max_phases=3))
    assert [r3 for _, r3 in pts] == [0.5 * cap, 0.99 * cap, cap]
    assert pts[0][0] > pts[1][0] > pts[2][0] > 0
    assert abs(lp_bounds[2] - pts[2][0]) <= 1e-6 * pts[2][0]


def test_max_r2_fix_mode_with_r3_infeasible_at_once(paper):
    """One-hot x3 rows carry no R3, so fix mode with R3_min > 0 is
    infeasible before any search."""
    with pytest.raises(InfeasibleError):
        max_r2(paper, Constraints(R3_min=0.05), BUDGET, x3_mode=("fix", 0))


def test_max_r2_key_limited_fix0_single_phase(paper):
    """The LP's modes at one x3 merge into one phase, so the key-limited
    fix0 optimum fits a single phase."""
    prof = divergence_profile(paper, "bits")
    limit = 0.05 * prof.d_y2[0] / prof.d_zy2[0]
    cons = Constraints(r1_min=0.1, k1_max=0.8, k2_max=0.05)
    plan, rt = max_r2(paper, cons, replace(BUDGET, max_phases=1),
                      x3_mode=("fix", 0))
    assert plan.tau == 1 and plan.p_x3_given_t == ((1.0, 0.0),)
    assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)
    assert limit * (1 - 1e-9) <= rt.r2 <= limit * (1 + 1e-9)


def test_max_r2_falls_back_when_lp_needs_more_phases():
    """The LP optimum of this problem uses two x3 symbols; with one phase
    allowed, the single-phase search returns a feasible one-phase plan."""
    d, cons, _ = random_problem(1)
    two, best = max_r2(d, cons, OptBudget())
    assert len({q.index(1.0) for q in two.p_x3_given_t}) == 2
    plan, rt = max_r2(d, cons, OptBudget(max_phases=1))
    assert plan.tau == 1
    assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)
    assert 0 < rt.r2 <= best.r2 + 1e-9


# Single-phase r2 of the multi-start Nelder-Mead search this replaced, at
# restarts=8, max_iter=800, seed=0, max_phases=1; every exact plan here needs
# two phases.  At (5, 0) and (15, 0.3) that search returned r2 = 0, so the
# values there are the single-phase search's own, above the 0.20232 and
# 8.1768 of a 150-step (q, lam) grid of single phases.
@pytest.mark.parametrize("seed, frac, want", [
    (0, 0.0, 0.811628596327979), (0, 0.3, 0.7815110949304512),
    (1, 0.0, 3.8356621921135647), (1, 0.3, 1.1251855128979),
    (36, 0.0, 0.8120173346242658), (36, 0.3, 0.7970386579697719),
    (5, 0.0, 0.2024689138), (15, 0.3, 8.2505133905)])
def test_one_phase_search_reaches_direct_search(seed, frac, want):
    """At max_phases = 1 the single-phase search meets the caps at 1e-9
    and reaches the removed direct search's r2 (x3_size 2 and 3)."""
    d, cons, _ = random_problem(seed)
    cons = replace(cons, R3_min=frac * cm.capacity_x3(d)[0])
    plan, rt = max_r2(d, cons, OptBudget(max_phases=1))
    assert plan.tau == 1
    assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)
    assert rt.r2 >= want * (1 - 1e-6)


def test_max_r2_falls_back_when_lp_unbounded():
    """A warden that cannot see the covert users leaves r2 unbounded in the
    LP; the single-phase search returns a perfectly covert plan with
    r1 = r2 = inf."""
    gz = [[1.0 / 6] * 6] * 8
    d = make_dmc(cm.paper_channel().gamma_y, gz)
    cons = Constraints(r1_min=0.1)
    plan, rt = max_r2(d, cons, OptBudget(max_phases=1))
    assert plan.tau == 1 and rt.perfectly_covert
    assert math.isinf(rt.r1) and math.isinf(rt.r2)
    assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)


def test_max_r2_unbounded_at_receiver_support_violation():
    """Zeroing an entry of the receiver's all-off row at x3 = 0 makes
    D_Y1 = D_Y2 = inf there: no LP, and the single-phase search returns
    r2 = inf at once, without numpy warnings."""
    gy = cm.paper_channel().gamma_y.copy()
    gy[0, np.argmin(gy[0])] = 0.0
    gy[0] /= gy[0].sum()
    d = make_dmc(gy, cm.paper_channel().gamma_z)
    prof = divergence_profile(d)
    assert math.isinf(prof.d_y1[0]) and math.isinf(prof.d_y2[0])
    cons = Constraints(r1_min=0.1, k1_max=0.8, k2_max=0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = time.perf_counter()
        plan, rt = max_r2(d, cons)
        assert time.perf_counter() - start < 1.0
    assert plan.tau == 1 and math.isinf(rt.r2)
    assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)


def test_max_r2_rejects_cap_below_exact_phase_count():
    """The exact plan of this problem needs three phases; a cap of two is
    neither 1 (the single-phase search) nor enough, so it raises."""
    d, cons, _ = random_problem(5)
    cons = replace(cons, R3_min=0.3 * cm.capacity_x3(d)[0])
    assert max_r2(d, cons)[0].tau == 3
    with pytest.raises(ValueError, match="needs 3 phases"):
        max_r2(d, cons, OptBudget(max_phases=2))


def test_pareto_filter():
    pts = [(0.5, 0.0), (0.52, 0.1), (0.3, 0.2), (0.3, 0.3), (0.1, 0.4)]
    out = _pareto(pts)
    r2s = [p[0] for p in out]
    assert r2s == sorted(r2s, reverse=True)
    for i, (r2a, r3a) in enumerate(out):
        for r2b, r3b in out[i + 1:]:
            assert not (r2b >= r2a and r3b >= r3a)
    assert (0.3, 0.2) not in out        # dominated by (0.3, 0.3)


def test_trace_grid_validation(paper):
    with pytest.raises(ValueError):
        trace_r2_R3(paper, 0.1, 0.8, 0.8, [0.5],
                    OptBudget(max_phases=1))


def test_trace_small_grid_pareto(paper):
    small = OptBudget(max_phases=2)
    pts = trace_r2_R3(paper, 0.1, 0.8, 0.8, [0.0, 0.09, 0.18], small)
    assert len(pts) >= 2
    r3s = [p[1] for p in pts]
    assert r3s == sorted(r3s)
    r2s = [p[0] for p in pts]
    assert r2s == sorted(r2s, reverse=True)


def test_curve_fix_mode_and_shape(paper):
    small = OptBudget(max_phases=2)
    pts = curve_r2_vs_k2(paper, 0.1, 0.8, [0.2, 0.6], ("fix", 0), small)
    assert [k for k, _ in pts] == [0.2, 0.6]
    assert pts[1][1] >= pts[0][1] - 1e-9
