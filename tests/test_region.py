import functools
import itertools
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
import covertmac.cli as cli
import covertmac.infotheory as infotheory
import covertmac.region as region
from covertmac.infotheory import chi_square, divergence_profile, mutual_info_x3
from covertmac.region import (Constraints, InfeasibleError, PhasePlan,
                              max_r2, rate_tuple, theorem1_sizing,
                              trace_r2_R3, curve_r2_vs_k2, _feasible, _pareto)

import lp_oracle
import plan_oracle
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

PHASES = 3                          # max_phases of the solver tests

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
    """A plan checks itself when it is made."""
    with pytest.raises(ValueError, match="^p_t must be a distribution"):
        PhasePlan(p_t=(0.5, 0.4), p_x3_given_t=((1, 0), (1, 0)),
                  rho1=(1, 1), rho2=(0, 0))
    with pytest.raises(ValueError, match="^rho prefactors"):
        PhasePlan.single_phase((0.5, 0.5), -1.0, 0.0)
    with pytest.raises(ValueError, match="^beta1, beta2 must lie"):
        PhasePlan.single_phase((0.5, 0.5), 1.0, 0.0, beta1=1.5)
    with pytest.raises(ValueError, match="^tau must be in"):
        PhasePlan(p_t=(1 / 7,) * 7, p_x3_given_t=((0.5, 0.5),) * 7,
                  rho1=(1,) * 7, rho2=(0,) * 7)


@pytest.mark.parametrize("field, value", [
    ("p_t", (math.nan,)), ("p_x3_given_t", ((math.nan, 1.0),)),
    ("p_x3_given_t", ((-math.inf, 1.0),)), ("rho1", (math.inf,)),
    ("rho2", (math.nan,))])
def test_plan_rejects_non_finite_entries(field, value):
    """A NaN or infinite entry fails when the plan is made, by replace or
    from a document, with a message naming its field (NaN rates or R3 = 0
    otherwise)."""
    plan = PhasePlan.single_phase((0.5, 0.5), 1.0, 1.0)
    doc = {**plan.to_dict(), field: [list(v) if isinstance(v, tuple) else v
                                     for v in value]}
    for call in (lambda: replace(plan, **{field: value}),
                 lambda: PhasePlan.from_dict(doc)):
        with pytest.raises(ValueError, match=f"^{field} has a non-finite"):
            call()


def test_plan_over_another_alphabet_is_refused(paper):
    """A plan over three x3 symbols is a valid plan, but not on the paper
    channel's two: rate_tuple and theorem1_sizing refuse it."""
    plan = PhasePlan.single_phase((0.2, 0.3, 0.5), 1.0, 1.0)
    for call in (lambda: rate_tuple(paper, plan),
                 lambda: theorem1_sizing(paper, plan, 10**6, 1e-2, (0.1,) * 6)):
        with pytest.raises(ValueError,
                           match="^p_x3_given_t rows must have length 2$"):
            call()


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
                      PHASES, fix_x3=0)
    assert rt.r2 >= ORACLE_FIX0_PLATEAU * 0.995
    assert rt.r2 <= ORACLE_FIX0_PLATEAU * (1 + 1e-6)
    assert rt.r1 >= 0.1 - 1e-9 and rt.k2 <= 1.0 + 1e-9
    for q in plan.p_x3_given_t:                  # fix mode pins every phase
        assert q[0] == 1.0


def test_max_r2_reaches_certified_optimum_optimized(paper):
    _, rt = max_r2(paper, Constraints(r1_min=0.1, k1_max=0.8, k2_max=1.0),
                   PHASES)
    assert rt.r2 >= ORACLE_OPT_PLATEAU * 0.995
    assert rt.r2 <= ORACLE_OPT_PLATEAU * (1 + 1e-6)


def test_max_r2_reaches_certified_optimum_corner(paper):
    _, rt = max_r2(paper, Constraints(r1_min=0.5, k1_max=0.8, k2_max=0.8),
                   PHASES)
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
                   PHASES, fix_x3=0)
    assert rt.k2 <= 0.05 + 1e-9
    assert rt.r2 >= limit * 0.99 and rt.r2 <= limit * (1 + 1e-6)


def _user2_invisible_channel():
    """The paper channel with the receiver rows of (0,1,x3) set to those of
    (0,0,x3): the receiver cannot tell user 2 apart from silence."""
    base = cm.paper_channel()
    gy = base.gamma_y.copy()
    for x3 in range(2):
        gy[2 + x3] = gy[x3]
    return make_dmc(gy, base.gamma_z)


def test_max_r2_zero_when_user2_invisible():
    _, rt = max_r2(_user2_invisible_channel(), Constraints(r1_min=0.0),
                   max_phases=2)
    assert rt.r2 <= 1e-9


def test_max_r2_r3_zero_returns_a_plan():
    """Where every plan has r2 = 0 at R3_min > 0, the phase LP comes back
    to zero time and keeps phase 1's plan: r2 = 0 with every cap met."""
    d = _user2_invisible_channel()
    cons = Constraints(r1_min=0.2, R3_min=0.5 * cm.capacity_x3(d)[0],
                       k1_max=0.8)
    _, rt = max_r2(d, cons)
    assert rt.r2 == 0.0
    assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)


def test_max_r2_infeasible(paper):
    with pytest.raises(InfeasibleError):
        max_r2(paper, Constraints(r1_min=1e6), max_phases=1)


def test_max_r2_deterministic_and_worker_invariant(paper):
    cons = Constraints(r1_min=0.1, k1_max=0.8, k2_max=0.3)
    p1, r1 = max_r2(paper, cons, max_phases=2)
    p2, r2 = max_r2(paper, cons, max_phases=2)
    p3, r3 = max_r2(paper, cons, max_phases=2)
    assert p1.to_json() == p2.to_json() == p3.to_json()
    assert r1.r2 == r2.r2 == r3.r2


def test_max_r2_monotone_in_budget_and_keys(paper):
    """Looser constraints never reduce the optimum."""
    _, a = max_r2(paper, Constraints(r1_min=0.1, k2_max=0.1), max_phases=2,
                  fix_x3=0)
    _, b = max_r2(paper, Constraints(r1_min=0.1, k2_max=0.3), max_phases=2,
                  fix_x3=0)
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
    for fix_x3 in (None, best_x):
        plan, rt = max_r2(d, cons, fix_x3=fix_x3)
        lo, hi = (lp_oracle.max_r2(d, cons.r1_min, cons.k1_max, cons.k2_max,
                                   fix_x3=fix_x3, n_lambda=n)
                  for n in (2001, 8001))
        assert lo * (1 - 1e-9) <= rt.r2 <= hi * (1 + 1e-6)
        assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)
        assert plan.tau <= region.MAX_PHASES
        if fix_x3 is not None:
            for q in plan.p_x3_given_t:
                assert q[fix_x3] == 1.0 and sum(q) == 1.0
        again, _ = max_r2(d, cons, fix_x3=fix_x3)
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
    plan, rt = max_r2(paper, cons, PHASES)
    assert math.isclose(rt.r2, want, rel_tol=1e-6)
    assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)
    assert plan.tau <= PHASES
    assert rt.r2 * (1 - 1e-9) <= lp_bounds[0] <= rt.r2 * (1 + 1e-6)
    lower = lp_oracle.max_r2_r3(paper, cons.r1_min, cons.R3_min, cons.k1_max,
                                cons.k2_max)
    assert rt.r2 * (1 - 1e-3) <= lower <= rt.r2 * (1 + 1e-9)


@pytest.mark.parametrize("seed, frac", [(1, 0.3), (2, 0.55), (6, 0.8)])
def test_max_r2_r3_exact_on_random_channels(seed, frac, lp_bounds):
    """On random channels (x3_size 2 and 3) with R3_min a fraction of the
    capacity, max_r2 takes the exact path: caps met at 1e-9, at most
    max_phases phases, r2 at least a grid oracle's lower bound, a
    certificate gap within 1e-6 at x3_size 2 (measured on these seeds: the
    law search is local there too, and random_problem(47) at 0.8 x
    capacity ends with r2 above its bound), and the same bytes again."""
    d, cons, _ = random_problem(seed)
    cons = replace(cons, R3_min=frac * cm.capacity_x3(d)[0])
    plan, rt = max_r2(d, cons)
    assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)
    assert plan.tau <= region.MAX_PHASES
    lower = lp_oracle.max_r2_r3(d, cons.r1_min, cons.R3_min, cons.k1_max,
                                cons.k2_max, n_lambda=11, q_steps=10,
                                u_grid=2.0 ** (np.arange(-12, 13) / 4))
    assert rt.r2 >= lower * (1 - 1e-9)
    if d.x3_size == 2:
        assert abs(lp_bounds[0] - rt.r2) <= 1e-6 * rt.r2
    assert max_r2(d, cons)[0].to_json() == plan.to_json()


@pytest.mark.parametrize("seed, want", [
    (0, "(PhasePlan(p_t=(0.41187113710095796, 0.5881288628990421), "
        "p_x3_given_t=((0.0, 1.0, 0.0), (0.0, 0.1561448007342801, "
        "0.8438551992657201)), rho1=(0.0, 0.6759358012636104), "
        "rho2=(2.141200541505746, 0.0), beta1=0.9999999999930363, "
        "beta2=1.0), RateTuple(r1=1.2196202760562547, r2=1.8362474950340237, "
        "R3=0.061976906274739896, k1=0.0, k2=0.0, unit='bits', "
        "perfectly_covert=False))"),
    (25, "(PhasePlan(p_t=(1.0,), "
         "p_x3_given_t=((0.0, 0.9497685664431761, 0.050231433556824086),), "
         "rho1=(0.39590036689336033,), rho2=(0.9321714294549348,), "
         "beta1=0.9999999999994921, beta2=1.0), "
         "RateTuple(r1=2.9882048995946704, r2=6.988305886614629, "
         "R3=0.13423244862257683, k1=0.0, k2=0.0, unit='bits', "
         "perfectly_covert=False))")], ids=["0", "25"])
def test_max_r2_r3_x3_size_3_pinned(seed, want):
    """The R3 > 0 path at x3_size 3 (law search from a simplex lattice),
    byte for byte: random_problem(seed) at R3_min = 0.3 x capacity."""
    d, cons, _ = random_problem(seed)
    assert d.x3_size == 3
    cons = replace(cons, R3_min=0.3 * cm.capacity_x3(d)[0])
    assert repr(max_r2(d, cons)) == want


def test_trace_near_capacity_exact(paper, lp_bounds):
    """The boundary up to capacity comes from the exact path; at capacity
    only the capacity-achieving law is priced, and the bound still holds
    to 1e-6."""
    cap = cm.capacity_x3(paper)[0]
    pts = trace_r2_R3(paper, 0.1, 0.8, 0.8, [0.5 * cap, 0.99 * cap, cap],
                      max_phases=3)
    assert [r3 for _, r3 in pts] == [0.5 * cap, 0.99 * cap, cap]
    assert pts[0][0] > pts[1][0] > pts[2][0] > 0
    assert abs(lp_bounds[2] - pts[2][0]) <= 1e-6 * pts[2][0]


@pytest.mark.parametrize("seed, frac", [(25, 0.3), (8, 0.8), (26, 0.8),
                                        (23, 0.3)])
def test_max_r2_r3_certificate_gates(seed, frac, lp_bounds):
    """On solves where pricing from a lattice alone misses columns
    (x3_size 3, and 23 at x3_size 2) the LP's bound is at least its r2,
    and no single phase beats the multi-phase plan, both to 1e-12
    relative."""
    d, cons, _ = random_problem(seed)
    cons = replace(cons, R3_min=frac * cm.capacity_x3(d)[0])
    _, rt = max_r2(d, cons)
    assert lp_bounds[0] >= rt.r2 * (1 - 1e-12)
    _, one = max_r2(d, cons, max_phases=1)
    assert one.r2 <= rt.r2 * (1 + 1e-12)


@pytest.mark.parametrize("seed, frac", [(12, 0.8), (0, 0.95), (15, 0.95),
                                        (12, 0.95)])
def test_max_r2_r3_after_phase_one(seed, frac, lp_bounds, monkeypatch):
    """Where no seed column set with time in it meets the constraints
    (x3_size 3), the master sits at p = 0, phase 1 finds a feasible column
    set and the generation goes on from it: caps met at 1e-9, bound >= r2,
    and no single phase beats the plan, both to 1e-12 relative."""
    phase1 = []
    inner = region._r3_solve

    def recorded(*args):
        phase1.append(args[-1])
        return inner(*args)

    monkeypatch.setattr(region, "_r3_solve", recorded)
    d, cons, _ = random_problem(seed)
    cons = replace(cons, R3_min=frac * cm.capacity_x3(d)[0])
    _, rt = max_r2(d, cons)
    assert d.x3_size == 3 and False in phase1[phase1.index(True):]
    assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)
    assert lp_bounds[0] >= rt.r2 * (1 - 1e-12)
    try:
        one = max_r2(d, cons, max_phases=1)[1].r2
    except InfeasibleError:
        one = -math.inf
    assert one <= rt.r2 * (1 + 1e-12)


@pytest.mark.parametrize("cons, key", [
    (Constraints(k1_max=0.0, k2_max=0.8), "k1"),
    (Constraints(R3_min=0.1, k1_max=0.0, k2_max=0.8), "k1"),
    (Constraints(r1_min=0.5, R3_min=0.1, k1_max=0.8, k2_max=0.0), "k2")],
    ids=["k1-R3-0", "k1-R3-0.1", "k2-R3-0.1"])
def test_max_r2_zero_key_caps(paper, cons, key):
    """A zero key cap has its own row in the mode LP (R3 = 0, r1_min = 0)
    and the phase LP, and its own branch of the single-phase search: at
    six phases and at one, every cap is met at 1e-9 and the capped key
    rate is exactly 0, and one phase never beats six."""
    r2 = {}
    for max_phases in (6, 1):
        _, rt = max_r2(paper, cons, max_phases)
        assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)
        assert getattr(rt, key) == 0.0
        r2[max_phases] = rt.r2
    assert r2[1] <= r2[6]


# r2 where each zero-key-cap case is in place.  Without it r2 drops: to
# 0.79805 (_lp_rows' k1 row), 0.68207 (_r3_rows' k1 row), 0.64863 (_r3_rows'
# k2 row), or, without _one_phase_r2's k1 bound, to InfeasibleError.
@pytest.mark.parametrize("seed, caps, frac, max_phases, want", [
    (32, {"r1_min": 0.0, "k1_max": 0.0}, 0.0, PHASES, 0.8180156418687469),
    (39, {"r1_min": 0.0, "k1_max": 0.0}, 0.5, PHASES, 1.2756684744860793),
    (0, {"k2_max": 0.0}, 0.5, PHASES, 1.5167062465909742),
    (32, {"r1_min": 0.0, "k1_max": 0.0}, 0.0, 1, 0.7980534035432193)],
    ids=["lp-rows-k1", "r3-rows-k1", "r3-rows-k2", "one-phase-k1"])
def test_max_r2_zero_key_cap_cases_hold_r2(seed, caps, frac, max_phases,
                                           want):
    """Each zero-key-cap case of the solvers keeps r2 at least the recorded
    value to 1e-9 relative, with every cap met at 1e-9: a zero cap is met
    up to rounding (k1 = 1.1e-17 on random_problem(32)), not exactly."""
    d, cons, _ = random_problem(seed)
    cons = replace(cons, R3_min=frac * cm.capacity_x3(d)[0], **caps)
    _, rt = max_r2(d, cons, max_phases)
    assert rt.r2 >= want * (1 - 1e-9)
    assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)


# (r2, bound) of R3 > 0 solves as computed before pricing started from
# lattice peaks and added interpolated columns.  The stop rule resolves an
# R3 > 0 r2 to about 1e-10 relative, so a change of the column sequence may
# move its last digits but not below that band.
R3_BAND = {
    ("corner", 0): (0.6066882521894831, 0.6066882522820916),
    ("random", 0): (1.8362474950329735, 1.8362474951177277),
    ("random", 25): (6.9883058866081065, 6.988305886812669),
    ("grid", 4): (0.7351133013242973, 0.7351133014305083),
    ("grid", 8): (0.6544177195725085, 0.654417719643708),
    ("grid", 12): (0.5602925982830774, 0.5602925983270282),
    ("grid", 16): (0.425532748181828, 0.4255327482612666),
    ("grid", 20): (0.17495748247666762, 0.17495748249232637)}


def _band_problem(kind, i):
    """(d, constraints) of an R3_BAND key: the paper corner at R3_min =
    0.1, random_problem(i) at 0.3 x capacity, or point i of the 21-point
    grid of `covertmac region --channel paper`."""
    if kind == "random":
        d, cons, _ = random_problem(i)
        return d, replace(cons, R3_min=0.3 * cm.capacity_x3(d)[0])
    d = cm.paper_channel()
    cap = cm.capacity_x3(d)[0]
    r3 = 0.1 if kind == "corner" else min(
        float(np.linspace(0.0, cap, 21)[i]), cap)
    return d, Constraints(r1_min=0.5, R3_min=r3, k1_max=0.8, k2_max=0.8)


@pytest.mark.parametrize("key", list(R3_BAND),
                         ids=[f"{k}{i}" for k, i in R3_BAND])
def test_max_r2_r3_within_accuracy_band(key, lp_bounds):
    """r2 is at most 1e-10 relative below the recorded r2 and at most the
    recorded bound, and the bound is at least r2, to 1e-12 relative."""
    was_r2, was_bound = R3_BAND[key]
    r2 = max_r2(*_band_problem(*key))[1].r2
    assert r2 >= was_r2 * (1 - 1e-10)
    assert r2 <= was_bound * (1 + 1e-12)
    assert lp_bounds[0] >= r2 * (1 - 1e-12)


def test_max_r2_r3_corner_work(monkeypatch):
    """The corner solve at R3_min = 0.1 runs at most 17 LPs and 197 pricing
    calls (19 and 219 under a Dinkelbach level z, 27 and 551 when every
    lattice start walked and no column was interpolated): the counts are
    deterministic, so a law search that walks again or a tail of halving
    rounds shows here."""
    calls = {"_highs_solve": 0, "_r3_price": 0}

    def counter(name):
        inner = getattr(region, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(region, name, counter(name))
    max_r2(*_band_problem("corner", 0), PHASES)
    assert calls["_highs_solve"] <= 17 and calls["_r3_price"] <= 197


@pytest.mark.parametrize("key", [("corner", 0), ("random", 0)],
                         ids=["corner", "random0"])
def test_r3_pricing_agrees_with_the_master_lp(key, monkeypatch):
    """At every priced master LP of the paper corner at R3_min = 0.1 and of
    random_problem(0) at 0.3 x capacity (x3_size 3), each column's reduced
    cost from the round's coefficients, sum_k a^k (coef[k] . t) over the
    terms t = (n1, n2, key1, key2, chi, info, 1), is cost_j - y . A_j of
    the LP that HiGHS solved, to 1e-12 relative, and 0 within 1e-9 at
    every support column: the one table of unit-term rows prices the LP
    it came from."""
    rounds = []
    solve, master, generate = (region._highs_solve, region._r3_solve,
                               region._r3_generate)

    def solved(*args):
        rounds[-1]["lp"] = args, solve(*args)
        return rounds[-1]["lp"][1]

    def mastered(t, a, *args):
        rounds.append({"t": t, "a": a})
        return master(t, a, *args)

    def generated(tab, cons, price, *cols):
        def priced(coef):
            rounds[-1]["coef"] = coef
            return price(coef)
        return generate(tab, cons, priced, *cols)

    monkeypatch.setattr(region, "_highs_solve", solved)
    monkeypatch.setattr(region, "_r3_solve", mastered)
    monkeypatch.setattr(region, "_r3_generate", generated)
    max_r2(*_band_problem(*key))
    priced = [r for r in rounds if "coef" in r]
    assert len(priced) > 2
    for r in priced:
        (cost, a_ub, _, eq_row, _, _), (x, y) = r["lp"]
        a = r["a"]
        n = len(a)
        terms = np.vstack([*r["t"][:6], np.ones(n)])
        rc = sum(a ** k * (r["coef"][k] @ terms) for k in range(3))
        parts = np.vstack([cost[:n], -y[:-1, None] * a_ub[:, :n],
                           -y[-1] * eq_row[:n]])
        assert np.all(np.abs(rc - parts.sum(axis=0))
                      <= 1e-12 * np.abs(parts).sum(axis=0))
        assert np.all(np.abs(rc[x[:n] > 1e-12]) <= 1e-9)


def test_max_r2_r3_prices_forbidden_laws_as_silent(lp_bounds):
    """A law that sends the x3 symbol outside the warden's support can only
    be silent: pricing gives it a = 0 without NaN, so the R3 > 0 solve on
    such a channel raises no numpy warning, keeps that law's phase
    silent, meets its caps and stays within its bound; its r2 is at least
    that of the lattice pricing, 3.6952440064288066."""
    gz = [list(r) for r in GZ_AC]
    gz[3], gz[5], gz[7] = [0.4, 0.3, 0.3], [0.3, 0.4, 0.3], [0.35, 0.35, 0.3]
    d = make_dmc(cm.paper_channel().gamma_y, gz)
    assert d.ac_violations == (0,)
    cons = Constraints(r1_min=0.1, R3_min=0.2 * cm.capacity_x3(d)[0],
                       k1_max=0.8, k2_max=0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan, rt = max_r2(d, cons)
    for q, rho1, rho2 in zip(plan.p_x3_given_t, plan.rho1, plan.rho2):
        assert q[0] == 0 or rho1 == rho2 == 0
    assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)
    assert lp_bounds[0] >= rt.r2 * (1 - 1e-12)
    assert rt.r2 >= 3.6952440064288066 * (1 - 1e-9)


def test_r3_generate_stops_when_a_round_changes_nothing(monkeypatch):
    """A round that prices no new column would repeat itself; each column
    generation (the main one and the polish) then stops after one LP."""
    d, cons, _ = random_problem(1)
    cons = replace(cons, R3_min=0.3 * cm.capacity_x3(d)[0])
    solves, inner = [], region._r3_solve

    def counted(*args):
        solves.append(args[-1])             # phase1
        return inner(*args)

    monkeypatch.setattr(region, "_r3_solve", counted)
    monkeypatch.setattr(region, "_priced", lambda *args: [])
    assert region._lp_max_r2_r3(d, cons, "bits") is not None
    assert solves == [False, False]


# _one_phase_max_r2 as recorded before its law search was shared with
# R3 > 0 pricing, which must not move a bit of it: random_problem(0)
# (x3_size 3) and random_problem(1) (x3_size 2) at R3_min = 0.3 x capacity.
@pytest.mark.parametrize("seed, want", [
    (0, "(PhasePlan(p_t=(1.0,), p_x3_given_t=((2.1414283628426708e-13, "
        "0.07335118588284069, 0.9266488141169447),), "
        "rho1=(0.6417246836543121,), rho2=(0.3582753163456879,), "
        "beta1=0.9999999999999998, beta2=1.0), "
        "RateTuple(r1=1.219620276056255, r2=0.7815119734211328, "
        "R3=0.06197690627474212, k1=0.0, k2=0.0, unit='bits', "
        "perfectly_covert=False))"),
    (1, "(PhasePlan(p_t=(1.0,), p_x3_given_t=((0.07976689195929312, "
        "0.9202331080407069),), rho1=(0.6276386123484109,), "
        "rho2=(0.3723613876515891,), beta1=0.9999999999999998, beta2=1.0), "
        "RateTuple(r1=0.8860162163042434, r2=1.1251953587137082, "
        "R3=0.1262258274787527, k1=0.3232627927653879, k2=0.0, unit='bits', "
        "perfectly_covert=False))")], ids=["0", "1"])
def test_one_phase_max_r2_pinned(seed, want):
    """The single-phase search, byte for byte."""
    d, cons, _ = random_problem(seed)
    cons = replace(cons, R3_min=0.3 * cm.capacity_x3(d)[0])
    assert repr(region._one_phase_max_r2(d, cons, "bits")) == want


def _q_neighbours_reference(q, h):
    """_q_neighbours as first written, with np.linspace per direction."""
    out = [q]
    for i, j in itertools.permutations(range(len(q)), 2):
        if min(h, q[j]) > 0:
            s = np.linspace(0.0, min(h, q[j]), 11)[1:, None]
            out.extend(q + s * (np.eye(len(q))[i] - np.eye(len(q))[j]))
    return np.array(out)


def _starts(k):
    law = st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=k,
                   max_size=k).filter(lambda w: sum(w) > 0)
    return st.lists(st.tuples(law, st.floats(1e-11, 1.0)), min_size=1,
                    max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4).flatmap(_starts))
def test_q_neighbours_bit_identical_to_linspace(starts):
    """The law search's neighbours of a batch of starts are the bits of the
    reference per start, stacked in start order, laws with zeros (and so
    directions with zero reach) included; the sizes split them."""
    q = np.array([np.array(w) / sum(w) for w, _ in starts])
    h = np.array([h for _, h in starts])
    got, size = region._q_neighbours(q, h)
    want = [_q_neighbours_reference(qi, hi) for qi, hi in zip(q, h)]
    assert size.tolist() == [len(x) for x in want]
    want = np.vstack(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_max_r2_fix_mode_with_r3_infeasible_at_once(paper):
    """One-hot x3 rows carry no R3, so fix mode with R3_min > 0 is
    infeasible before any search."""
    with pytest.raises(InfeasibleError):
        max_r2(paper, Constraints(R3_min=0.05), PHASES, fix_x3=0)


def test_max_r2_key_limited_fix0_single_phase(paper):
    """The LP's modes at one x3 merge into one phase, so the key-limited
    fix0 optimum fits a single phase."""
    prof = divergence_profile(paper, "bits")
    limit = 0.05 * prof.d_y2[0] / prof.d_zy2[0]
    cons = Constraints(r1_min=0.1, k1_max=0.8, k2_max=0.05)
    plan, rt = max_r2(paper, cons, max_phases=1, fix_x3=0)
    assert plan.tau == 1 and plan.p_x3_given_t == ((1.0, 0.0),)
    assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)
    assert limit * (1 - 1e-9) <= rt.r2 <= limit * (1 + 1e-9)


def test_highs_solve_bit_identical_to_linprog(paper, monkeypatch):
    """Every LP of the paper corner at R3 = 0 and 0.1, of a phase-1 round
    (the corner at R3 = 0.3, out of its reach) and of random_problem(18)
    (ten mode LPs) and (3) (infeasible at N2 = 1, then D = 1) at
    k2_max = 0 gives the x and the marginals of scipy.optimize.linprog on
    the same LP, bit for bit, and _INFEASIBLE where linprog's status is 2;
    a row with an infinite or NaN entry is a ValueError in both."""
    from scipy.optimize import linprog
    lps, inner = [], region._highs_solve

    def recorded(*args):
        lps.append((args, inner(*args)))
        return lps[-1][1]

    monkeypatch.setattr(region, "_highs_solve", recorded)
    corner = Constraints(r1_min=0.5, k1_max=0.8, k2_max=0.8)
    max_r2(paper, corner)
    max_r2(paper, replace(corner, R3_min=0.1))
    with pytest.raises(InfeasibleError):
        max_r2(paper, replace(corner, R3_min=0.3))
    for seed in (18, 3):
        d, cons, _ = random_problem(seed)
        max_r2(d, replace(cons, k2_max=0.0))

    def reference(cost, a_ub, b_ub, eq_row, lb, ub):
        return linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=eq_row[None, :],
                       b_eq=[1.0], bounds=np.column_stack([lb, ub]),
                       method="highs", options=region._LP_OPTIONS)

    for args, got in lps:
        want = reference(*args)
        if want.status != 0:
            assert got is (region._INFEASIBLE if want.status == 2 else None)
            continue
        assert got[0].tobytes() == want.x.tobytes()
        assert got[1].tobytes() == np.append(want.ineqlin.marginals,
                                             want.eqlin.marginals).tobytes()
    phase1 = [ub[-2] == 0.0 and ub[-1] == math.inf     # w = 0, e free
              for (*_, ub), _ in lps]
    assert any(phase1) and region._INFEASIBLE in [got for _, got in lps]
    assert any(isinstance(got, tuple) for _, got in lps)
    for bad in (math.inf, math.nan):
        lp = (np.array([1.0, 0.0]), np.array([[1.0, bad]]), np.zeros(1),
              np.ones(2), np.zeros(2), np.full(2, math.inf))
        for solve in (inner, reference):
            with pytest.raises(ValueError):
                solve(*lp)


def test_highs_solve_unbounded_and_infeasible_ends():
    """An unbounded LP (min -x0 with x1 = 1 and one zero row) gives None;
    a row entry of 1e16, which HiGHS reads as infinite and refuses as a
    model, and x0 + x1 = 1 under x0 + x1 <= 0.5 give _INFEASIBLE."""
    lb, ub = np.zeros(2), np.full(2, math.inf)
    assert region._highs_solve(np.array([-1.0, 0.0]), np.zeros((1, 2)),
                               np.zeros(1), np.array([0.0, 1.0]), lb,
                               ub) is None
    for row, b in (([1e16, 0.0], 1.0), ([1.0, 1.0], 0.5)):
        assert region._highs_solve(np.array([1.0, 0.0]), np.array([row]),
                                   np.array([b]), np.ones(2), lb,
                                   ub) is region._INFEASIBLE


@pytest.mark.parametrize("R3", [0.0, 0.1])
def test_max_r2_huge_finite_caps_match_no_cap(paper, R3):
    """A k1 or k2 cap of 1e15 or 1e20, where a cap coefficient would reach
    HiGHS' largest allowed one (a model error, which reads as infeasible),
    gives the r2 of no cap to 1e-9 relative."""
    corner = Constraints(r1_min=0.5, R3_min=R3, k1_max=0.8, k2_max=0.8)
    for key in ("k1_max", "k2_max"):
        want = max_r2(paper, replace(corner, **{key: math.inf}))[1].r2
        for cap in (1e15, 1e20):
            got = max_r2(paper, replace(corner, **{key: cap}))[1].r2
            assert math.isclose(got, want, rel_tol=1e-9)


def test_max_r2_fix_mode_is_one_closed_form_phase(paper, monkeypatch):
    """Fix mode solves its single merged phase in closed form: no LP runs,
    and r2 is the frozen fix0 optimum to 1e-12."""
    def no_lp(*args, **kwargs):
        raise AssertionError("fix mode ran an LP")

    monkeypatch.setattr(region, "_highs_solve", no_lp)
    plan, rt = max_r2(paper, Constraints(r1_min=0.1, k1_max=0.8, k2_max=1.0),
                      PHASES, fix_x3=0)
    assert plan.tau == 1 and plan.p_x3_given_t == ((1.0, 0.0),)
    assert math.isclose(rt.r2, ORACLE_FIX0_PLATEAU, rel_tol=1e-12)


@pytest.mark.parametrize("seed", [None, 2, 6, 9])
def test_price_is_exact(paper, monkeypatch, seed):
    """Under the duals of every LP round of a real R3 = 0 solve (the paper
    corner, three random problems), _price's reduced cost is at most the
    minimum of a 10001-point scan of the reduced cost, and it is the
    reduced cost at its lam."""
    if seed is None:
        d, cons = paper, Constraints(r1_min=0.5, k1_max=0.8, k2_max=0.8)
    else:
        d, cons, _ = random_problem(seed)
    calls, lps, inner, solve = [], [], region._price, region._highs_solve

    def solved(*args):
        lps.append(solve(*args))
        return lps[-1]

    def recorded(tab, w, x):             # priced at the last LP's duals
        calls.append((tab, lps[-1][1], x, inner(tab, w, x)))
        return calls[-1][3]

    monkeypatch.setattr(region, "_highs_solve", solved)
    monkeypatch.setattr(region, "_price", recorded)
    max_r2(d, cons)
    scan = np.linspace(0.0, 1.0, 10001)
    for tab, y, x, (val, lam) in calls:
        y_ub, y_eq = y[:-1], y[-1]

        def rc(l):
            cols = region._modes(tab, l, x)
            return -(y_ub @ region._lp_rows(cols, cons)[0]) - y_eq * cols[2]

        tol = 1e-14 * (np.abs(y_ub).sum() + abs(y_eq))      # rounding
        assert val <= rc(scan).min() + tol
        assert abs(val - rc(np.array([lam]))[0]) <= tol
    assert len(calls) > d.x3_size                # more than one round


def test_max_r2_zero_key_cap_gives_r2_zero(paper):
    """A k2 cap of 0 at R3 = 0 gives a feasible plan with r2 = 0 where no
    plan with N2 > 0 meets it, not InfeasibleError: random_problem(3) in
    optimize mode and the paper channel with x3 fixed to 0."""
    d, cons, _ = random_problem(3)
    for d, cons, fix_x3 in (
            (d, replace(cons, k2_max=0.0), None),
            (paper, Constraints(r1_min=0.1, k1_max=0.8, k2_max=0.0), 0)):
        plan, rt = max_r2(d, cons, PHASES, fix_x3=fix_x3)
        assert rt.r2 == 0.0
        assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)
        assert rate_tuple(d, plan) == rt


def test_max_r2_zero_key_cap_keeps_lp_plan():
    """At k2_max = 0 the LP plan of random_problem(18) mixes a phase with
    K2 < 0 and one with K2 > 0 to K2 = 0 up to rounding; it is kept
    (beta2 = 1), not replaced by the much lower single-phase plan."""
    d, cons, _ = random_problem(18)
    cons = replace(cons, k2_max=0.0)
    plan, rt = max_r2(d, cons)
    _, one = max_r2(d, cons, max_phases=1)
    assert plan.tau == 2 and plan.beta2 == 1.0
    assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)
    assert rt.r2 > 2 * one.r2


def test_max_r2_falls_back_when_lp_needs_more_phases():
    """The LP optimum of this problem uses two x3 symbols; with one phase
    allowed, the single-phase search returns a feasible one-phase plan."""
    d, cons, _ = random_problem(1)
    two, best = max_r2(d, cons)
    assert len({q.index(1.0) for q in two.p_x3_given_t}) == 2
    plan, rt = max_r2(d, cons, max_phases=1)
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
    plan, rt = max_r2(d, cons, max_phases=1)
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
    plan, rt = max_r2(d, cons, max_phases=1)
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
        max_r2(d, cons, max_phases=2)


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
        trace_r2_R3(paper, 0.1, 0.8, 0.8, [0.5], max_phases=1)


def test_trace_grid_refuses_a_negative_r3(paper):
    """An R3 below 0, however close, gets the grid message."""
    with pytest.raises(ValueError, match="^R3 grid must be non-empty and "
                                         r"lie within \[0, capacity="):
        trace_r2_R3(paper, 0.5, 0.8, 0.8, [-1e-13])


@pytest.mark.parametrize("sweep", ["trace", "curve"])
def test_sweeps_refuse_zero_phases_before_any_lp(paper, monkeypatch, sweep):
    """max_phases = 0 on a valid grid is refused by max_r2 at the first
    point, before any LP."""
    calls = []
    monkeypatch.setattr(region, "_highs_solve",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^max_phases must be at least 1$"):
        if sweep == "trace":
            trace_r2_R3(paper, 0.5, 0.8, 0.8, [0.0, 0.1], max_phases=0)
        else:
            curve_r2_vs_k2(paper, 0.1, 0.8, [0.5, 1.0], max_phases=0)
    assert calls == []


def test_trace_small_grid_pareto(paper):
    pts = trace_r2_R3(paper, 0.1, 0.8, 0.8, [0.0, 0.09, 0.18], max_phases=2)
    assert len(pts) >= 2
    r3s = [p[1] for p in pts]
    assert r3s == sorted(r3s)
    r2s = [p[0] for p in pts]
    assert r2s == sorted(r2s, reverse=True)


def test_curve_fix_mode_and_shape(paper):
    pts = curve_r2_vs_k2(paper, 0.1, 0.8, [0.2, 0.6], fix_x3=0, max_phases=2)
    assert [k for k, _ in pts] == [0.2, 0.6]
    assert pts[1][1] >= pts[0][1] - 1e-9


@pytest.mark.parametrize("unit", ["bits", "nats"])
def test_curve_optimize_at_least_every_fixed_x3(paper, unit):
    """Optimizing x3 reaches at least every fixed x3 at each k2 of the
    CLI's default grid: a one-phase LP plan takes fix mode's closed form
    where that is higher."""
    grid = np.linspace(0.0, 1.0, 21)
    opt = curve_r2_vs_k2(paper, 0.1, 0.8, grid, unit=unit)
    for x in range(paper.x3_size):
        fix = curve_r2_vs_k2(paper, 0.1, 0.8, grid, fix_x3=x, unit=unit)
        assert all(o[1] >= f[1] for o, f in zip(opt, fix))


# ---- the per-channel term table ------------------------------------------


def _reference_quantities(d, plan, unit):
    """_plan_quantities rebuilt per (phase, x3) from the public functions."""
    prof = divergence_profile(d, unit)
    divs = (prof.d_y1, prof.d_y2, prof.d_zy1, prof.d_zy2)
    nk, dsq, r3 = [0.0] * 4, 0.0, 0.0
    for p, q, rho1, rho2 in zip(plan.p_t, plan.p_x3_given_t, plan.rho1,
                                plan.rho2):
        q = np.asarray(q, dtype=float)
        r3 += p * mutual_info_x3(d, q, unit)
        a = rho1 + rho2
        if a == 0 or p == 0:
            continue
        m = q > 0
        for i, rho in enumerate((rho1, rho2, rho1, rho2)):
            nk[i] += p * rho * float(q[m] @ divs[i][m])
        chi = 0.0
        for x in range(d.x3_size):
            if q[x] > 0:
                chi += q[x] * chi_square(d, rho1, rho2, x)
        dsq += p * a * a * chi
    return nk[:2], nk[2:], dsq, r3


def _random_plans(k, seed, count=6):
    """Seeded plans over k symbols: 1-3 phases, some laws with a zero entry,
    some silent phases."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        tau = int(rng.integers(1, 4))
        p = rng.dirichlet(np.ones(tau))
        laws = []
        for _ in range(tau):
            q = rng.dirichlet(np.ones(k))
            if rng.random() < 0.4:
                q[rng.integers(k)] = 0.0
                q /= q.sum()
            q[-1] = 1.0 - q[:-1].sum()
            laws.append(tuple(map(float, q)))
        rho = rng.uniform(0.0, 2.0, (2, tau)) * (rng.random(tau) > 0.2)
        p_t = tuple(map(float, p[:-1])) + (1.0 - float(p[:-1].sum()),)
        out.append(PhasePlan(p_t=p_t, p_x3_given_t=tuple(laws),
                             rho1=tuple(map(float, rho[0])),
                             rho2=tuple(map(float, rho[1])),
                             beta1=float(rng.uniform(0.1, 1.0)),
                             beta2=float(rng.uniform(0.1, 1.0))))
    return out


def _unused_x3_channel(paper):
    """The channel of test_auto_thresholds_ignore_unused_x3: D_Y = inf at
    x3 = 1."""
    gy = np.array(paper.gamma_y)
    gy[1] = [0.0, 0.2, 0.2, 0.2, 0.2, 0.2]
    gy[5] = [0.2, 0.2, 0.2, 0.2, 0.1, 0.1]
    return make_dmc(gy, paper.gamma_z)


def test_max_r2_r3_single_phase_where_lp_gives_no_plan(paper):
    """D_Y = inf at x3 = 1 gives the phase LP no plan, so an R3 > 0 solve
    falls back on the single-phase search: at R3_min = 0.3 x capacity it
    finds r2 = inf and meets every cap."""
    d = _unused_x3_channel(paper)
    cons = Constraints(r1_min=0.5, R3_min=0.3 * cm.capacity_x3(d)[0],
                       k1_max=0.8, k2_max=0.8)
    assert region._lp_max_r2_r3(d, cons, "bits") is None
    plan, rt = max_r2(d, cons)
    assert plan.tau == 1 and rt.r2 == math.inf
    assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)


def test_silent_user_adds_nothing_where_its_divergence_is_infinite(paper):
    """A user with rho = 0 adds nothing to its numerators, not 0 * inf =
    NaN: on the channel with D_Y = inf at x3 = 1, a plan in which only
    user 2 sends has r1 = 0, and max_r2 without caps and at R3_min = 0.3 x
    capacity finds r2 = inf within every cap."""
    d = _unused_x3_channel(paper)
    rt = rate_tuple(d, PhasePlan.single_phase((0.05, 0.95), 0.0, 1.0))
    assert rt.r1 == 0.0 and rt.r2 == math.inf
    for cons in (Constraints(),
                 Constraints(R3_min=0.3 * cm.capacity_x3(d)[0])):
        plan, rt = max_r2(d, cons)
        assert rt.r2 == math.inf and rt.r1 == 0.0
        assert _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons, 1e-9)


@pytest.mark.parametrize("r3, lp_r2", [(0.0, 0.8078528075699453),
                                       (0.1, 0.6066882522049194)])
def test_max_r2_falls_back_on_one_phase_when_highs_fails(
        paper, monkeypatch, r3, lp_r2):
    """Where HiGHS ends short of an optimum (here from the third LP on),
    the LP gives no plan and max_r2 returns the best single phase: at the
    paper corner at R3 = 0 that is the LP's r2 too, at R3 = 0.1 it is
    0.3311, well below the LP's 0.6067."""
    cons = Constraints(r1_min=0.5, R3_min=r3, k1_max=0.8, k2_max=0.8)
    assert max_r2(paper, cons)[1].r2 == lp_r2
    one = region._one_phase_max_r2(paper, cons, "bits")
    calls, inner = [], region._highs_solve

    def failing(*args):
        calls.append(None)
        return None if len(calls) >= 3 else inner(*args)

    monkeypatch.setattr(region, "_highs_solve", failing)
    got = max_r2(paper, cons)
    assert len(calls) >= 3
    assert repr(got) == repr(one) and got[0].tau == 1
    assert got[1].r2 == (lp_r2 if r3 == 0 else 0.3310962837041381)


def test_highs_solve_refuses_a_point_that_fails_linprogs_check(
        paper, monkeypatch):
    """A HiGHS that reports every optimal x entry 1 too low (below the
    bound 0) fails linprog's post-optimal check: _highs_solve returns None,
    and max_r2 at the paper corner at R3 = 0.1 falls back on the best
    single phase."""
    from scipy.optimize._highspy import _core as hs
    lp = (np.array([1.0, 2.0]), np.array([[1.0, 0.0]]), np.array([0.8]),
          np.ones(2), np.zeros(2), np.full(2, math.inf))
    x, _ = region._highs_solve(*lp)
    assert np.allclose(x, [0.8, 0.2])

    class Shifted(hs._Highs):
        def getSolution(self):
            sol = super().getSolution()
            sol.col_value = [v - 1.0 for v in sol.col_value]
            return sol

    monkeypatch.setattr(hs, "_Highs", Shifted)
    assert region._highs_solve(*lp) is None
    cons = Constraints(r1_min=0.5, R3_min=0.1, k1_max=0.8, k2_max=0.8)
    got = max_r2(paper, cons)
    assert repr(got) == repr(region._one_phase_max_r2(paper, cons, "bits"))
    assert got[0].tau == 1 and got[1].r2 == 0.3310962837041381


def test_max_r2_fix_mode_infeasible_caps(paper):
    """Fix mode raises InfeasibleError where no phase at the one-hot law
    meets the caps."""
    with pytest.raises(InfeasibleError, match="no single-phase plan meets"):
        max_r2(paper, Constraints(r1_min=10.0), fix_x3=0)


@pytest.mark.parametrize("case", ["ref", "unused-x3", "rp3", "rp4", "rp7"])
def test_evaluators_match_public_reference(paper, monkeypatch, case):
    """rate_tuple, theorem1_sizing and auto_thresholds read the table yet
    equal, bit for bit, the same evaluators on a per-(phase, x3) reference
    built from divergence_profile, chi_square and mutual_info_x3."""
    from covertmac import simulator
    if case == "ref":
        d, plans = paper, [REF_PLAN]
    elif case == "unused-x3":
        d = _unused_x3_channel(paper)
        plans = [PhasePlan.single_phase((1.0, 0.0), 0.5, 0.5)]
    else:
        d = random_problem(int(case[2:]))[0]
        plans = _random_plans(d.x3_size, int(case[2:]))

    def evaluate():
        return [(rate_tuple(d, plan, unit),
                 theorem1_sizing(d, plan, 10**6, 1e-2, (0.1,) * 6, unit),
                 simulator.auto_thresholds(d, plan, 1000, 1000 ** -0.25))
                for plan in plans for unit in ("bits", "nats")]

    got = evaluate()
    monkeypatch.setattr(region, "_plan_quantities", _reference_quantities)
    assert got == evaluate()


def test_channel_terms_built_once_per_channel_and_unit(monkeypatch, capsys):
    """One divergence_profile and one Blahut-Arimoto run per (Dmc, unit),
    however many evaluations, solves, capacity_x3 calls and CLI runs read
    them."""
    calls = {"profile": 0, "blahut_arimoto": 0}
    profile = infotheory.divergence_profile
    capacity = infotheory._ChannelTerms.capacity.func

    def counted_profile(*args, **kwargs):
        calls["profile"] += 1
        return profile(*args, **kwargs)

    def counted_capacity(tab):
        calls["blahut_arimoto"] += 1
        return capacity(tab)

    prop = functools.cached_property(counted_capacity)
    prop.__set_name__(infotheory._ChannelTerms, "capacity")
    monkeypatch.setattr(infotheory, "divergence_profile", counted_profile)
    monkeypatch.setattr(infotheory._ChannelTerms, "capacity", prop)
    d = cm.paper_channel()                       # a fresh Dmc
    for _ in range(100):
        rate_tuple(d, REF_PLAN)
    assert calls == {"profile": 1, "blahut_arimoto": 0}
    trace_r2_R3(d, 0.1, 0.8, 0.8, [0.0, 0.09], max_phases=1)
    assert calls == {"profile": 1, "blahut_arimoto": 1}
    cm.capacity_x3(d)
    cm.capacity_x3(d)
    monkeypatch.setattr(cli, "_load", lambda args: d)
    assert cli.main(["region", "--channel", "paper", "--r1", "0.1",
                     "--grid-points", "2", "--max-phases", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert calls == {"profile": 1, "blahut_arimoto": 1}
    rate_tuple(d, REF_PLAN, "nats")
    cm.capacity_x3(d, "nats")
    cm.capacity_x3(d, "nats")
    assert calls == {"profile": 2, "blahut_arimoto": 2}


def test_channel_terms_read_only_and_equal_to_public(paper):
    """The table's arrays cannot be written, and its capacity, chi-square
    and I(X3; Y) are the public functions' values."""
    tab = region._channel_terms(paper, "nats")
    assert tab is region._channel_terms(paper, "nats")
    cap, law = cm.capacity_x3(paper, unit="nats")
    assert tab.capacity[0] == cap and np.array_equal(tab.capacity[1], law)
    for arr in (tab.div, tab.divs, tab.coef, tab.sub, tab.sub_one,
                tab.capacity[1], *tab.chi_rows[0], tab.one_hot[0]):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
    q = np.array([0.3, 0.7])
    assert tab.mutual_info(q[None]) == [mutual_info_x3(paper, q, "nats")]
    chi = tab.chi(np.array([0.3]), np.array([1.1]))
    for x in range(paper.x3_size):
        assert chi[0, x] == chi_square(paper, 0.3, 1.1, x)


# ---- the plan evaluator against its scalar oracle ------------------------


def _oracle_channel(rng, k, kind):
    """A random channel over k symbols with output sizes 2-9: ``plain`` has
    positive rows, ``zero-y-column`` a gamma_y output no row reaches,
    ``zero-z-column`` a warden output no row reaches (the warden's support
    is partial, absolute continuity holds), ``zero-z-at-x`` one output that
    no warden row of one x3 reaches (supports of two sizes),
    ``ac-violation`` a zero in one all-off warden row where its one-user
    rows have mass (infinite chi)."""
    ny, nz = (int(v) for v in rng.integers(2, 10, size=2))
    gy = rng.dirichlet(np.ones(ny), size=4 * k)
    gz = rng.dirichlet(np.ones(nz), size=4 * k)
    if kind == "zero-y-column" and ny > 2:
        gy[:, rng.integers(ny)] = 0.0
    if kind == "zero-z-column" and nz > 2:
        gz[:, rng.integers(nz)] = 0.0
    if kind == "zero-z-at-x" and nz > 2:
        gz[rng.integers(k) + np.arange(4) * k, rng.integers(nz)] = 0.0
    if kind == "ac-violation":
        gz[rng.integers(k), rng.integers(nz)] = 0.0
    d = make_dmc(gy / gy.sum(1, keepdims=True), gz / gz.sum(1, keepdims=True))
    assert (kind == "ac-violation") == bool(d.ac_violations)
    return d


def _oracle_plans(rng, k, count, all_sent=False):
    """Plans of 1-6 phases with zeros in q (unless ``all_sent``), p = 0
    phases and users with rho = 0."""
    out = []
    for _ in range(count):
        tau = int(rng.integers(1, region.MAX_PHASES + 1))
        p = rng.dirichlet(np.ones(tau)) * (rng.random(tau) > 0.15)
        if not p.any():
            p[0] = 1.0
        q = rng.dirichlet(np.ones(k), size=tau)
        if not all_sent:
            q *= rng.random((tau, k)) > 0.3
            q[~q.any(axis=1), 0] = 1.0
        rho = rng.uniform(0.05, 2.0, (2, tau)) * (rng.random((2, tau)) > 0.2)
        out.append(PhasePlan(
            p_t=tuple(map(float, p / p.sum())),
            p_x3_given_t=tuple(tuple(map(float, r / r.sum())) for r in q),
            rho1=tuple(map(float, rho[0])), rho2=tuple(map(float, rho[1]))))
    return out


def _same_bits(d, plans, unit):
    for plan in plans:
        want = plan_oracle.hexed(plan_oracle.plan_quantities(d, plan, unit))
        got = plan_oracle.hexed(region._plan_quantities(d, plan, unit))
        assert got == want, plan


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4),
       st.sampled_from(["plain", "zero-y-column", "zero-z-column",
                        "zero-z-at-x", "ac-violation"]),
       st.sampled_from(["bits", "nats"]))
def test_plan_quantities_same_bits_as_scalar_oracle(seed, k, kind, unit):
    """_plan_quantities gives, by float.hex, the scalar per-(phase, x3)
    oracle's numerators, key numerators, Dsq and R3: zeros in q, silent
    users and phases, infinite chi and divergences included."""
    rng = np.random.default_rng(seed)
    d = _oracle_channel(rng, k, kind)
    _same_bits(d, _oracle_plans(rng, k, 12), unit)


@pytest.mark.parametrize("seed", range(4))
def test_plan_quantities_same_bits_with_every_symbol_sent(seed):
    """At x3_size 4 with every symbol sent the mask q > 0 is all true; the
    numerators' dots must still run over C-contiguous rows, as the oracle's
    do, or BLAS may sum them in another order."""
    rng = np.random.default_rng([25, seed])
    d = _oracle_channel(rng, 4, "plain")
    plans = _oracle_plans(rng, 4, 60, all_sent=True)
    for unit in ("bits", "nats"):
        _same_bits(d, plans, unit)
    _same_bits(cm.paper_channel(), _oracle_plans(rng, 2, 30, True), "bits")


@pytest.mark.parametrize("unit", ["bits", "nats"])
def test_with_betas_silent_user_1_meets_no_r1_floor(paper, unit):
    """A plan whose user 1 is silent in every phase has r1 = 0 at any
    beta1, so under a positive r1 floor it gives no plan."""
    plan = PhasePlan.single_phase((0.5, 0.5), 0.0, 1.0)
    assert region._with_betas(paper, plan, Constraints(r1_min=0.1),
                              unit) is None
    assert region._with_betas(paper, plan, Constraints(), unit) is not None


def test_with_betas_zero_key_cap_and_r3_floor(paper):
    """A plan with K2 > 0 under k2_max = 0 gets beta2 = 0, and a plan whose
    R3 is below R3_min misses the floor at any betas: both give None."""
    plan = PhasePlan.single_phase((0.5, 0.5), 1.0, 1.0)
    assert region._evaluate(paper, plan, "bits").key[1] > 0
    rt = region._with_betas(paper, plan, Constraints(), "bits")[1]
    assert region._with_betas(paper, plan, Constraints(k2_max=0.0),
                              "bits") is None
    assert region._with_betas(paper, plan, Constraints(R3_min=2 * rt.R3),
                              "bits") is None
