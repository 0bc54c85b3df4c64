"""Asymptotic rate/key tuples over multi-phase coding plans, finite-blocklength
sizing, and boundary tracing by column-generated linear programs, with
multi-start direct search as the fallback.

A plan multiplexes up to six phases.  Phase t runs for a fraction p_t of the
blocklength, gives the non-covert user symbol frequencies p_x3_given_t, and
sets the covert 1-symbol density prefactors rho1[t], rho2[t].  beta1, beta2
in (0, 1] are the active-fraction rate parameters.

The square-root rates are

    r_l = sqrt(2) * beta_l * E[rho_l,T * D_Y^(l)(X3)] / D,
    D   = sqrt( E[(rho_1,T + rho_2,T)^2 * chi2(rho_T, X3)] ),

with R3 the T-averaged mutual information of the x3 sub-channel and the
minimal key rates k_l defined like r_l with the warden-advantage divergence
D_Z - D_Y in place of D_Y, clamped at zero.  Phases with rho1+rho2 = 0
contribute nothing to either numerators or D (silent-phase convention), so
plans are invariant to scaling all rho's by a positive constant.

At R3 = 0, max r2 is a linear-fractional program.  A phase with a mixed x3
row splits into one-hot modes (lam, x3), lam = rho1 / (rho1 + rho2), with
covert mass v = p (rho1 + rho2); the numerators are linear in v, and the
time shares p ~ v sqrt(chi2) minimize D to sum v sqrt(chi2)
(Cauchy-Schwarz).  Normalizing N2 = 1 (Charnes-Cooper, 1962) turns
1 / r2 into the optimum of a linear program over a lam grid, which column
generation refines.

At R3 > 0 the time shares matter (R3 = sum p I(q)), so the columns are
whole phases (lam, q, a), a = rho1 + rho2, and the only LP variables are
their time shares p: the numerators, G = D^2 and R3 are all linear in p.
Normalizing G <= 1 leaves r2 = min(sqrt2 N2, k2_max N2 / K2), a max-min of
ratios, solved by a Dinkelbach-type iteration; new columns come from a
closed-form minimum of the reduced cost over a and a scan over (lam, q).
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linprog, minimize, minimize_scalar
from scipy.stats import qmc

from .channel import Dmc, SIDE_Y
from .infotheory import (DEFAULT_UNIT, capacity_x3, chi_square,
                         divergence_profile, mutual_info_x3, unit_factor)

MAX_PHASES = 6
SQRT2 = math.sqrt(2.0)


class InfeasibleError(Exception):
    """No plan satisfying the constraints was found within the budget."""

    def __init__(self, message: str, constraints=None):
        super().__init__(message)
        self.constraints = constraints


@dataclass(frozen=True)
class PhasePlan:
    """Full parameter set of a multi-phase coding plan."""

    p_t: tuple
    p_x3_given_t: tuple          # tuple of per-phase tuples over X3
    rho1: tuple
    rho2: tuple
    beta1: float = 1.0
    beta2: float = 1.0

    @property
    def tau(self) -> int:
        return len(self.p_t)

    @property
    def no_covert(self) -> bool:
        return all(r1 + r2 == 0 for r1, r2 in zip(self.rho1, self.rho2))

    def validate(self, x3_size: int | None = None) -> None:
        tau = self.tau
        if not 1 <= tau <= MAX_PHASES:
            raise ValueError(f"tau must be in [1, {MAX_PHASES}], got {tau}")
        for name in ("p_x3_given_t", "rho1", "rho2"):
            if len(getattr(self, name)) != tau:
                raise ValueError(f"{name} must have one entry per phase")
        if abs(sum(self.p_t) - 1.0) > 1e-12 or min(self.p_t) < 0:
            raise ValueError("p_t must be a distribution (sum 1 within 1e-12)")
        for q in self.p_x3_given_t:
            if abs(sum(q) - 1.0) > 1e-12 or min(q) < 0:
                raise ValueError("each p_x3_given_t row must be a distribution")
            if x3_size is not None and len(q) != x3_size:
                raise ValueError(f"p_x3_given_t rows must have length {x3_size}")
        if any(r < 0 for r in self.rho1) or any(r < 0 for r in self.rho2):
            raise ValueError("rho prefactors must be non-negative")
        for b in (self.beta1, self.beta2):
            if not 0 < b <= 1:
                raise ValueError("beta1, beta2 must lie in (0, 1]")

    def scaled(self, c: float) -> "PhasePlan":
        """Same plan with all rho's multiplied by c > 0 (rates unchanged)."""
        return replace(self, rho1=tuple(c * r for r in self.rho1),
                       rho2=tuple(c * r for r in self.rho2))

    def canonical_key(self) -> tuple:
        rnd = lambda x: round(float(x), 12)
        return (self.tau, tuple(map(rnd, self.p_t)),
                tuple(tuple(map(rnd, q)) for q in self.p_x3_given_t),
                tuple(map(rnd, self.rho1)), tuple(map(rnd, self.rho2)),
                rnd(self.beta1), rnd(self.beta2))

    def to_dict(self) -> dict:
        return {"p_t": list(self.p_t),
                "p_x3_given_t": [list(q) for q in self.p_x3_given_t],
                "rho1": list(self.rho1), "rho2": list(self.rho2),
                "beta1": self.beta1, "beta2": self.beta2}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    @classmethod
    def from_dict(cls, doc: dict) -> "PhasePlan":
        return cls(p_t=tuple(doc["p_t"]),
                   p_x3_given_t=tuple(tuple(q) for q in doc["p_x3_given_t"]),
                   rho1=tuple(doc["rho1"]), rho2=tuple(doc["rho2"]),
                   beta1=float(doc.get("beta1", 1.0)),
                   beta2=float(doc.get("beta2", 1.0)))

    @classmethod
    def from_json(cls, text: str) -> "PhasePlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def single_phase(cls, p_x3, rho1: float, rho2: float,
                     beta1: float = 1.0, beta2: float = 1.0) -> "PhasePlan":
        return cls(p_t=(1.0,), p_x3_given_t=(tuple(p_x3),),
                   rho1=(rho1,), rho2=(rho2,), beta1=beta1, beta2=beta2)


@dataclass(frozen=True)
class RateTuple:
    r1: float
    r2: float
    R3: float
    k1: float
    k2: float
    unit: str = DEFAULT_UNIT
    perfectly_covert: bool = False   # chi2 = 0 with active covert users


@dataclass(frozen=True)
class Theorem1Sizing:
    n: int
    omega_n: float
    xi: tuple
    phi1: float
    phi2: float
    swapped: bool                # True when user 2 takes the longer-active role
    log_m1: float
    log_m2: float
    log_m3: float
    log_k1: float
    log_k2: float
    divergence_bound: float
    unit: str = DEFAULT_UNIT


def _plan_quantities(d: Dmc, plan: PhasePlan, unit: str):
    """(num1, num2, keynum1, keynum2, Dsq, R3); numerators without beta/sqrt2."""
    prof = divergence_profile(d, unit)
    num = [0.0, 0.0]
    key = [0.0, 0.0]
    dsq = 0.0
    r3 = 0.0
    for t in range(plan.tau):
        p = plan.p_t[t]
        q = np.asarray(plan.p_x3_given_t[t], dtype=float)
        r3 += p * mutual_info_x3(d, q, unit)
        a = plan.rho1[t] + plan.rho2[t]
        if a == 0 or p == 0:
            continue
        m = q > 0          # 0 * inf = 0 for symbols the phase never sends
        num[0] += p * plan.rho1[t] * float(q[m] @ prof.d_y1[m])
        num[1] += p * plan.rho2[t] * float(q[m] @ prof.d_y2[m])
        key[0] += p * plan.rho1[t] * float(q[m] @ prof.d_zy1[m])
        key[1] += p * plan.rho2[t] * float(q[m] @ prof.d_zy2[m])
        chi = 0.0
        for x3 in range(d.x3_size):
            if q[x3] > 0:     # an infinite chi-square makes dsq infinite
                chi += q[x3] * chi_square(d, plan.rho1[t], plan.rho2[t], x3)
        dsq += p * a * a * chi
    return num, key, dsq, r3


def rate_tuple(d: Dmc, plan: PhasePlan, unit: str = DEFAULT_UNIT) -> RateTuple:
    """Evaluate the asymptotic rate/key tuple of a plan."""
    plan.validate(d.x3_size)
    num, key, dsq, r3 = _plan_quantities(d, plan, unit)
    r3 = float(r3)              # plans may hold numpy scalars
    if math.isinf(dsq):
        raise ValueError("chi-square is infinite at an active (phase, x3); "
                         "the plan violates absolute continuity")
    if dsq == 0.0:
        if num[0] == 0.0 and num[1] == 0.0:
            return RateTuple(0.0, 0.0, r3, 0.0, 0.0, unit)
        # active covert users that the warden cannot see at all
        return RateTuple(math.inf if num[0] > 0 else 0.0,
                         math.inf if num[1] > 0 else 0.0,
                         r3, 0.0, 0.0, unit, perfectly_covert=True)
    dd = math.sqrt(dsq)
    betas = (plan.beta1, plan.beta2)
    r1, r2 = (float(SQRT2 * b * n / dd) for b, n in zip(betas, num))
    k1, k2 = (float(max(0.0, SQRT2 * b * k / dd)) for b, k in zip(betas, key))
    return RateTuple(r1, r2, r3, k1, k2, unit)


def theorem1_sizing(d: Dmc, plan: PhasePlan, n: int, omega_n: float,
                    xi, unit: str = DEFAULT_UNIT) -> Theorem1Sizing:
    """Finite-blocklength message/key sizing and warden-divergence bound.

    The active fractions come from the rate parameters: the user with the
    larger beta takes the longer fraction beta_max^2 of each phase, the other
    beta_l * beta_max; when beta2 > beta1 the role switch is recorded.
    """
    plan.validate(d.x3_size)
    xi = tuple(float(v) for v in xi)
    if len(xi) != 6 or any(not 0 < v < 1 for v in xi):
        raise ValueError("xi must be six slack values in (0, 1)")
    if not 0 < omega_n < 1:
        raise ValueError("omega_n must lie in (0, 1)")
    num, key, dsq, r3 = _plan_quantities(d, plan, unit)
    b1, b2 = plan.beta1, plan.beta2
    swapped = b2 > b1
    bmax = max(b1, b2)
    phi_u1, phi_u2 = b1 * bmax, b2 * bmax
    root = omega_n * math.sqrt(n)
    log_m1 = phi_u1 * (1 - xi[0]) * root * num[0]
    log_m2 = phi_u2 * (1 - xi[1]) * root * num[1]
    log_m3 = (1 - xi[2]) * n * r3
    log_k1 = max(0.0, phi_u1 * (1 - xi[3]) * root * key[0])
    log_k2 = max(0.0, phi_u2 * (1 - xi[4]) * root * key[1])
    bound = bmax ** 2 * (1 + xi[5]) * omega_n ** 2 / 2 * dsq / unit_factor(unit)
    return Theorem1Sizing(n=n, omega_n=omega_n, xi=xi,
                          phi1=bmax ** 2, phi2=min(phi_u1, phi_u2),
                          swapped=swapped,
                          log_m1=log_m1, log_m2=log_m2, log_m3=log_m3,
                          log_k1=log_k1, log_k2=log_k2,
                          divergence_bound=bound, unit=unit)


# ---------------------------------------------------------------------------
# constrained search over plans


@dataclass(frozen=True)
class Constraints:
    r1_min: float = 0.0
    R3_min: float = 0.0
    k1_max: float = math.inf
    k2_max: float = math.inf

    def __post_init__(self):
        caps = (self.r1_min, self.R3_min, self.k1_max, self.k2_max)
        if any(math.isnan(v) for v in caps) or min(caps) < 0:
            raise ValueError("constraints must be non-negative numbers")


@dataclass(frozen=True)
class OptBudget:
    restarts: int = 64
    max_iter: int = 4000
    seed: int = 0
    max_phases: int = MAX_PHASES
    workers: int = 1

    def __post_init__(self):
        if self.max_phases < 1:
            raise ValueError("max_phases must be at least 1")


_FEAS_SLACK = 1e-9
_PENALTY_L1 = 1e2   # exact penalty: dominates every rate/constraint slope
_PENALTY_L2 = 1e4   # smooth far-field guidance
_MARGIN = 1e-6      # penalties aim slightly inside the feasible set


def _chi2_coefficients(d: Dmc) -> np.ndarray:
    """Rows (A, B, C) over x3 with
    chi2(lam, x3) = A lam^2 + 2B lam(1-lam) + C (1-lam)^2, lam = rho1/(rho1+rho2);
    all three are inf at an absolute-continuity violation."""
    coef = np.full((3, d.x3_size), math.inf)
    for x in range(d.x3_size):
        if x in d.ac_violations:
            continue
        q00 = d.row("Z", 0, 0, x)
        sup = q00 > 0
        b1 = d.row("Z", 1, 0, x)[sup] / q00[sup] - 1.0
        b2 = d.row("Z", 0, 1, x)[sup] / q00[sup] - 1.0
        w = q00[sup]
        coef[:, x] = (float(np.sum(w * b1 * b1)), float(np.sum(w * b1 * b2)),
                      float(np.sum(w * b2 * b2)))
    return coef


class _PlanSpace:
    """Maps a flat search vector to plan quantities for one phase count.

    Layout: [p_raw(tau) | a_raw(tau) | lam(tau) | q_raw(tau*K) | b_raw(2)],
    with q omitted when x3 is pinned.  Raws are folded by abs() and
    normalized, so Nelder-Mead can roam freely.  The evaluator is scalar
    Python: the arrays are tiny and numpy overhead dominates otherwise.
    """

    def __init__(self, d: Dmc, unit: str, tau: int, fixed_x3: int | None = None):
        self.d = d
        self.tau = tau
        self.K = d.x3_size
        self.fixed_x3 = fixed_x3
        prof = divergence_profile(d, unit)
        self.dy1 = prof.d_y1.tolist()
        self.dy2 = prof.d_y2.tolist()
        self.dzy1 = prof.d_zy1.tolist()
        self.dzy2 = prof.d_zy2.tolist()
        self.fac = unit_factor(unit)
        self.sub_y = [d.row(SIDE_Y, 0, 0, x).tolist() for x in range(self.K)]
        self.neg_h = [sum(v * math.log(v) for v in row if v > 0)
                      for row in self.sub_y]
        self.chiA, self.chiB, self.chiC = _chi2_coefficients(d).tolist()

    @property
    def dim(self) -> int:
        nq = 0 if self.fixed_x3 is not None else self.tau * self.K
        return 3 * self.tau + nq + 2

    def _split(self, theta):
        t, K = self.tau, self.K
        v = [float(x) for x in theta]
        p = [abs(x) for x in v[:t]]
        a = [abs(x) for x in v[t:2 * t]]
        lam = [min(1.0, max(0.0, x)) for x in v[2 * t:3 * t]]
        if self.fixed_x3 is None:
            q = []
            for i in range(t):
                row = [abs(x) for x in v[3 * t + i * K:3 * t + (i + 1) * K]]
                s = sum(row)
                q.append([x / s for x in row] if s > 0 else [1.0 / K] * K)
        else:
            row = [0.0] * K
            row[self.fixed_x3] = 1.0
            q = [row] * t
        b = [min(1.0, max(1e-9, abs(x))) for x in v[-2:]]
        ps = sum(p)
        p = [x / ps for x in p] if ps > 0 else [1.0 / t] * t
        scale = sum(pi * ai for pi, ai in zip(p, a))
        if scale > 0:
            a = [x / scale for x in a]
        return p, a, lam, q, b

    def _mi_phase(self, q) -> float:
        """I(X3;Y) for one phase's x3 law, in nats."""
        acc = 0.0
        hy = 0.0
        ny = len(self.sub_y[0])
        for j in range(ny):
            py = 0.0
            for x in range(self.K):
                py += q[x] * self.sub_y[x][j]
            if py > 0:
                hy -= py * math.log(py)
        for x in range(self.K):
            acc += q[x] * self.neg_h[x]
        return max(0.0, acc + hy)

    def rates(self, theta):
        p, a, lam, q, b = self._split(theta)
        dsq = 0.0
        n1 = n2 = key1 = key2 = 0.0
        r3 = 0.0
        for t in range(self.tau):
            pt, at, lt = p[t], a[t], lam[t]
            qt = q[t]
            r3 += pt * self._mi_phase(qt)
            if at == 0.0 or pt == 0.0:
                continue
            d1 = d2 = z1 = z2 = chib = 0.0
            for x in range(self.K):
                w = qt[x]
                if w == 0.0:
                    continue
                d1 += w * self.dy1[x]
                d2 += w * self.dy2[x]
                z1 += w * self.dzy1[x]
                z2 += w * self.dzy2[x]
                chib += w * (self.chiA[x] * lt * lt
                             + 2.0 * self.chiB[x] * lt * (1.0 - lt)
                             + self.chiC[x] * (1.0 - lt) * (1.0 - lt))
            rho1, rho2 = lt * at, (1.0 - lt) * at
            n1 += pt * rho1 * d1
            n2 += pt * rho2 * d2
            key1 += pt * rho1 * z1
            key2 += pt * rho2 * z2
            dsq += pt * at * at * chib
        if not math.isfinite(dsq):
            return None
        r3 /= self.fac
        if dsq == 0.0:
            if n1 == 0.0 and n2 == 0.0:
                return 0.0, 0.0, r3, 0.0, 0.0
            return None
        dd = math.sqrt(dsq)
        return (SQRT2 * b[0] * n1 / dd, SQRT2 * b[1] * n2 / dd, r3,
                max(0.0, SQRT2 * b[0] * key1 / dd),
                max(0.0, SQRT2 * b[1] * key2 / dd))

    def to_plan(self, theta) -> PhasePlan:
        p, a, lam, q, b = self._split(theta)
        return PhasePlan(p_t=tuple(p),
                         p_x3_given_t=tuple(tuple(row) for row in q),
                         rho1=tuple(l * x for l, x in zip(lam, a)),
                         rho2=tuple((1 - l) * x for l, x in zip(lam, a)),
                         beta1=b[0], beta2=b[1])


def _objective(space: _PlanSpace, cons: Constraints):
    # aim a hair inside the feasible set so converged optima pass the exact check
    r1_t = cons.r1_min * (1 + _MARGIN)
    r3_t = cons.R3_min * (1 + _MARGIN)
    k1_t = cons.k1_max / (1 + _MARGIN) if math.isfinite(cons.k1_max) else cons.k1_max
    k2_t = cons.k2_max / (1 + _MARGIN) if math.isfinite(cons.k2_max) else cons.k2_max

    def f(theta):
        out = space.rates(theta)
        if out is None:
            return 1e9
        r1, r2, r3, k1, k2 = out
        v = (max(0.0, r1_t - r1) + max(0.0, r3_t - r3)
             + max(0.0, k1 - k1_t) + max(0.0, k2 - k2_t))
        return -r2 + _PENALTY_L1 * v + _PENALTY_L2 * v * v
    return f


def _feasible(rt, cons: Constraints, slack: float = _FEAS_SLACK) -> bool:
    return (rt[0] >= cons.r1_min - slack and rt[2] >= cons.R3_min - slack
            and rt[3] <= cons.k1_max + slack and rt[4] <= cons.k2_max + slack)


def _plan_to_theta(space: _PlanSpace, plan: PhasePlan) -> np.ndarray | None:
    if plan.tau > space.tau:
        return None
    t = space.tau
    p = np.full(t, 1e-12)
    a = np.zeros(t)
    lam = np.full(t, 0.5)
    q = np.full((t, space.K), 1.0 / space.K)
    for i in range(plan.tau):
        p[i] = max(plan.p_t[i], 1e-12)
        tot = plan.rho1[i] + plan.rho2[i]
        a[i] = tot
        lam[i] = plan.rho1[i] / tot if tot > 0 else 0.5
        q[i] = plan.p_x3_given_t[i]
    parts = [p, a, lam]
    if space.fixed_x3 is None:
        parts.append(q.ravel())
    parts.append(np.array([plan.beta1, plan.beta2]))
    return np.concatenate(parts)


def _search_one(args):
    d, unit, tau, fixed_x3, cons, theta0, max_iter = args
    space = _PlanSpace(d, unit, tau, fixed_x3)
    obj = _objective(space, cons)
    x = np.asarray(theta0, dtype=float)
    best_f = obj(x)
    for _ in range(2):                       # iterated restart fights NM stalls
        res = minimize(obj, x, method="Nelder-Mead",
                       options={"maxiter": max_iter, "xatol": 1e-9,
                                "fatol": 1e-12, "adaptive": True})
        if res.fun >= best_f - 1e-12:
            x, best_f = res.x, min(best_f, res.fun)
            break
        x, best_f = res.x, res.fun
    out = space.rates(x)
    if out is None or not _feasible(out, cons):
        return None
    return out[1], space.to_plan(x)


def _structured_starts(space: _PlanSpace) -> list[np.ndarray]:
    """Deterministic seeds: per-user phases, mixed phases, one-hot x3 rows."""
    t, K = space.tau, space.K
    starts = []
    lam_patterns = [np.full(t, 0.3),
                    np.array([1.0 if i % 2 == 0 else 0.0 for i in range(t)])]
    q_patterns = [np.full((t, K), 1.0 / K)]
    if K > 1:
        hot = np.full((t, K), 0.05 / max(1, K - 1))
        for i in range(t):
            hot[i, i % K] = 0.95
        q_patterns.append(hot)
    for lam in lam_patterns:
        for q in q_patterns:
            parts = [np.full(t, 1.0 / t), np.ones(t), lam]
            if space.fixed_x3 is None:
                parts.append(q.ravel())
            parts.append(np.array([0.999, 0.999]))
            starts.append(np.concatenate(parts))
    return starts


# ---------------------------------------------------------------------------
# R3_min = 0: a linear-fractional program over one-hot modes


_LP_GRID = 201                                  # starting lam grid per x3
_LP_PRICE_GRID = np.linspace(0.0, 1.0, 1001)    # dense pricing evaluation
_LP_RC_TOL = 1e-10                              # pricing stops above -tol
_LP_MAX_ROUNDS = 50
# below HiGHS' 1e-7 defaults, so that no basic column prices under -tol
_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
               "dual_feasibility_tolerance": 1e-10}


def _mode_columns(prof, coef, lam, x):
    """Per unit covert mass v of mode (lam, x3): sqrt(chi2), the numerators
    n1, n2 and the key numerators key1, key2."""
    A, B, C = coef[:, x]
    chi = A * lam * lam + 2.0 * B * lam * (1.0 - lam) + C * (1.0 - lam) ** 2
    return (np.sqrt(np.maximum(chi, 0.0)), lam * prof.d_y1[x],
            (1.0 - lam) * prof.d_y2[x], lam * prof.d_zy1[x],
            (1.0 - lam) * prof.d_zy2[x])


def _lp_rows(cols, cons: Constraints):
    """Inequality rows of the LP over (v, t): the v part and the t column.

    The time shares p ~ v sqrt(chi2) make D = sum v sqrt(chi2).  With N2
    normalized to 1 the objective t = 1/r2 needs D <= sqrt2 t and
    K2 <= k2_max t.  beta1 drops out as sqrt2 N1 >= r1_min D and
    r1_min K1 <= k1_max N1 (K1 <= 0 when both are zero).
    """
    s, n1, _, key1, key2 = cols
    rows, t_coef = [s], [-SQRT2]
    if cons.r1_min > 0:
        rows.append(cons.r1_min * s - SQRT2 * n1)
        t_coef.append(0.0)
    if cons.r1_min > 0 and math.isfinite(cons.k1_max):
        rows.append(cons.r1_min * key1 - cons.k1_max * n1)
        t_coef.append(0.0)
    elif cons.k1_max == 0:
        rows.append(key1)
        t_coef.append(0.0)
    if math.isfinite(cons.k2_max):
        rows.append(key2)
        t_coef.append(-cons.k2_max)
    return np.array(rows), np.array(t_coef)


def _lp_solve(cols, cons: Constraints, eq_row):
    """HiGHS optimum of min t over (v >= 0, t) with eq_row . v = 1."""
    a_ub, t_coef = _lp_rows(cols, cons)
    return linprog(np.append(np.zeros(len(eq_row)), 1.0),
                   A_ub=np.column_stack([a_ub, t_coef]),
                   b_ub=np.zeros(len(t_coef)),
                   A_eq=np.append(eq_row, 0.0)[None, :], b_eq=[1.0],
                   bounds=(0, None), method="highs", options=_LP_OPTIONS)


def _price(prof, coef, cons: Constraints, res, x: int):
    """(reduced cost, lam) of the cheapest mode at x3 = x under the duals of
    ``res``.  The reduced cost is convex in lam (a positive multiple of the
    norm sqrt(chi2) plus linear terms), so a dense scan and a bounded 1-D
    search around its minimum find the global one."""
    y_ub, y_eq = res.ineqlin.marginals, res.eqlin.marginals[0]

    def rc(lam):
        cols = _mode_columns(prof, coef, lam, x)
        return -(y_ub @ _lp_rows(cols, cons)[0]) - y_eq * cols[2]

    g = _LP_PRICE_GRID
    dense = rc(g)
    i = int(np.argmin(dense))
    fine = minimize_scalar(lambda l: float(rc(l)), method="bounded",
                           bounds=(g[max(i - 1, 0)], g[min(i + 1, len(g) - 1)]),
                           options={"xatol": 1e-12})
    if fine.fun < dense[i]:
        return float(fine.fun), float(fine.x)
    return float(dense[i]), float(g[i])


def _key_beta(cap: float, key: float, dd: float) -> float:
    """Largest beta in (0, 1] with sqrt2 * beta * key / dd <= cap."""
    if key <= 0 or SQRT2 * key <= cap * dd:
        return 1.0
    return cap * dd / (SQRT2 * key)


def _lp_modes(d: Dmc, unit: str, fixed_x3: int | None):
    """(prof, coef, xs, lam, x, cols): the divergence profile, the chi2
    coefficients, the x3 symbols the warden's support allows, and the
    starting one-hot modes (lam, x) with their columns.  None where the
    LP gives no plan: non-finite divergences, or r2 unbounded (a mode
    with N2 > 0 the warden cannot see)."""
    prof = divergence_profile(d, unit)
    coef = _chi2_coefficients(d)
    xs = [x for x in (range(d.x3_size) if fixed_x3 is None else (fixed_x3,))
          if math.isfinite(coef[0, x])]
    divs = np.array([prof.d_y1, prof.d_y2, prof.d_zy1, prof.d_zy2])[:, xs]
    if not xs or not np.isfinite(divs).all():
        return None
    lam = np.tile(np.linspace(0.0, 1.0, _LP_GRID), len(xs))
    x = np.repeat(xs, _LP_GRID)
    cols = _mode_columns(prof, coef, lam, x)
    # A mode the warden cannot see (chi2 = 0) gets no time share; with
    # N2 > 0 it would make r2 unbounded.
    unseen = cols[0] == 0
    if np.any(unseen & (cols[2] > 0)):
        return None
    return (prof, coef, xs, lam[~unseen], x[~unseen],
            tuple(c[~unseen] for c in cols))


def _with_betas(d: Dmc, plan: PhasePlan, cons: Constraints, unit: str):
    """(plan, rates) with beta1, beta2 set from the plan's own numerators:
    the smallest beta1 that meets r1_min (or the largest under the k1 cap
    when r1_min = 0) and the largest beta2 under the k2 cap; None when a
    beta would be 0 or the plan misses a cap by more than _FEAS_SLACK."""
    num, key, dsq, _ = _plan_quantities(d, plan, unit)
    dd = math.sqrt(dsq)
    if cons.r1_min > 0:                 # the smallest beta1 that meets r1_min
        b1 = min(1.0, cons.r1_min * dd / (SQRT2 * num[0]))
    else:
        b1 = _key_beta(cons.k1_max, key[0], dd)
    b2 = _key_beta(cons.k2_max, key[1], dd)
    if not (b1 > 0 and b2 > 0):
        return None
    plan = replace(plan, beta1=float(b1), beta2=float(b2))
    rt = rate_tuple(d, plan, unit)
    if not _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons):
        return None
    return plan, rt


def _lp_max_r2(d: Dmc, cons: Constraints, unit: str, fixed_x3: int | None,
               max_phases: int):
    """(plan, rates) maximizing r2 at R3 = 0, by column generation on the
    Charnes-Cooper LP, or None where the LP gives no plan (see _lp_modes)
    or needs more phases than ``max_phases``.  Raises InfeasibleError when
    the LP is infeasible."""
    modes = _lp_modes(d, unit, fixed_x3)
    if modes is None:
        return None
    prof, coef, xs, lam, x, cols = modes
    # no mode carries user 2: r2 = 0, so normalize D = 1 instead of N2 = 1
    user2 = bool(np.any(cols[2] > 0))
    for rnd in range(_LP_MAX_ROUNDS):
        res = _lp_solve(cols, cons, cols[2] if user2 else cols[0])
        if res.status == 2:
            raise InfeasibleError(f"no plan meets {cons}", cons)
        if res.status != 0:
            return None
        if not user2 or rnd == _LP_MAX_ROUNDS - 1:
            break
        new_lam, new_x = [], []
        for xx in xs:
            val, l = _price(prof, coef, cons, res, xx)
            if val < -_LP_RC_TOL and not np.any((x == xx)
                                                & (np.abs(lam - l) <= 1e-12)):
                new_lam.append(l)
                new_x.append(xx)
        if not new_x:
            break
        new_lam, new_x = np.array(new_lam), np.array(new_x)
        new_cols = _mode_columns(prof, coef, new_lam, new_x)
        if np.any(new_cols[0] == 0):
            return None
        lam, x = np.append(lam, new_lam), np.append(x, new_x)
        cols = tuple(np.append(c, n) for c, n in zip(cols, new_cols))
    # Modes at one x3 merge into one phase at their mass-weighted lam: the
    # numerators are linear in (v, v lam) and sqrt(chi2) is convex in lam,
    # so the merged phase keeps every numerator and does not raise D.
    v = res.x[:-1]
    on = v > 1e-12 * v.max()
    x_on = np.unique(x[on])
    if len(x_on) > max_phases:
        return None
    mass = np.array([v[on & (x == xx)].sum() for xx in x_on])
    lam_on = np.array([v[on & (x == xx)] @ lam[on & (x == xx)]
                       for xx in x_on]) / mass
    lam_on = np.clip(lam_on, 0.0, 1.0)
    w = mass * _mode_columns(prof, coef, lam_on, x_on)[0]
    if not np.all(w > 0):
        return None
    p = w / w.sum()                     # time shares p ~ v sqrt(chi2)
    a = mass / mass.sum() / p
    plan = PhasePlan(
        p_t=tuple(map(float, p)),
        p_x3_given_t=tuple(tuple(float(i == xx) for i in range(d.x3_size))
                           for xx in x_on),
        rho1=tuple(map(float, lam_on * a)),
        rho2=tuple(map(float, (1.0 - lam_on) * a)))
    return _with_betas(d, plan, cons, unit)


# ---------------------------------------------------------------------------
# R3_min > 0: a column-generated LP over phases (lam, q, a)


_R3_SCAN = 201           # lam points of the pricing scan, q points at x3_size 2
_R3_SCAN_Q = 500         # most laws of the scan's simplex lattice
_R3_SEED_Q = (10, 15)    # seed lattice: most steps per unit, most laws
_R3_ZOOM = 6             # local refinements of a scan minimum, 10x finer each
_R3_BLOCK = 40           # lam rows of the scan priced at a time
_R3_STARTS = 4           # scan minima refined per round
_R3_APART = 0.05         # least (lam, q) max-norm distance between them
_R3_U_MAX = 1e3          # cap on a sqrt(chi2) of a priced column
_R3_S_TOL = 1e-12        # Dinkelbach stops once max s is below this
_R3_MAX_ROUNDS = 300
_R3_MERGE = 1e-3         # support q rows this close (max-norm) share a phase


def _xlogx(v):
    return np.where(v > 0, v * np.log(np.where(v > 0, v, 1.0)), 0.0)


def _simplex_grid(k: int, res: int, most: int):
    """(laws, 1/r): every law over k symbols with probabilities in
    multiples of 1/r, for the largest r <= res that gives at most ``most``
    laws."""
    while res > 1 and math.comb(res + k - 1, k - 1) > most:
        res -= 1
    rows = []
    for bars in itertools.combinations(range(res + k - 1), k - 1):
        edges = (-1,) + bars + (res + k - 1,)
        rows.append([edges[i + 1] - edges[i] - 1 for i in range(k)])
    return np.array(rows, dtype=float) / res, 1.0 / res


def _q_neighbours(q, h: float) -> np.ndarray:
    """q and the laws up to h away along each direction e_i - e_j."""
    out = [q]
    for i, j in itertools.permutations(range(len(q)), 2):
        if min(h, q[j]) > 0:
            s = np.linspace(0.0, min(h, q[j]), 11)[1:, None]
            out.extend(q + s * (np.eye(len(q))[i] - np.eye(len(q))[j]))
    return np.array(out)


class _PhaseTerms:
    """Terms of phase columns (lam, q, a) on one channel.

    A column is a phase of time p, x3 law q and covert density a, with
    rho1 = a lam and rho2 = a (1 - lam).  It adds p a n1, p a n2, p a key1,
    p a key2 to the numerators, p a^2 chi to G = D^2 and p I(q) to R3.
    Symbols where the warden's support is violated get zero divergences;
    a law that sends them can only be silent.
    """

    def __init__(self, d: Dmc, unit: str, prof, coef):
        self.ok = np.isfinite(coef[0])
        self.divs = np.where(self.ok, np.array([prof.d_y1, prof.d_y2,
                                                prof.d_zy1, prof.d_zy2]), 0.0)
        self.coef = np.where(self.ok, coef, 0.0)
        self.sub = np.array([d.row(SIDE_Y, 0, 0, x) for x in range(d.x3_size)])
        self.neg_h = _xlogx(self.sub).sum(axis=1)
        self.fac = unit_factor(unit)

    def laws(self, q):
        """Per law (rows of q): q . divergences, q . (A, B, C), I(q) and
        whether covert use is allowed."""
        info = q @ self.neg_h - _xlogx(q @ self.sub).sum(axis=1)
        return (self.divs @ q.T, self.coef @ q.T,
                np.maximum(info, 0.0) / self.fac, q[:, ~self.ok].sum(axis=1) == 0)

    @staticmethod
    def terms(lam, laws):
        """(n1, n2, key1, key2, chi, info, covert) with lam broadcast
        against ``laws`` (from .laws); covert is False where chi = 0."""
        dq, cq, info, ok = laws
        chi = (lam * lam * cq[0] + 2.0 * lam * (1.0 - lam) * cq[1]
               + (1.0 - lam) ** 2 * cq[2])
        return (lam * dq[0], (1.0 - lam) * dq[1], lam * dq[2],
                (1.0 - lam) * dq[3], chi, info, ok & (chi > 0))


def _r3_rows(cons: Constraints, z: float, c2: float, t):
    """Inequality rows of the LP at Dinkelbach level z, one tuple
    (const, lin, quad, s, e, rhs) per row: column (lam, q, a) enters with
    const + a lin + a^2 quad, s is maximized and e is the phase-1 slack.

    Rates are scale-free, so G <= 1 normalizes D.  beta1 drops out as in
    _lp_rows.  At G = 1, r2 = min(sqrt2 N2, k2_max N2 / K2), so s is
    bounded by sqrt2 N2 - z and (k2_max N2 - z K2) / c2, with c2 > 0 the
    K2 of the previous LP point (K2 <= 0 at k2_max = 0).
    """
    n1, n2, key1, key2, chi, info, _ = t
    rows = [(0.0, 0.0, chi, 0.0, 0.0, 1.0)]
    if cons.r1_min > 0:
        rows.append((0.0, -SQRT2 * n1, 0.0, 0.0, -1.0, -cons.r1_min))
    if cons.r1_min > 0 and math.isfinite(cons.k1_max):
        rows.append((0.0, cons.r1_min * key1 - cons.k1_max * n1, 0.0, 0.0,
                     -1.0, 0.0))
    elif cons.k1_max == 0:
        rows.append((0.0, key1, 0.0, 0.0, -1.0, 0.0))
    rows.append((-info, 0.0, 0.0, 0.0, -1.0, -cons.R3_min))
    rows.append((0.0, -SQRT2 * n2, 0.0, 1.0, 0.0, -z))
    if cons.k2_max == 0:
        rows.append((0.0, key2, 0.0, 0.0, -1.0, 0.0))
    elif math.isfinite(cons.k2_max):
        rows.append((0.0, (z * key2 - cons.k2_max * n2) / c2, 0.0, 1.0, 0.0,
                     0.0))
    return rows


def _r3_solve(t, a, cons: Constraints, z: float, c2: float, phase1: bool):
    """HiGHS optimum over (p >= 0, s, e) with sum p = 1: max s with e = 0,
    or in phase 1 min e."""
    rows = _r3_rows(cons, z, c2, t)
    n = len(a)
    a_ub = np.zeros((len(rows), n + 2))
    for i, (const, lin, quad, s, e, _) in enumerate(rows):
        a_ub[i, :n] = const + a * lin + a * a * quad
        a_ub[i, n:] = s, e
    cost = np.zeros(n + 2)
    cost[n + 1 if phase1 else n] = 1.0 if phase1 else -1.0
    return linprog(cost, A_ub=a_ub, b_ub=[r[5] for r in rows],
                   A_eq=np.append(np.ones(n), [0.0, 0.0])[None, :], b_eq=[1.0],
                   bounds=[(0, None)] * n + [(None, None),
                                             (0, None if phase1 else 0)],
                   method="highs", options=_LP_OPTIONS)


def _r3_price(res, cons: Constraints, z: float, c2: float, t):
    """(reduced cost, a) of the cheapest column at each (lam, law) of the
    terms t under the duals of ``res``.  The reduced cost is
    beta + alpha a + gamma a^2 with gamma >= 0, so a = -alpha / (2 gamma)
    (capped) when alpha < 0.  Every row is linear in the terms (n1, n2,
    key1, key2, chi, info), so the rows at unit terms give the
    coefficients of beta, alpha and gamma."""
    unit = _r3_rows(cons, z, c2, tuple(np.eye(6)) + (None,))
    parts = []
    for k in range(3):                               # const, lin, quad
        coef = -sum(y * np.broadcast_to(r[k], 6)
                    for y, r in zip(res.ineqlin.marginals, unit))
        parts.append(sum((c * v for c, v in zip(coef, t[:6]) if c != 0),
                         np.float64(0.0)))
    beta, alpha, gamma = parts
    beta = beta - res.eqlin.marginals[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(gamma > 0, -alpha / (2.0 * gamma), math.inf)
        a = np.where(t[6] & (alpha < 0),
                     np.minimum(a, _R3_U_MAX / np.sqrt(t[4])), 0.0)
    return beta + alpha * a + gamma * a * a, a


def _r3_columns(res, cons: Constraints, z: float, c2: float,
                tab: _PhaseTerms, scan):
    """[(reduced cost, lam, q, a)] of cheap columns: up to _R3_STARTS scan
    minima at least _R3_APART apart, each refined by _R3_ZOOM local grids
    of 21 lam points by q and its neighbours, all starts in one batch."""
    lam, q, laws, h = scan
    rc, a = np.empty((2, len(lam), len(q)))
    for b in range(0, len(lam), _R3_BLOCK):          # bounds the temporaries
        rc[b:b + _R3_BLOCK], a[b:b + _R3_BLOCK] = _r3_price(
            res, cons, z, c2, _PhaseTerms.terms(lam[b:b + _R3_BLOCK, None],
                                                laws))
    found = []
    for _ in range(_R3_STARTS):
        i, j = np.unravel_index(np.argmin(rc), rc.shape)
        found.append((float(rc[i, j]), float(lam[i]), q[j], float(a[i, j])))
        rc[(np.abs(lam - lam[i]) < _R3_APART)[:, None]
           & (np.abs(q - q[j]).max(axis=1) < _R3_APART)[None, :]] = math.inf
    h_lam = 1.0 / (len(lam) - 1)
    for _ in range(_R3_ZOOM):
        lam_loc = np.array([np.linspace(max(0.0, f[1] - h_lam),
                                        min(1.0, f[1] + h_lam), 21)
                            for f in found])
        q_loc = [_q_neighbours(f[2], h) for f in found]
        m = max(len(x) for x in q_loc)      # pad with copies of the centre
        q_loc = np.array([np.vstack([x] + [x[:1]] * (m - len(x)))
                          for x in q_loc])
        shape = (len(found), 1, m)
        laws = [v.reshape(v.shape[:-1] + shape)
                for v in tab.laws(q_loc.reshape(-1, q.shape[1]))]
        rc, a = _r3_price(res, cons, z, c2,
                          _PhaseTerms.terms(lam_loc[:, :, None], laws))
        for s, f in enumerate(found):
            k, n = np.unravel_index(np.argmin(rc[s]), rc[s].shape)
            if rc[s, k, n] < f[0]:
                found[s] = (float(rc[s, k, n]), float(lam_loc[s, k]),
                            q_loc[s, n], float(a[s, k, n]))
        h_lam, h = h_lam / 10.0, h / 10.0
    return found


def _r3_point(t, a, p, cons: Constraints):
    """(r2, K2) of the LP point p with its densities scaled to G = 1."""
    n2, key2, g = p @ (a * t[1]), p @ (a * t[3]), p @ (a * a * t[4])
    if n2 <= 0 or g <= 0:
        return 0.0, 0.0
    r2 = SQRT2 * n2 / math.sqrt(g)
    if key2 > 0:
        r2 = min(r2, cons.k2_max * n2 / key2)
    return r2, key2 / math.sqrt(g)


def _r3_generate(tab: _PhaseTerms, cons: Constraints, scan, lam, q, a):
    """Column generation from the columns (lam, q, a), pricing over
    ``scan``: (p, lam, q, a, bound) of the last LP solved at a level z with
    its columns priced.  None when HiGHS fails before that; raises
    InfeasibleError when no columns meet the constraints.

    z moves to the r2 of each LP point (Crouzeix, Ferland and Schaible,
    1985, with the k2 row scaled by the point's K2 for superlinear
    convergence) until max s <= _R3_S_TOL and no reduced cost is below
    -_LP_RC_TOL.  ``bound`` >= r2 over all columns: with sum p = 1, the
    LP's s plus the most negative reduced cost bounds max s over all
    columns, and max s >= (r2* - z) min(1, k2_max / (sqrt2 c2)).
    """
    z, c2 = 0.0, 1.0
    phase1 = was_phase1 = False
    last = None
    for _ in range(_R3_MAX_ROUNDS):
        t = _PhaseTerms.terms(lam, tab.laws(q))
        res = _r3_solve(t, a, cons, z, c2, phase1)
        if res.status == 2 and not was_phase1:
            phase1 = was_phase1 = True      # find a feasible column set first
            continue
        if res.status != 0:
            break
        if phase1 and res.fun <= _R3_S_TOL:
            phase1 = False
            continue
        cols = _r3_columns(res, cons, z, c2, tab, scan)
        new = [c for c in cols if c[0] < -_LP_RC_TOL and not np.any(
            (np.abs(lam - c[1]) <= 1e-12) & (np.abs(a - c[3]) <= 1e-12 * c[3])
            & (np.abs(q - c[2]).max(axis=1) <= 1e-12))]
        if phase1 and not new:
            raise InfeasibleError(f"no plan meets {cons}", cons)
        if not phase1:
            rc = min([c[0] for c in cols], default=0.0)
            w = min(1.0, cons.k2_max / (SQRT2 * c2)) if cons.k2_max > 0 else 1.0
            last = (res.x[:-2], len(a),
                    z + max(0.0, res.x[-2] + max(0.0, -rc)) / w)
            if not new and res.x[-2] <= _R3_S_TOL:
                break
            r2, key2 = _r3_point(t, a, res.x[:-2], cons)
            if r2 > z:
                z, c2 = r2, (key2 if key2 > 0 else 1.0)
        lam = np.append(lam, [c[1] for c in new])
        q = np.vstack([q] + [c[2] for c in new])
        a = np.append(a, [c[3] for c in new])
    if last is None:
        return None
    p, n, bound = last
    return p, lam[:n], q[:n], a[:n], bound


def _r3_groups(p, q, tol: float) -> list:
    """Support columns of p grouped by law: within ``tol`` (max-norm) of
    the group's first column, in column order."""
    groups = []
    for j in np.flatnonzero(p > 1e-12 * p.max()):
        for g in groups:
            if np.abs(q[j] - q[g[0]]).max() <= tol:
                g.append(j)
                break
        else:
            groups.append([j])
    return groups


def _lp_max_r2_r3(d: Dmc, cons: Constraints, unit: str, max_phases: int):
    """(plan, rates, bound) maximizing r2 at R3_min > 0, or None where the
    LP gives no plan (see _lp_modes) or its support needs more than
    ``max_phases`` laws.  Raises InfeasibleError when the LP is infeasible.

    Column j = (lam, q, a) is a phase with time share p_j, the only LP
    variable: N1, N2, K1, K2, G and R3 are all linear in p.  Columns come
    from Dantzig-Wolfe / Gilmore-Gomory pricing (_r3_generate), which scans
    a (lam, q) grid and refines its minima locally.  At x3_size 2 the scan
    covers the whole 2-D domain; at x3_size >= 3 it is a heuristic over a
    simplex lattice.  ``bound`` is an upper bound on r2 over all plans, up
    to that pricing accuracy.

    Support columns with laws within _R3_MERGE form one phase.  A second
    generation, over lam only at each group's time-weighted law, makes the
    columns of a phase share one law; they then merge into one phase at
    their mass-weighted lam.  The numerators are linear in
    (p a lam, p a (1 - lam)) and G is convex in (rho1, rho2), so the merge
    keeps every numerator and does not raise G.
    """
    modes = _lp_modes(d, unit, None)
    if modes is None:
        return None
    tab = _PhaseTerms(d, unit, *modes[:2])
    k = d.x3_size
    cap, q_cap = capacity_x3(d, unit=unit)
    if cons.R3_min >= cap:    # only the capacity-achieving law can meet it
        scan_q, step = q_cap[None, :], 0.0
    else:
        scan_q, step = _simplex_grid(k, _R3_SCAN - 1, _R3_SCAN_Q)
    scan_lam = np.linspace(0.0, 1.0, _R3_SCAN)
    scan = (scan_lam, scan_q, tab.laws(scan_q), step)
    # seed: silent time and a coarse (lam, q) grid at a sqrt(chi2) = 1 on
    # a q lattice plus the capacity-achieving law
    seed_q = np.vstack([_simplex_grid(k, *_R3_SEED_Q)[0], q_cap])
    seed_lam = np.linspace(0.0, 1.0, 5)
    t = _PhaseTerms.terms(seed_lam[:, None], tab.laws(seed_q))
    covert = t[6].ravel()
    lam = np.concatenate([np.zeros(len(seed_q)),
                          np.repeat(seed_lam, len(seed_q))[covert]])
    q = np.vstack([seed_q, np.tile(seed_q, (len(seed_lam), 1))[covert]])
    a = np.concatenate([np.zeros(len(seed_q)),
                        1.0 / np.sqrt(t[4].ravel()[covert])])
    found = _r3_generate(tab, cons, scan, lam, q, a)
    if found is None:
        return None
    p, lam, q, a, bound = found
    groups = _r3_groups(p, q, _R3_MERGE)
    if len(groups) > max_phases:
        return None
    # Polish: move each support column to its group's time-weighted law and
    # generate columns over lam at those laws only, so that the columns of
    # a phase share one law and merge exactly.
    laws = np.array([p[g] @ q[g] / p[g].sum() for g in groups])
    sup = np.concatenate(groups)
    at = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    try:
        found = _r3_generate(
            tab, cons, (scan_lam, laws, tab.laws(laws), 0.0),
            np.append(lam[sup], np.zeros(len(laws))),
            np.vstack([laws[at], laws]), np.append(a[sup], np.zeros(len(laws))))
    except InfeasibleError:
        return None
    if found is None:
        return None
    p, lam, q, a = found[:4]
    groups = _r3_groups(p, q, 0.0)
    time = np.array([p[g].sum() for g in groups])
    plan = PhasePlan(
        p_t=tuple(map(float, time / time.sum())),
        p_x3_given_t=tuple(tuple(map(float, q[g[0]])) for g in groups),
        rho1=tuple(float(p[g] @ (a * lam)[g] / tg)
                   for g, tg in zip(groups, time)),
        rho2=tuple(float(p[g] @ (a * (1.0 - lam))[g] / tg)
                   for g, tg in zip(groups, time)))
    found = _with_betas(d, plan, cons, unit)
    return None if found is None else (*found, bound)


def max_r2(d: Dmc, constraints: Constraints, budget: OptBudget = OptBudget(),
           unit: str = DEFAULT_UNIT, x3_mode="optimize",
           warm_starts: tuple = ()) -> tuple[PhasePlan, RateTuple]:
    """Feasible plan maximizing r2, with its rate tuple.

    At ``R3_min == 0`` the problem is a linear-fractional program over
    one-hot modes (lam, x3); it is solved as a Charnes-Cooper LP (HiGHS)
    whose lam grid is refined by column generation.  The modes at each x3
    merge into one phase, so the plan has at most one phase per x3 symbol
    and a single one in fix mode.

    At ``R3_min > 0`` (optimize mode only: a fixed x3 symbol carries no R3,
    so fix mode raises InfeasibleError at once) the LP is over phases
    (lam, q, a) and their time shares, generated by pricing until no
    reduced cost is negative; see _lp_max_r2_r3.  At x3_size 2 the pricing
    covers the whole (lam, q) domain and the LP's upper bound certifies the
    plan (to within 1e-8 on every channel tried); at x3_size >= 3 the
    pricing is a heuristic lattice search.  Support phases with nearby x3
    laws merge, so the plan has one phase per distinct law.

    On both LP paths the ``restarts``, ``max_iter``, ``seed`` and
    ``workers`` fields of ``budget`` and ``warm_starts`` are unused.
    Multi-start Nelder-Mead runs instead when the LP optimum needs more
    than ``budget.max_phases`` phases and when the LP cannot bound r2 (at
    R3_min > 0 with the R3 = 0 LP plan as one more warm start).  It is
    deterministic given ``budget.seed``: starts come from a scrambled
    Halton sequence and results are reduced by (value, canonical plan key),
    so the outcome does not depend on scheduling or worker count.

    Raises InfeasibleError when the LP is infeasible or no start lands in
    the feasible set.
    """
    fixed_x3 = None
    if x3_mode != "optimize":
        _, fixed_x3 = x3_mode
        if not 0 <= fixed_x3 < d.x3_size:
            raise ValueError(f"fixed x3 {fixed_x3} out of range")
    max_phases = min(budget.max_phases, MAX_PHASES)
    if constraints.R3_min == 0:
        found = _lp_max_r2(d, constraints, unit, fixed_x3, max_phases)
        if found is not None:
            return found
    elif fixed_x3 is not None:
        raise InfeasibleError(f"a fixed x3 symbol carries no R3: no plan "
                              f"meets {constraints}", constraints)
    else:
        found = _lp_max_r2_r3(d, constraints, unit, max_phases)
        if found is not None:
            return found[:2]
        try:
            found = _lp_max_r2(d, replace(constraints, R3_min=0.0), unit,
                               fixed_x3, max_phases)
        except InfeasibleError:
            found = None
        keys = [plan.canonical_key() for plan in warm_starts]
        if found is not None and found[0].canonical_key() not in keys:
            warm_starts = tuple(warm_starts) + (found[0],)
    taus = list(range(1, max_phases + 1))
    tasks = []
    # low phase counts get the larger share of random restarts
    weights = np.array([1.0 / t for t in taus])
    shares = np.maximum(4, np.round(budget.restarts * weights / weights.sum()))
    for tau, share in zip(taus, shares):
        space = _PlanSpace(d, unit, tau, fixed_x3)
        halton = qmc.Halton(d=space.dim, scramble=True,
                            seed=np.random.default_rng((budget.seed, tau)))
        starts = list(0.02 + 0.96 * halton.random(int(share)))
        starts += _structured_starts(space)
        for plan in warm_starts:
            theta = _plan_to_theta(space, plan)
            if theta is not None:
                starts.append(theta)
        for s in starts:
            tasks.append((d, unit, tau, fixed_x3, constraints, s, budget.max_iter))
    workers = min(budget.workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_search_one, tasks, chunksize=4))
    else:
        results = [_search_one(t) for t in tasks]
    best = None
    for res in results:
        if res is None:
            continue
        val, plan = res
        key = (round(val, 12), plan.canonical_key())
        if best is None or key > best[0]:
            best = (key, plan)
    if best is None:
        raise InfeasibleError(
            f"no feasible plan found within budget for {constraints}",
            constraints)
    # one more polishing pass from the incumbent
    space = _PlanSpace(d, unit, best[1].tau, fixed_x3)
    theta = _plan_to_theta(space, best[1])
    polished = _search_one((d, unit, best[1].tau, fixed_x3, constraints,
                            theta, budget.max_iter))
    if polished is not None:
        val, plan = polished
        key = (round(val, 12), plan.canonical_key())
        if key > best[0]:
            best = (key, plan)
    plan = best[1]
    return plan, rate_tuple(d, plan, unit)


def _pareto(points):
    """Sort by R3, enforce non-increasing r2, drop dominated duplicates."""
    pts = sorted(points, key=lambda p: p[1])
    best = -math.inf
    out = []
    for r2, r3 in reversed(pts):     # descending R3: running max of r2
        best = max(best, r2)
        out.append((best, r3))
    out.reverse()
    filtered = []
    for i, (r2, r3) in enumerate(out):
        if i + 1 < len(out) and out[i + 1][0] == r2:
            continue                 # same r2 at higher R3 dominates this one
        filtered.append((r2, r3))
    return filtered


def trace_r2_R3(d: Dmc, r1_fixed: float, k1_max: float, k2_max: float,
                grid, budget: OptBudget = OptBudget(),
                unit: str = DEFAULT_UNIT):
    """Boundary points (r2, R3): max r2 with R3_min swept over ``grid``."""
    cap, _ = capacity_x3(d, unit=unit)
    grid = sorted(float(g) for g in grid)
    if not grid or not all(-1e-12 <= g <= cap + 1e-9 for g in grid):
        raise ValueError(f"R3 grid must be non-empty and lie within "
                         f"[0, capacity={cap:.6f}]")
    pts = []
    warm = ()
    for target in grid:
        cons = Constraints(r1_min=r1_fixed, R3_min=min(target, cap),
                           k1_max=k1_max, k2_max=k2_max)
        plan, rt = max_r2(d, cons, budget, unit, warm_starts=warm)
        warm = (plan,)
        pts.append((rt.r2, target))
    return _pareto(pts)


def curve_r2_vs_k2(d: Dmc, r1_fixed: float, k1_max: float, k2_grid,
                   x3_mode="optimize", budget: OptBudget = OptBudget(),
                   unit: str = DEFAULT_UNIT):
    """Curve points (k2, r2): max r2 with the user-2 key rate capped."""
    k2_grid = sorted(float(v) for v in k2_grid)
    if not k2_grid or not all(k2 >= 0 for k2 in k2_grid):
        raise ValueError("k2 grid must be non-empty and non-negative")
    pts = []
    warm = ()
    for k2 in k2_grid:
        cons = Constraints(r1_min=r1_fixed, k1_max=k1_max, k2_max=k2)
        plan, rt = max_r2(d, cons, budget, unit, x3_mode=x3_mode,
                          warm_starts=warm)
        warm = (plan,)
        pts.append((k2, rt.r2))
    return pts
