"""Asymptotic rate/key tuples over multi-phase coding plans, finite-blocklength
sizing, and boundary tracing: a linear program at R3 = 0, multi-start direct
search otherwise.

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
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linprog, minimize, minimize_scalar
from scipy.stats import qmc

from .channel import Dmc, SIDE_Y
from .infotheory import (DEFAULT_UNIT, chi_square, divergence_profile,
                         mutual_info_x3, unit_factor)

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
        if min(self.r1_min, self.R3_min) < 0 or min(self.k1_max, self.k2_max) < 0:
            raise ValueError("constraints must be non-negative")


@dataclass(frozen=True)
class OptBudget:
    restarts: int = 64
    max_iter: int = 4000
    seed: int = 0
    max_phases: int = MAX_PHASES
    workers: int = 1


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


def _lp_max_r2(d: Dmc, cons: Constraints, unit: str, fixed_x3: int | None,
               max_phases: int):
    """(plan, rates) maximizing r2 at R3 = 0, by column generation on the
    Charnes-Cooper LP, or None where the LP gives no plan: non-finite
    divergences, r2 unbounded (a mode with N2 > 0 the warden cannot see),
    or more phases than ``max_phases``.  Raises InfeasibleError when the LP
    is infeasible."""
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
    lam, x = lam[~unseen], x[~unseen]
    cols = tuple(c[~unseen] for c in cols)
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


def max_r2(d: Dmc, constraints: Constraints, budget: OptBudget = OptBudget(),
           unit: str = DEFAULT_UNIT, x3_mode="optimize",
           warm_starts: tuple = ()) -> tuple[PhasePlan, RateTuple]:
    """Feasible plan maximizing r2, with its rate tuple.

    At ``R3_min == 0`` the problem is a linear-fractional program over
    one-hot modes (lam, x3); it is solved as a Charnes-Cooper LP (HiGHS)
    whose lam grid is refined by column generation.  The modes at each x3
    merge into one phase, so the plan has at most one phase per x3 symbol
    and a single one in fix mode.  The ``restarts``, ``max_iter``, ``seed``
    and ``workers`` fields of ``budget`` and ``warm_starts`` are then unused.

    Multi-start Nelder-Mead runs instead when ``R3_min > 0`` (with the
    R3 = 0 LP plan as one more warm start), when the LP optimum needs more
    than ``budget.max_phases`` phases, and when the LP cannot bound r2.
    It is deterministic given ``budget.seed``: starts come from a scrambled
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
    max_phases = max(1, min(budget.max_phases, MAX_PHASES))
    if constraints.R3_min == 0:
        found = _lp_max_r2(d, constraints, unit, fixed_x3, max_phases)
        if found is not None:
            return found
    else:
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
    from .infotheory import capacity_x3
    cap, _ = capacity_x3(d, unit=unit)
    grid = sorted(float(g) for g in grid)
    if grid and (grid[0] < -1e-12 or grid[-1] > cap + 1e-9):
        raise ValueError(f"R3 grid must lie within [0, capacity={cap:.6f}]")
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
    pts = []
    warm = ()
    for k2 in sorted(float(v) for v in k2_grid):
        if k2 < 0:
            raise ValueError("k2 grid must be non-negative")
        cons = Constraints(r1_min=r1_fixed, k1_max=k1_max, k2_max=k2)
        plan, rt = max_r2(d, cons, budget, unit, x3_mode=x3_mode,
                          warm_starts=warm)
        warm = (plan,)
        pts.append((k2, rt.r2))
    return pts
