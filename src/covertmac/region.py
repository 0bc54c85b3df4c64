"""Asymptotic rate/key tuples over multi-phase coding plans, finite-blocklength
sizing, and boundary tracing by column-generated linear programs, with a
closed-form single-phase search where a plan must have one phase.

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
generation refines by exact pricing (a quadratic in lam per x3); where no
plan has N2 > 0 (k2_max = 0, say), D = 1 instead gives r2 = 0.  With x3
pinned (fix mode) all modes merge into one phase, solved as below.

At R3 > 0 the time shares matter (R3 = sum p I(q)), so the columns are
whole phases (lam, q, a), a = rho1 + rho2, and the only LP variables are
p, beta2 times their time shares (Charnes-Cooper again): the numerators,
G = D^2 and R3 are all linear in p.  Normalizing G <= sum p <= 1 makes
r2 = sqrt2 N2 and k2 = sqrt2 K2, so each column set is one LP, max sqrt2
N2 under homogeneous rows and the k2 cap.  Every row is linear in seven
terms of a column, (n1, n2, key1, key2, chi, info, 1), so a solve prices
from one table of its rows at the unit terms, as the mode LP does from
its five mode terms.  A new column's lam and a minimize its reduced cost
in closed form at each law q, so pricing is a search over laws alone
(_best_laws: a pattern search from the best points of a lattice, its
peaks in pricing), shared with the single phase, whose r2 is closed form
in lam at each law too.  That search is local, so the LP's upper bound
on r2 is measured, not proven.  A polish, priced at the
plan's laws alone, merges the columns of each law into one phase.

A PhasePlan checks itself when it is made; an evaluation checks only that
its x3 alphabet is the channel's.  A plan becomes numbers here only: the
methods of its _evaluate record give the rates, sizing, thresholds and
divergence predictor, which weight phase t by p_t, and _codeword_densities
gives the simulator's codeword density rho_t omega_n / sqrt(n_t), which
does not.  One-phase plans agree under both; on the tests' two-phase
REF_PLAN the ensemble's warden divergence is about 1.98 times the
predictor.

Every evaluator reads its channel terms (divergence_profile, chi2, I(X3; Y),
capacity) from infotheory's _ChannelTerms table, one per (Dmc, unit), which
the public measures of infotheory read too.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channel import Dmc, _is_number
from .infotheory import (DEFAULT_UNIT, _channel_terms, _ChannelTerms,
                         unit_factor)

MAX_PHASES = 6
SQRT2 = math.sqrt(2.0)


class InfeasibleError(Exception):
    """No plan meets the constraints."""


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

    def __post_init__(self):
        """Every check a plan must pass; a ValueError names the field at
        fault."""
        tau = self.tau
        if not 1 <= tau <= MAX_PHASES:
            raise ValueError(f"tau must be in [1, {MAX_PHASES}], got {tau}")
        for name in ("p_x3_given_t", "rho1", "rho2"):
            if len(getattr(self, name)) != tau:
                raise ValueError(f"{name} must have one entry per phase")
        k = len(self.p_x3_given_t[0])
        if any(len(q) != k for q in self.p_x3_given_t):
            raise ValueError(f"p_x3_given_t rows must have length {k}")
        for name in ("p_t", "p_x3_given_t", "rho1", "rho2"):
            if not np.isfinite(np.array(getattr(self, name), float)).all():
                raise ValueError(f"{name} has a non-finite entry")
        if abs(sum(self.p_t) - 1.0) > 1e-12 or min(self.p_t) < 0:
            raise ValueError("p_t must be a distribution (sum 1 within 1e-12)")
        for q in self.p_x3_given_t:
            if abs(sum(q) - 1.0) > 1e-12 or min(q) < 0:
                raise ValueError("each p_x3_given_t row must be a distribution")
        if any(r < 0 for r in self.rho1) or any(r < 0 for r in self.rho2):
            raise ValueError("rho prefactors must be non-negative")
        for b in (self.beta1, self.beta2):
            if not 0 < b <= 1:
                raise ValueError("beta1, beta2 must lie in (0, 1]")

    def scaled(self, c: float) -> "PhasePlan":
        """Same plan with all rho's multiplied by c > 0 (rates unchanged)."""
        return replace(self, rho1=tuple(c * r for r in self.rho1),
                       rho2=tuple(c * r for r in self.rho2))

    def to_dict(self) -> dict:
        return {"p_t": list(self.p_t),
                "p_x3_given_t": [list(q) for q in self.p_x3_given_t],
                "rho1": list(self.rho1), "rho2": list(self.rho2),
                "beta1": self.beta1, "beta2": self.beta2}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    @classmethod
    def from_dict(cls, doc: dict) -> "PhasePlan":
        """The plan of a JSON document: an object with lists of numbers
        p_t, rho1 and rho2, a list of such lists p_x3_given_t, and optional
        numbers beta1 and beta2.  A ValueError names the key at fault."""
        if not isinstance(doc, dict):
            raise ValueError("a plan must be a JSON object")
        for key in ("p_t", "p_x3_given_t", "rho1", "rho2"):
            if key not in doc:
                raise ValueError(f"the plan lacks {key}")
        rows = doc["p_x3_given_t"]
        if not isinstance(rows, list):
            raise ValueError("p_x3_given_t must be a list of lists")
        for key in ("beta1", "beta2"):
            if not _is_number(doc.get(key, 1.0)):
                raise ValueError(f"{key} must be a number")
        return cls(p_t=_numbers(doc["p_t"], "p_t"),
                   p_x3_given_t=tuple(_numbers(q, "each p_x3_given_t row")
                                      for q in rows),
                   rho1=_numbers(doc["rho1"], "rho1"),
                   rho2=_numbers(doc["rho2"], "rho2"),
                   beta1=float(doc.get("beta1", 1.0)),
                   beta2=float(doc.get("beta2", 1.0)))

    @classmethod
    def single_phase(cls, p_x3, rho1: float, rho2: float,
                     beta1: float = 1.0, beta2: float = 1.0) -> "PhasePlan":
        return cls(p_t=(1.0,), p_x3_given_t=(tuple(p_x3),),
                   rho1=(rho1,), rho2=(rho2,), beta1=beta1, beta2=beta2)


def _numbers(value, key: str) -> tuple:
    """A list of JSON numbers as a tuple; else a ValueError naming key."""
    if not (isinstance(value, list) and all(map(_is_number, value))):
        raise ValueError(f"{key} must be a list of numbers")
    return tuple(value)


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


def _terms(lam, laws):
    """(n1, n2, key1, key2, chi, info, covert) of phase columns (lam, q, a)
    with lam broadcast against ``laws`` (_ChannelTerms.laws): a phase of
    time p, rho1 = a lam and rho2 = a (1 - lam) adds p a n1 to N1, ...,
    p a^2 chi to G = D^2 and p info to R3; covert is False where chi = 0."""
    dq, cq, info, ok = laws
    chi = (lam * lam * cq[0] + 2.0 * lam * (1.0 - lam) * cq[1]
           + (1.0 - lam) ** 2 * cq[2])
    return (lam * dq[0], (1.0 - lam) * dq[1], lam * dq[2],
            (1.0 - lam) * dq[3], chi, info, ok & (chi > 0))


def _plan_quantities(d: Dmc, plan: PhasePlan, unit: str):
    """(num1, num2, keynum1, keynum2, Dsq, R3) without beta/sqrt2; a plan
    over another x3 alphabet than d's raises ValueError.

    The table's kernels give every phase's I(q) and every (phase, x3)
    chi-square in a few array operations; the loop adds them up in the
    order of a per-phase, per-symbol sum, with one BLAS dot over the
    symbols a phase sends per (user, numerator)."""
    if len(plan.p_x3_given_t[0]) != d.x3_size:
        raise ValueError(f"p_x3_given_t rows must have length {d.x3_size}")
    q = np.array(plan.p_x3_given_t, dtype=float)
    rho = np.array((plan.rho1, plan.rho2), dtype=float)
    tab = _channel_terms(d, unit)
    info = tab.mutual_info(q)
    sent = q > 0
    # a silent phase adds nothing, so any mixture serves for its chi-square
    chi = tab.chi(*np.where(rho[0] + rho[1] == 0, 1.0, rho))
    # 0 * inf = 0 for symbols a phase never sends; a running sum over x3
    chi = np.add.accumulate(q * np.where(sent, chi, 0.0), axis=1)[:, -1]
    whole = sent.all(axis=1)
    nk = [0.0] * 4            # num1, num2, keynum1, keynum2
    dsq = r3 = 0.0
    for t, (pt, rho1, rho2) in enumerate(zip(plan.p_t, plan.rho1, plan.rho2)):
        r3 += pt * info[t]
        a = rho1 + rho2
        if a == 0 or pt == 0:
            continue
        # C-contiguous rows: BLAS may sum a strided row in another order
        qm, dm = (q[t], tab.div) if whole[t] else \
            (q[t][sent[t]], tab.div.compress(sent[t], axis=1))
        for i, r in enumerate((rho1, rho2) * 2):
            if r:          # a silent user adds nothing, not 0 * inf
                nk[i] += pt * r * float(qm @ dm[i])
        dsq += pt * a * a * chi[t]
    return nk[:2], nk[2:], float(dsq), r3


class _Evaluated(NamedTuple):
    """A plan evaluated in one unit by _plan_quantities, and the numbers
    each consumer makes of it."""
    plan: PhasePlan
    unit: str
    num: list
    key: list
    dsq: float
    r3: float

    def rates(self, betas=None) -> RateTuple:
        """rate_tuple, at ``betas`` in place of the plan's if given."""
        plan, unit, num, key, dsq, r3 = self
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
        betas = betas or (plan.beta1, plan.beta2)
        r1, r2 = (float(SQRT2 * b * n / dd) for b, n in zip(betas, num))
        k1, k2 = (float(max(0.0, SQRT2 * b * k / dd))
                  for b, k in zip(betas, key))
        return RateTuple(r1, r2, r3, k1, k2, unit)

    def sizing(self, n: int, omega_n: float, xi: tuple) -> Theorem1Sizing:
        """theorem1_sizing at xi and omega_n that passed _slack."""
        plan, unit, num, key, dsq, r3 = self
        phi_u1, phi_u2, swapped = _active_fractions(plan)
        bmax = max(plan.beta1, plan.beta2)
        root = omega_n * math.sqrt(n)
        return Theorem1Sizing(
            n=n, omega_n=omega_n, xi=xi, phi1=bmax ** 2,
            phi2=min(phi_u1, phi_u2), swapped=swapped,
            log_m1=phi_u1 * (1 - xi[0]) * root * num[0],
            log_m2=phi_u2 * (1 - xi[1]) * root * num[1],
            log_m3=(1 - xi[2]) * n * r3,
            log_k1=max(0.0, phi_u1 * (1 - xi[3]) * root * key[0]),
            log_k2=max(0.0, phi_u2 * (1 - xi[4]) * root * key[1]),
            divergence_bound=(bmax ** 2 * (1 + xi[5]) * omega_n ** 2 / 2
                              * dsq / unit_factor(unit)), unit=unit)

    def predictor(self, n: int, omega_n: float) -> float:
        """The warden bound beta_max^2 omega_n^2 / 2 * D^2 as the sizing's
        at xi = 0.1 over 1 + 0.1, bit for bit; omega_n must lie in (0, 1)."""
        sz = self.sizing(n, omega_n, _slack((0.1,) * 6, omega_n))
        return sz.divergence_bound / (1 + 0.1)

    def thresholds(self, n: int, omega_n: float, backoff: float) -> tuple:
        """(1 - backoff) * omega_n * sqrt(n) * num_l for l = 1, 2."""
        root = omega_n * math.sqrt(n)
        return tuple((1 - backoff) * root * v for v in self.num)


def _evaluate(d: Dmc, plan: PhasePlan, unit: str) -> _Evaluated:
    """The plan's _Evaluated record; ValueError for a plan whose x3
    alphabet is not d's."""
    return _Evaluated(plan, unit, *_plan_quantities(d, plan, unit))


def rate_tuple(d: Dmc, plan: PhasePlan, unit: str = DEFAULT_UNIT) -> RateTuple:
    """Evaluate the asymptotic rate/key tuple of a plan."""
    return _evaluate(d, plan, unit).rates()


def _active_fractions(plan: PhasePlan) -> tuple[float, float, bool]:
    """Per-user active fractions of each phase, from the rate parameters:
    user l is active for beta_l * beta_max, so the user with the larger beta
    takes the longer fraction beta_max^2.  True when beta2 > beta1 (user 2
    takes the longer role)."""
    bmax = max(plan.beta1, plan.beta2)
    return plan.beta1 * bmax, plan.beta2 * bmax, plan.beta2 > plan.beta1


def _codeword_densities(plan: PhasePlan, n_t, omega_n: float):
    """(_active_fractions, per user the active lengths floor(phi_l n_t),
    per user the densities rho_l,t omega_n / sqrt(n_t) clipped to 1, the
    clip warnings) of the covert codewords at phase lengths n_t."""
    fractions = _active_fractions(plan)
    active = tuple([int(math.floor(phi * nt)) for nt in n_t]
                   for phi in fractions[:2])
    dens, warnings = ([], []), []
    for t, nt in enumerate(n_t):
        for user, rho in enumerate((plan.rho1[t], plan.rho2[t])):
            p = rho * omega_n / math.sqrt(nt) if nt > 0 else 0.0
            if p > 1.0:
                warnings.append(
                    f"phase {t}: user-{user + 1} density {p:.3g} clipped to 1")
            dens[user].append(min(p, 1.0))
    return fractions, active, dens, warnings


def theorem1_sizing(d: Dmc, plan: PhasePlan, n: int, omega_n: float,
                    xi, unit: str = DEFAULT_UNIT) -> Theorem1Sizing:
    """Finite-blocklength message/key sizing and warden-divergence bound.

    User l is active for the fraction of _active_fractions: ``phi1`` is
    beta_max^2, the longer-active user's, ``phi2`` the other's, and
    ``swapped`` is True when beta2 > beta1.
    """
    xi = _slack(xi, omega_n)
    return _evaluate(d, plan, unit).sizing(n, omega_n, xi)


def _slack(xi, omega_n: float) -> tuple:
    """theorem1_sizing's xi as floats, once xi and omega_n pass its checks."""
    xi = tuple(float(v) for v in xi)
    if len(xi) != 6 or any(not 0 < v < 1 for v in xi):
        raise ValueError("xi must be six slack values in (0, 1)")
    if not 0 < omega_n < 1:
        raise ValueError("omega_n must lie in (0, 1)")
    return xi


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
        if math.isinf(self.r1_min) or math.isinf(self.R3_min):
            raise ValueError("the r1 and R3 floors must be finite")


_FEAS_SLACK = 1e-9


def _feasible(rt, cons: Constraints, slack: float = _FEAS_SLACK) -> bool:
    return (rt[0] >= cons.r1_min - slack and rt[2] >= cons.R3_min - slack
            and rt[3] <= cons.k1_max + slack and rt[4] <= cons.k2_max + slack)


# ---------------------------------------------------------------------------
# R3_min = 0: a linear-fractional program over one-hot modes


_LP_GRID = 201                                  # starting lam grid per x3
_LP_RC_TOL = 1e-10                              # pricing stops above -tol
_LP_MAX_ROUNDS = 50
# below HiGHS' 1e-7 defaults, so that no basic column prices under -tol
_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
               "dual_feasibility_tolerance": 1e-10}


# a coefficient this large is a HiGHS model error (its large_matrix_value)
_HIGHS_LARGE = 1e15
# what _highs_solve returns for an infeasible LP
_INFEASIBLE = "infeasible"


def _highs_solve(cost, a_ub, b_ub, eq_row, lb, ub):
    """min cost . x with a_ub x <= b_ub, eq_row . x = 1, lb <= x <= ub:
    (x, y) at the optimum, y the row duals (the eq_row's last), bit for bit
    the x and the inequality and equality marginals of
    scipy.optimize.linprog(..., method="highs", options=_LP_OPTIONS), from a
    fresh HiGHS given the same model and options.  _INFEASIBLE where HiGHS calls the LP infeasible or a
    model error, None at any other end short of an optimum that passes
    linprog's check.  Of linprog's input checks only its ValueError on a
    non-finite row entry is kept: HiGHS takes a NaN silently and calls an
    infinite entry a model error.  scipy's HiGHS is imported on the first
    LP: a process that solves no LP (simulate, sizing, rate evaluation)
    never loads scipy.optimize, which is most of a cold start's time and
    memory.
    """
    from scipy.optimize._highspy import _core as hs
    a = np.vstack([a_ub, eq_row])
    if not (np.isfinite(a).all() and np.isfinite(b_ub).all()):
        raise ValueError("LP rows must be finite")
    m, n = a.shape
    nz = a.T != 0                       # the nonzeros of csc_array(a)
    value = a.T[nz]
    start = np.append(0, np.cumsum(nz.sum(axis=1))).astype(np.int32)
    highs = hs._Highs()
    for opt in (("output_flag", False), ("log_to_console", False),
                ("presolve", "on"), *_LP_OPTIONS.items(),
                ("simplex_strategy", 1)):           # dual simplex
        highs.setOptionValue(*opt)
    # integrality: an empty array makes passModel a model error
    status = highs.passModel(
        n, m, len(value), hs.MatrixFormat.kColwise.value,
        hs.ObjSense.kMinimize.value, 0.0, cost, lb, ub,
        np.append(np.full(m - 1, -hs.kHighsInf), 1.0), np.append(b_ub, 1.0),
        start, np.nonzero(nz)[1].astype(np.int32), value,
        np.zeros(n, np.int32))
    if status == hs.HighsStatus.kError:
        return _INFEASIBLE
    highs.run()
    model = highs.getModelStatus()
    if model in (hs.HighsModelStatus.kInfeasible,
                 hs.HighsModelStatus.kModelError):
        return _INFEASIBLE
    if model != hs.HighsModelStatus.kOptimal:
        return None
    sol = highs.getSolution()
    x, row = np.array(sol.col_value), np.array(sol.row_value)
    # linprog's check of an optimal point, at its tolerance 10 sqrt(1e-9);
    # a NaN in x fails it
    viol = np.concatenate([lb - x, x - ub, row[:-1] - b_ub,
                           [abs(row[-1] - 1.0)]])
    if not np.all(viol <= 10 * math.sqrt(1e-9)):
        return None
    return x, np.array(sol.row_dual)


def __getattr__(name):
    # The benchmark's --trace 1 looks up region.minimize by name; this goes
    # when ROADMAP item 1 drops that span.
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _modes(tab: _ChannelTerms, lam, x):
    """(sqrt(chi2), n1, n2, key1, key2) per unit covert mass v of the modes
    (lam, x3 = x): the _terms of phases at the one-hot law."""
    n1, n2, key1, key2, chi = _terms(lam, [v[..., x] for v in tab.one_hot])[:5]
    return np.sqrt(np.maximum(chi, 0.0)), n1, n2, key1, key2


def _cap_unit(cap: float) -> float:
    """What a cap row is divided by: the cap where it is at least
    _HIGHS_LARGE, else 1.  A coefficient that large is a HiGHS model error,
    which linprog reports as infeasible.  A cap row is homogeneous, so the
    divided row has the same solutions; HiGHS then drops its entries below
    1e-9 (small_matrix_value), which moves them by less than 1e-9 / cap."""
    return cap if _HIGHS_LARGE <= cap < math.inf else 1.0


def _lp_rows(cols, cons: Constraints):
    """Inequality rows of the LP over (v, t): the v part and the t column.

    The time shares p ~ v sqrt(chi2) make D = sum v sqrt(chi2).  With N2
    normalized to 1 the objective t = 1/r2 needs D <= sqrt2 t and
    K2 <= k2_max t.  beta1 drops out as sqrt2 N1 >= r1_min D and
    r1_min K1 <= k1_max N1 (K1 <= 0 when both are zero).
    """
    s, n1, _, key1, key2 = cols
    u1, u2 = _cap_unit(cons.k1_max), _cap_unit(cons.k2_max)
    rows, t_coef = [s], [-SQRT2]
    if cons.r1_min > 0:
        rows.append(cons.r1_min * s - SQRT2 * n1)
        t_coef.append(0.0)
    if cons.r1_min > 0 and math.isfinite(cons.k1_max):
        rows.append(cons.r1_min / u1 * key1 - cons.k1_max / u1 * n1)
        t_coef.append(0.0)
    elif cons.k1_max == 0:
        rows.append(key1)
        t_coef.append(0.0)
    if math.isfinite(cons.k2_max):
        rows.append(key2 / u2)
        t_coef.append(-cons.k2_max / u2)
    return np.array(rows), np.array(t_coef)


def _lp_solve(cols, cons: Constraints, eq_row):
    """HiGHS optimum of min t over (v >= 0, t) with eq_row . v = 1."""
    a_ub, t_coef = _lp_rows(cols, cons)
    n = len(eq_row) + 1
    return _highs_solve(np.append(np.zeros(n - 1), 1.0),
                        np.column_stack([a_ub, t_coef]), np.zeros(len(t_coef)),
                        np.append(eq_row, 0.0), np.zeros(n),
                        np.full(n, math.inf))


def _price(tab: _ChannelTerms, w, x: int):
    """(reduced cost, lam) of the cheapest mode at x3 = x, whose reduced
    cost is w . (sqrt(chi2), n1, n2, key1, key2), so c sqrt(chi2) + b lam +
    const; with chi2 = a2 lam^2 + 2 a1 lam + C its minimum is at 0, 1 or a
    root of c^2 (a2 lam + a1)^2 = b^2 chi2."""
    # n1, key1 grow with lam and n2, key2 with 1 - lam
    c, b = w[0], w[1:] @ (tab.one_hot[0][:, x] * [1.0, -1.0, 1.0, -1.0])
    A, B, C = tab.coef[:, x]
    a2, a1 = A - 2.0 * B + C, B - C
    k = c * c * a2 - b * b              # qa lam^2 + 2 h lam + qc = 0
    qa, h, qc = k * a2, k * a1, c * c * a1 * a1 - b * b * C
    q = -(h + math.copysign(math.sqrt(max(h * h - qa * qc, 0.0)), h))
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.clip([0.0, 1.0, *np.divide([q, qc], [qa, q])], 0.0, 1.0)
    lam = lam[~np.isnan(lam)]
    val = w @ np.array(_modes(tab, lam, x))
    i = int(np.argmin(val))
    return float(val[i]), float(lam[i])


def _key_beta(cap: float, key: float, dd: float) -> float:
    """Largest beta in (0, 1] with sqrt2 * beta * key / dd <= cap (every
    beta when dd = 0: the plan is perfectly covert, with zero key rates).
    A zero cap counts as _FEAS_SLACK: an LP plan's K2 is 0 up to rounding."""
    if key <= 0 or dd == 0 or SQRT2 * key <= (cap or _FEAS_SLACK) * dd:
        return 1.0
    return cap * dd / (SQRT2 * key)


def _lp_modes(tab: _ChannelTerms):
    """(xs, lam, x, cols): the x3 symbols the warden's support allows, and
    the starting one-hot modes (lam, x) with their columns.  None where the
    LP gives no plan: non-finite divergences, or r2 unbounded (a mode
    with N2 > 0 the warden cannot see)."""
    xs = [x for x in range(len(tab.ok)) if tab.ok[x]]
    if not xs or not np.isfinite(tab.div[:, xs]).all():
        return None
    lam = np.tile(np.linspace(0.0, 1.0, _LP_GRID), len(xs))
    x = np.repeat(xs, _LP_GRID)
    cols = _modes(tab, lam, x)
    # a mode the warden cannot see (chi2 = 0) gets no time share
    unseen = cols[0] == 0
    if np.any(unseen & (cols[2] > 0)):
        return None
    return xs, lam[~unseen], x[~unseen], tuple(c[~unseen] for c in cols)


def _with_betas(d: Dmc, plan: PhasePlan, cons: Constraints, unit: str):
    """(plan, rates) with beta1, beta2 set from the plan's own numerators:
    the smallest beta1 that meets r1_min (the largest under the k1 cap when
    r1_min = 0 or r1 = inf) and the largest beta2 under the k2 cap; None
    when a beta would be 0 or the plan misses a cap by more than 1e-9."""
    ev = _evaluate(d, plan, unit)
    dd = math.sqrt(ev.dsq)
    if cons.r1_min > 0 and dd > 0 and math.isfinite(ev.num[0]):
        if ev.num[0] == 0:      # user 1 is silent: no beta1 meets r1_min
            return None
        b1 = min(1.0, cons.r1_min * dd / (SQRT2 * ev.num[0]))
    else:
        b1 = _key_beta(cons.k1_max, ev.key[0], dd)
    b2 = _key_beta(cons.k2_max, ev.key[1], dd)
    if not (b1 > 0 and b2 > 0):
        return None
    betas = float(b1), float(b2)
    plan = replace(plan, beta1=betas[0], beta2=betas[1])
    rt = ev.rates(betas)
    if not _feasible((rt.r1, rt.r2, rt.R3, rt.k1, rt.k2), cons):
        return None
    return plan, rt


def _lp_max_r2(d: Dmc, cons: Constraints, unit: str):
    """(plan, rates) maximizing r2 at R3 = 0, by column generation on the
    Charnes-Cooper LP, or None where the LP gives no plan (see _lp_modes).
    Where no plan with N2 > 0 meets the caps it normalizes D = 1 instead
    (r2 = 0); InfeasibleError when that LP is infeasible too.  A plan of
    one phase gives way to fix mode's plan at its x3 symbol where that
    has the higher r2."""
    tab = _channel_terms(d, unit)
    modes = _lp_modes(tab)
    if modes is None:
        return None
    xs, lam, x, cols = modes
    rows = _lp_rows(np.eye(5), cons)[0]   # the v part at unit mode terms
    for rnd in range(_LP_MAX_ROUNDS):
        sol = _lp_solve(cols, cons, cols[2])
        r2_zero = sol is _INFEASIBLE
        if r2_zero:                     # no plan has N2 > 0: normalize D = 1
            sol = _lp_solve(cols, cons, cols[0])
        if sol is _INFEASIBLE:
            raise InfeasibleError(f"no plan meets {cons}")
        if sol is None:
            return None
        if r2_zero or rnd == _LP_MAX_ROUNDS - 1:
            break
        # reduced cost per unit mode term; the equality row is N2 = 1
        w = -(sol[1][:-1] @ rows) - sol[1][-1] * np.eye(5)[2]
        priced = [(*_price(tab, w, xx), xx) for xx in xs]
        new = [(l, xx) for val, l, xx in priced if val < -_LP_RC_TOL
               and not np.any((x == xx) & (np.abs(lam - l) <= 1e-12))]
        if not new:
            break
        new_lam, new_x = map(np.array, zip(*new))
        new_cols = _modes(tab, new_lam, new_x)
        if np.any(new_cols[0] == 0):
            return None
        lam, x = np.append(lam, new_lam), np.append(x, new_x)
        cols = tuple(np.append(c, n) for c, n in zip(cols, new_cols))
    # Modes at one x3 merge into one phase at their mass-weighted lam: the
    # numerators are linear in (v, v lam) and sqrt(chi2) is convex in lam,
    # so the merged phase keeps every numerator and does not raise D.
    v = sol[0][:-1]
    on = v > 1e-12 * v.max()
    x_on = np.unique(x[on])
    mass = np.array([v[on & (x == xx)].sum() for xx in x_on])
    lam_on = np.clip([v[on & (x == xx)] @ lam[on & (x == xx)]
                      for xx in x_on] / mass, 0.0, 1.0)
    w = mass * _modes(tab, lam_on, x_on)[0]
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
    found = _with_betas(d, plan, cons, unit)
    if found is None or len(x_on) > 1:
        return found
    # One phase: the closed form in lam at its one-hot law is exact, where
    # the LP's lam is only as good as the -_LP_RC_TOL stop.
    one = _one_phase_at(d, cons, unit, np.eye(d.x3_size)[x_on[0]])
    return one if one is not None and one[1].r2 > found[1].r2 else found


# ---------------------------------------------------------------------------
# R3_min > 0: a column-generated LP over phases (lam, q, a)


_R3_SCAN = 201           # laws of the law lattice at x3_size 2
_R3_SCAN_Q = 500         # most laws of the law lattice
_R3_SEED_Q = (10, 15)    # seed lattice: most steps per unit, most laws
_R3_STARTS = 4           # lattice maxima refined by a law search
_R3_APART = 0.05         # least max-norm distance between their laws
_R3_U_MAX = 1e3          # cap on a sqrt(chi2) of a priced column
_R3_S_TOL = 1e-12        # phase 1 ends at e below this; sum p below it is 0
_R3_MAX_ROUNDS = 300
_R3_MERGE = 1e-3         # support q rows this close (max-norm) share a phase
_R3_SPLIT = 8            # a priced column adds the 7 points at k/8 toward
                         # its nearest column of the same law group
_ONE_STEP_MIN = 1e-10    # a single-phase law search stops below this step


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


@functools.cache
def _directions(k: int):
    """(j, e_i - e_j) over the ordered pairs i != j of k symbols, in
    read-only arrays (every caller shares them)."""
    i, j = np.array(list(itertools.permutations(range(k), 2))).T
    move = np.eye(k)[i] - np.eye(k)[j]
    for v in (j, move):
        v.setflags(write=False)
    return j, move


def _q_neighbours(q, h):
    """(laws, sizes): per row q[i] of q, in row order, a block of q[i] and
    the laws up to h[i] away along each direction e_i - e_j with room (ten
    points each, placed as np.linspace(0, reach, 11)[1:] places them), and
    the size of each block."""
    n, k = q.shape
    j, move = _directions(k)
    reach = np.minimum(h[:, None], q[:, j])
    s = np.arange(1, 11) * (reach / 10)[..., None]
    s[..., -1] = reach
    near = q[:, None, None, :] + s[..., None] * move[:, None, :]
    laws = np.concatenate([q[:, None, :], near.reshape(n, -1, k)], axis=1)
    keep = np.concatenate([np.ones((n, 1), bool),
                           np.repeat(reach > 0, 10, axis=1)], axis=1)
    return laws[keep], keep.sum(axis=1)


def _best_laws(score, grid, step: float, floor: float) -> list:
    """[[law, value, step]] of the best _R3_STARTS laws of ``grid`` that lie
    _R3_APART apart, each refined by a pattern search over _q_neighbours
    whose step, starting at ``step``, shrinks 10x only when its centre
    stops moving, until it is at most ``floor``; best first.  score(q)
    gives (laws, values) for the rows of q and may move them (the single
    phase moves laws short of R3_min)."""
    grid, val = score(grid)
    starts = []
    while len(starts) < _R3_STARTS and val.max() > -math.inf:
        j = int(np.argmax(val))
        starts.append([grid[j], val[j], step])
        val[np.abs(grid - grid[j]).max(axis=1) < _R3_APART] = -math.inf
    for _ in range(400):     # a guard; starts end at most at ``floor``
        live = [s for s in starts if s[2] > floor]
        if not live:
            break
        near, size = _q_neighbours(np.array([s[0] for s in live]),
                                   np.array([s[2] for s in live]))
        q, val = score(near)
        for s, hi, n in zip(live, np.cumsum(size), size):
            lo = hi - n
            j = lo + int(np.argmax(val[lo:hi]))
            if val[j] > s[1]:
                s[0], s[1] = q[j], val[j]
            else:
                s[2] /= 10.0
    return sorted(starts, key=lambda s: -s[1])


def _law_lattice(cons: Constraints, cap: float, q_cap):
    """(laws, step) where a law search starts: a simplex lattice and the
    capacity-achieving law q_cap, or q_cap alone at R3_min >= cap, where
    only it can meet R3_min.  The laws are a fresh, writable array."""
    if cons.R3_min >= cap:
        return np.array([q_cap]), 0.0
    grid, step = _simplex_grid(len(q_cap), _R3_SCAN - 1, _R3_SCAN_Q)
    return np.vstack([grid, q_cap]), step


def _r3_rows(cons: Constraints, t, phase1: bool):
    """(parts, (e, rhs)) of the objective and inequality rows of the master
    over (p >= 0, w, e).  parts[i] = (const, lin, quad) of row i at the
    terms t = (n1, n2, key1, key2, chi, info, 1), each linear in them:
    column (lam, q, a) enters with const + a lin + a^2 quad and e, the
    phase-1 slack, with its entry.  The first row is the objective,
    maximized: sqrt2 N2, or -e in phase 1.

    p is beta2 times the time shares and w = 1 - sum p (Charnes-Cooper, as
    in the mode LP).  Rates are scale-free, so G <= sum p normalizes D, and
    then r2 = sqrt2 N2 and k2 = sqrt2 K2: every row is homogeneous in p
    but the k2 cap.  Phase 1 (sum p = 1) keeps that row only at
    k2_max = 0, as a smaller beta2 meets any positive cap.  beta1 drops out
    as in _lp_rows.
    """
    n1, n2, key1, key2, chi, info, one = t
    u1, u2 = _cap_unit(cons.k1_max), _cap_unit(cons.k2_max)
    zero = 0.0 * one
    rows = [(zero, zero, zero, -1.0, 0.0) if phase1
            else (zero, SQRT2 * n2, zero, 0.0, 0.0),
            (-one, zero, chi, 0.0, 0.0)]
    if cons.r1_min > 0:
        rows.append((cons.r1_min * one, -SQRT2 * n1, zero, -1.0, 0.0))
    if cons.r1_min > 0 and math.isfinite(cons.k1_max):
        rows.append((zero, cons.r1_min / u1 * key1 - cons.k1_max / u1 * n1,
                     zero, -1.0, 0.0))
    elif cons.k1_max == 0:
        rows.append((zero, key1, zero, -1.0, 0.0))
    rows.append((cons.R3_min * one - info, zero, zero, -1.0, 0.0))
    if cons.k2_max == 0 or (math.isfinite(cons.k2_max) and not phase1):
        rows.append((zero, SQRT2 / u2 * key2, zero, -1.0, cons.k2_max / u2))
    return np.array([r[:3] for r in rows]), np.array([r[3:] for r in rows]).T


def _r3_solve(t, a, cons: Constraints, phase1: bool):
    """HiGHS optimum of the master over the columns (lam, q, a) with terms
    t (_terms), p >= 0, w >= 0 and e >= 0 with sum p + w = 1: w = 0 in
    phase 1, e = 0 otherwise."""
    n = len(a)
    parts, (e, rhs) = _r3_rows(cons, (*t[:6], np.ones(n)), phase1)
    const, lin, quad = parts.transpose(1, 0, 2)
    m = np.column_stack([const + a * lin + a * a * quad, np.zeros(len(e)), e])
    ub = np.full(n + 2, math.inf)
    ub[n if phase1 else n + 1] = 0.0
    return _highs_solve(-m[0], m[1:], rhs[1:], np.append(np.ones(n + 1), 0.0),
                        np.zeros(n + 2), ub)


def _r3_price(coef, laws):
    """(reduced cost, lam, a) of the cheapest column at each law of
    ``laws`` (_ChannelTerms.laws) under a round's 3 x 7 ``coef``: the
    reduced cost is sum_k a^k coef[k] . (n1, n2, key1, key2, chi, info, 1).

    _r3_rows puts I(q) and 1 in the constant part, the numerators in the
    linear part and chi in the quadratic one, so the reduced cost is
    beta + alpha a + g chi a^2: beta depends on the law only, alpha is
    affine in lam, and g >= 0 is the dual of G <= sum p.  In s = a sqrt(chi),
    s in [0, _R3_U_MAX], its minimum is non-decreasing in
    r = alpha / sqrt(chi), so the best lam minimizes r: at 0, 1 or the one
    root of r' = 0, which is linear in lam.  Then s = -r / (2 g) (capped)
    where r < 0.  A law the warden forbids, or a lam at which it sees
    nothing (chi = 0), gets a = 0."""
    dq, (A, B, C), info, ok = laws
    y, g = coef[1, :4], coef[2, 4]
    b0 = y[1::2] @ dq[1::2]                     # alpha = b0 + b1 lam
    b1 = y[0::2] @ dq[0::2] - b0
    a2, a1 = A - 2.0 * B + C, B - C     # chi = a2 lam^2 + 2 a1 lam + C
    lam = np.empty((3, len(C)))
    lam[0], lam[1] = 0.0, 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        root = (b0 * a1 - b1 * C) / (b1 * a1 - b0 * a2)
        lam[2] = np.fmax(np.fmin(root, 1.0), 0.0)        # NaN gives 1
        mu = 1.0 - lam
        chi = lam * lam * A + 2.0 * lam * mu * B + mu * mu * C   # as _terms
        r = np.where(ok & (chi > 0), (b0 + b1 * lam) / np.sqrt(chi), math.inf)
        best = np.argmin(r, axis=0), np.arange(len(C))
        r = np.minimum(r[best], 0.0)             # r >= 0 (or inf): a = 0
        lam, chi = lam[best], chi[best]
        s = np.where(r < 0, np.minimum(-r / (2.0 * g), _R3_U_MAX)
                     if g > 0 else _R3_U_MAX, 0.0)
        a = np.where(s > 0, s / np.sqrt(chi), 0.0)
    return coef[0, 5] * info + coef[0, 6] + (r * s + g * s * s), lam, a


def _priced(coef, tab: _ChannelTerms, laws):
    """[(reduced cost, lam, q, a)] of the cheapest column at each law q of
    ``laws`` under a round's ``coef`` (_r3_price), lam and a in closed form,
    best first; ties keep the order of ``laws``."""
    rc, lam, a = (v.tolist() for v in _r3_price(coef, tab.laws(laws)))
    return sorted(zip(rc, lam, laws, a), key=lambda c: c[0])


def _law_search(tab: _ChannelTerms, laws, step: float):
    """Pricer over the lattice ``laws`` (_law_lattice): price(coef) prices
    the lattice and runs _best_laws from its peaks, the laws that no law
    within 1.5 steps (max-norm) beats, so that no start walks the slope of
    another, and returns _priced at the laws found.  The search stops at
    a step of 1e-7: a law off by h moves a reduced cost by O(h^2)."""
    near = np.abs(laws[:, None] - laws[None]).max(axis=2) <= 1.5 * step
    idx = np.argsort(~near, axis=1, kind="stable")[:, :near.sum(axis=1).max()]
    near = np.where(np.take_along_axis(near, idx, axis=1), idx,
                    np.arange(len(laws))[:, None])
    terms = tab.laws(laws)

    def price(coef):
        val = -_r3_price(coef, terms)[0]
        peaks = laws[val >= val[near].max(axis=1)]
        q = [s[0] for s in _best_laws(
            lambda q: (q, -_r3_price(coef, tab.laws(q))[0]), peaks, step,
            1e-7)]
        return _priced(coef, tab, np.array(q))
    return price


def _r3_between(new, lam, q, a):
    """(lam, q, a) of the columns at k / _R3_SPLIT, 0 < k < _R3_SPLIT, of
    the segment from each new column (rc, lam, q, a) to its nearest
    column among (lam, q, a) of the same law group (laws within _R3_MERGE,
    a > 0), in (lam, q, a) Euclidean distance.  A column with rc above
    -_LP_RC_TOL, within HiGHS' dual tolerance, gets none: its reduced
    cost is rounding, and its segment would only add near-duplicates
    that keep the rounding alive."""
    cols = np.column_stack([lam, q, a])
    frac = np.arange(1, _R3_SPLIT)[:, None] / _R3_SPLIT
    out = [cols[:0]]
    for rc, lam_c, q_c, a_c in new:
        group = (a > 0) & (np.abs(q - q_c).max(axis=1) <= _R3_MERGE)
        if rc >= -_LP_RC_TOL or not group.any():
            continue
        c = np.concatenate([[lam_c], q_c, [a_c]])
        far = cols[group]
        far = far[np.argmin(((far - c) ** 2).sum(axis=1))]
        out.append(c + frac * (far - c))
    out = np.vstack(out)
    return out[:, 0], out[:, 1:-1], out[:, -1]


def _r3_generate(tab: _ChannelTerms, cons: Constraints, price, lam, q, a):
    """Column generation from the columns (lam, q, a), priced each round
    by price(coef), which gives [(reduced cost, lam, q, a)] best first:
    (p, lam, q, a, bound) of the last master solved outside phase 1 with
    its columns priced.  None when HiGHS fails before that; raises
    InfeasibleError when no columns meet the constraints.

    Each phase's rows are evaluated once, at the unit terms (_r3_rows), and
    a round's coef (_r3_price) is -(1, y_ub) . table, less the dual of
    sum p + w = 1 in the term 1.

    Each priced column also brings the columns between it and its nearest
    column of the same law group (_r3_between): the LP then holds the
    bracket that later rounds of pricing would only halve (the tail of
    Kelley's cutting planes, 1960).

    The master's optimum is r2 over its columns.  Generation stops when no
    reduced cost is below -_LP_RC_TOL min(1, r2) (reduced costs are in
    units of r2).  ``bound`` >= r2 over all columns: the LP's r2 plus the
    most negative reduced cost, a Lagrangian bound, as sum p <= 1.

    p = 0 always meets the rows.  The first time the master's optimum sits
    there, phase 1 minimizes the slack e of the rows at sum p = 1 until
    e <= _R3_S_TOL, and its plan is the r2 = 0 answer where the master
    comes back to p = 0.
    """
    table = {ph: _r3_rows(cons, np.eye(7), ph)[0] for ph in (False, True)}
    phase1 = was_phase1 = False
    last = kept = None
    for _ in range(_R3_MAX_ROUNDS):
        t = _terms(lam, tab.laws(q))
        sol = _r3_solve(t, a, cons, phase1)
        if sol is None or sol is _INFEASIBLE:
            break
        x, y = sol
        p = x[:-2]
        if phase1 and x[-1] <= _R3_S_TOL:   # the objective: min e
            phase1, kept = False, (p, len(a))
            continue
        if not was_phase1 and p.sum() <= _R3_S_TOL:
            phase1 = was_phase1 = True      # find a feasible column set first
            continue
        coef = -np.tensordot(np.append(1.0, y[:-1]), table[phase1], 1)
        coef[0, 6] -= y[-1]
        cols = price(coef)
        r2 = 0.0 if phase1 else SQRT2 * (p @ (a * t[1]))
        tol = _LP_RC_TOL * min(1.0, r2 or 1.0)  # relative to r2 below 1
        new = [c for c in cols if c[0] < -tol and not np.any(
            (np.abs(lam - c[1]) <= 1e-12) & (np.abs(a - c[3]) <= 1e-12 * c[3])
            & (np.abs(q - c[2]).max(axis=1) <= 1e-12))]
        if phase1 and not new:
            raise InfeasibleError(f"no plan meets {cons}")
        if not phase1:
            rc = min([c[0] for c in cols], default=0.0)
            plan = kept if p.sum() <= _R3_S_TOL else (p, len(a))
            last = (*plan, r2 + max(0.0, -rc))
            if not new:
                break
        mid = _r3_between(new, lam, q, a)
        lam = np.concatenate([lam, [c[1] for c in new], mid[0]])
        q = np.vstack([q] + [c[2] for c in new] + [mid[1]])
        a = np.concatenate([a, [c[3] for c in new], mid[2]])
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


def _lp_max_r2_r3(d: Dmc, cons: Constraints, unit: str):
    """(plan, rates, bound) maximizing r2 at R3_min > 0, or None where the
    LP gives no plan (see _lp_modes).  Raises InfeasibleError when the LP
    is infeasible.

    Column j = (lam, q, a) is a phase whose time share times beta2, p_j,
    is the only LP variable: N1, N2, K1, K2, G and R3 are all linear in p
    (_r3_rows).  Columns come from Dantzig-Wolfe / Gilmore-Gomory pricing
    (_r3_generate): lam and a in closed form per law (_r3_price), laws by
    _best_laws started from the peaks of a lattice plus the
    capacity-achieving law, and with each priced column the columns
    interpolated toward its nearest neighbour of the same law.  ``bound`` is an upper bound on r2 over all plans if
    that law search finds the cheapest law.  It is local, so bound >= r2
    is measured (on seeded random channels at x3_size 2 and 3), not
    proven; a branch-and-bound over laws would prove it.

    Support columns with laws within _R3_MERGE form one phase.  A second
    generation, the polish, priced at each group's time-weighted law alone
    (_priced), makes the columns of a phase share one law; they then merge
    into one phase at their mass-weighted lam.  The numerators are linear in
    (p a lam, p a (1 - lam)) and G is convex in (rho1, rho2), so the merge
    keeps every numerator and does not raise G.
    """
    tab = _channel_terms(d, unit)
    if _lp_modes(tab) is None:
        return None
    cap, q_cap = tab.capacity
    # seed: silent time and a coarse (lam, q) grid on a q lattice plus the
    # capacity-achieving law, at a sqrt(chi2) = 1.5: at 1 every seed would
    # have G coefficient a^2 chi2 - 1 = 0, the G row's dual would be 0 and
    # pricing would push a to _R3_U_MAX
    seed_q = np.vstack([_simplex_grid(d.x3_size, *_R3_SEED_Q)[0], q_cap])
    seed_lam = np.linspace(0.0, 1.0, 5)
    t = _terms(seed_lam[:, None], tab.laws(seed_q))
    covert = t[6].ravel()
    lam = np.concatenate([np.zeros(len(seed_q)),
                          np.repeat(seed_lam, len(seed_q))[covert]])
    q = np.vstack([seed_q, np.tile(seed_q, (len(seed_lam), 1))[covert]])
    a = np.concatenate([np.zeros(len(seed_q)),
                        1.5 / np.sqrt(t[4].ravel()[covert])])
    found = _r3_generate(tab, cons, _law_search(tab, *_law_lattice(
        cons, cap, q_cap)), lam, q, a)
    if found is None:
        return None
    p, lam, q, a, bound = found
    groups = _r3_groups(p, q, _R3_MERGE)
    # Polish: move each support column to its group's time-weighted law and
    # price those laws only, so that a phase's columns merge exactly.
    laws = np.array([p[g] @ q[g] / p[g].sum() for g in groups])
    sup = np.concatenate(groups)
    at = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    try:
        found = _r3_generate(
            tab, cons, lambda coef: _priced(coef, tab, laws),
            np.append(lam[sup], np.zeros(len(laws))),
            np.vstack([laws[at], laws]),
            np.append(a[sup], np.zeros(len(laws))))
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


# ---------------------------------------------------------------------------
# one phase: lam in closed form per x3 law, the law search over laws


def _one_phase_r2(laws, cons: Constraints):
    """(r2, lam) of the best single phase at each law of ``laws`` (from
    _ChannelTerms.laws); r2 = -inf where no lam meets the constraints.

    In u = lam / (1 - lam), r2 = sqrt2 d2 / sqrt(A u^2 + 2B u + C) (capped
    at k2_max d2 / key2 by beta2) peaks at u = -B / A.  The smallest beta1
    meeting r1_min gives k1 = r1_min key1 / d1, a law scalar, and beta1 <= 1
    is C s^2 + 2B s + A - 2 (d1 / r1_min)^2 <= 0 in s = 1 / u: an interval
    of u.  The peak clipped to it is best; the edges and u = 1 (for
    infinite terms) are tried too."""
    (d1, d2, key1, key2), (A, B, C), info, ok = laws
    r1 = cons.r1_min
    feas = ok & (info >= cons.R3_min - 1e-3 * _FEAS_SLACK)
    u_lo, u_hi = np.zeros_like(A), np.full_like(A, math.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        if r1 > 0:
            c0 = A - 2.0 * (d1 / r1) ** 2
            root = np.sqrt(B * B - C * c0)
            s_lo = np.where(C > 0, (-B - root) / C, 0.0)
            s_hi = np.where(C > 0, (-B + root) / C, math.inf)
            feas &= ((d1 > 0) & ~(r1 * key1 > cons.k1_max * d1)
                     & np.where(C > 0, s_hi >= 0, c0 <= 0))
            u_lo, u_hi = 1.0 / s_hi, 1.0 / np.maximum(s_lo, 0.0)
        elif cons.k1_max == 0:
            u_hi = np.where(key1 > 0, 0.0, u_hi)
        u = np.clip([u_lo, u_hi, np.where(A > 0, -B / A, 0.0), A * 0 + 1.0],
                    u_lo, u_hi)
        lam = np.where(np.isinf(u), 1.0, u / (1.0 + u))
        _, n2, _, _, chi, _, _ = _terms(lam, laws)
        r2 = np.where(n2 > 0, SQRT2 * n2 / np.sqrt(np.maximum(chi, 0.0)), 0.0)
        capped = (key2 > 0) & (n2 > 0) & (chi > 0)
        r2 = np.where(capped, np.minimum(r2, cons.k2_max * d2 / key2), r2)
    bad = (~feas | (capped & (cons.k2_max == 0)) | ((r1 > 0) & (lam == 0))
           | np.isnan(r2))
    r2 = np.where(bad, -math.inf, r2)
    best = np.argmax(r2, axis=0), np.arange(r2.shape[1])
    return r2[best], lam[best]


def _one_phase_at(d: Dmc, cons: Constraints, unit: str, q):
    """(plan, rates) of the best single phase at the law q, lam in closed
    form (_one_phase_r2), or None where no phase at q meets the
    constraints."""
    r2, lam = _one_phase_r2(_channel_terms(d, unit).laws(q[None, :]), cons)
    if r2[0] == -math.inf:
        return None
    lam = float(lam[0])
    return _with_betas(d, PhasePlan.single_phase(
        tuple(map(float, q)), lam, 1.0 - lam), cons, unit)


def _one_phase_max_r2(d: Dmc, cons: Constraints, unit: str):
    """(plan, rates) of the best single phase, else InfeasibleError.  lam is
    exact per law (_one_phase_at); laws come from the law search that
    pricing uses (_best_laws from _law_lattice), down to a step of
    _ONE_STEP_MIN, with laws short of R3_min moved onto I = R3_min.  The
    search is local: exact up to its step at x3_size 2, a heuristic
    beyond."""
    tab = _channel_terms(d, unit)
    cap, q_cap = tab.capacity

    def value(q):
        """(q, r2), laws short of R3_min moved in place toward q_cap."""
        low = tab.info(q) < cons.R3_min
        hi = np.ones((int(low.sum()), 1))
        for i in range(1, 41 if low.any() else 1):  # bisect: I is concave
            t = hi - 0.5 ** i
            hi = np.where(tab.info((1.0 - t) * q[low] + t * q_cap)[:, None]
                          >= cons.R3_min, t, hi)
        q[low] = (1.0 - hi) * q[low] + hi * q_cap
        return q, _one_phase_r2(tab.laws(q), cons)[0]

    for q, _, _ in _best_laws(value, *_law_lattice(cons, cap, q_cap),
                              _ONE_STEP_MIN):
        found = _one_phase_at(d, cons, unit, q)
        if found is not None:
            return found
    raise InfeasibleError(f"no single-phase plan meets {cons}")


def max_r2(d: Dmc, constraints: Constraints, max_phases: int = MAX_PHASES,
           unit: str = DEFAULT_UNIT,
           fix_x3: int | None = None) -> tuple[PhasePlan, RateTuple]:
    """Feasible plan maximizing r2, with its rate tuple; InfeasibleError
    when no plan meets the constraints.

    With x3 fixed to the symbol ``fix_x3``, the modes of any plan merge into
    one phase at the one-hot law, so the single-phase closed form is exact
    and no LP runs; R3_min > 0 raises InfeasibleError at once.  Otherwise the
    exact plan is an LP optimum over one-hot modes at R3_min = 0
    (_lp_max_r2: a phase per x3 symbol used; r2 = 0 where no plan with
    r2 > 0 meets the k2 cap) or over phases (lam, q, a) at R3_min > 0
    (_lp_max_r2_r3: its bound is measured, not proven).  It is returned
    when its tau* phases fit ``max_phases``; at max_phases = 1 the best
    single phase (_one_phase_max_r2) is returned, and a cap from 2 to
    tau* - 1 raises ValueError.  The single-phase search also runs where
    the LP gives no plan: an infinite divergence, a mode the warden cannot
    see, which makes r2 unbounded (r2 = inf), or an LP that HiGHS ends
    short of an optimum (_highs_solve's None), a silent fallback that can
    lose r2.
    """
    if max_phases < 1:
        raise ValueError("max_phases must be at least 1")
    if fix_x3 is not None:
        if not 0 <= fix_x3 < d.x3_size:
            raise ValueError(f"fixed x3 {fix_x3} out of range")
        if constraints.R3_min > 0:
            raise InfeasibleError(f"a fixed x3 symbol carries no R3: no plan "
                                  f"meets {constraints}")
        found = _one_phase_at(d, constraints, unit, np.eye(d.x3_size)[fix_x3])
        if found is None:
            raise InfeasibleError(f"no single-phase plan meets {constraints}")
        return found
    max_phases = min(max_phases, MAX_PHASES)
    found = (_lp_max_r2 if constraints.R3_min == 0 else _lp_max_r2_r3)(
        d, constraints, unit)
    if found is not None and found[0].tau <= max_phases:
        return found[:2]
    if found is None or max_phases == 1:
        return _one_phase_max_r2(d, constraints, unit)
    tau = found[0].tau
    raise ValueError(f"the optimum needs {tau} phases; max_phases must be 1 "
                     f"or at least {tau}")


def _pareto(points):
    """The points, by R3, whose r2 beats that of every point of higher R3:
    r2 non-increasing, with no dominated duplicates."""
    out, best = [], -math.inf
    for r2, r3 in reversed(sorted(points, key=lambda p: p[1])):
        if r2 > best:
            out.append((r2, r3))
            best = r2
    return out[::-1]


def trace_r2_R3(d: Dmc, r1_fixed: float, k1_max: float, k2_max: float,
                grid, max_phases: int = MAX_PHASES, unit: str = DEFAULT_UNIT):
    """Boundary points (r2, R3): max r2 with R3_min swept over ``grid``."""
    cap = _channel_terms(d, unit).capacity[0]
    grid = sorted(float(g) for g in grid)
    if not grid or not all(0 <= g <= cap + 1e-9 for g in grid):
        raise ValueError(f"R3 grid must be non-empty and lie within "
                         f"[0, capacity={cap:.6f}]")
    pts = []
    for target in grid:
        cons = Constraints(r1_min=r1_fixed, R3_min=min(target, cap),
                           k1_max=k1_max, k2_max=k2_max)
        pts.append((max_r2(d, cons, max_phases, unit)[1].r2, target))
    return _pareto(pts)


def curve_r2_vs_k2(d: Dmc, r1_fixed: float, k1_max: float, k2_grid,
                   fix_x3: int | None = None, max_phases: int = MAX_PHASES,
                   unit: str = DEFAULT_UNIT):
    """Curve points (k2, r2): max r2 with the user-2 key rate capped, x3
    optimized or fixed to the symbol ``fix_x3`` as in max_r2."""
    k2_grid = sorted(float(v) for v in k2_grid)
    if not k2_grid or not all(k2 >= 0 for k2 in k2_grid):
        raise ValueError("k2 grid must be non-empty and non-negative")
    pts = []
    for k2 in k2_grid:
        cons = Constraints(r1_min=r1_fixed, k1_max=k1_max, k2_max=k2)
        pts.append((k2, max_r2(d, cons, max_phases, unit, fix_x3)[1].r2))
    return pts
