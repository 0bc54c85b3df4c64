"""Independent LP oracles for max r2, built from the raw matrices: exact at
R3_min = 0 (``max_r2``), a grid lower bound at R3_min > 0 (``max_r2_r3``).

Divergences and chi-square coefficients are computed here from ``gamma_y``
and ``gamma_z`` with numpy; nothing comes from ``covertmac.region`` or
``covertmac.infotheory``, so the oracle checks the optimizer instead of
sharing its code.

The model is the one in the ``covertmac.region`` docstring.  A phase with a
mixed x3 law splits exactly into one-hot phases, so a plan is a set of modes
j = (lam_j, x3_j), lam = rho1 / (rho1 + rho2), with covert mass
v_j = p_j (rho1 + rho2).  The numerators N_l and key numerators K_l are
linear in v; the time shares p_j ~ v_j sqrt(chi2_j) minimise the
denominator to D = sum_j v_j sqrt(chi2_j) (Cauchy-Schwarz).  Choosing beta1
and beta2 optimally and normalising N2 = 1 (Charnes-Cooper) leaves
r2 = min(sqrt2 / D, k2_max / K2) under the linear conditions
sqrt2 N1 >= r1_min D and r1_min K1 <= k1_max N1, so 1 / r2 is the optimum
of a linear program over a lam grid.  Rates are in bits.  The grid optimum
is a lower bound on the continuous one; at 2001 points it lies within 3e-8
relative of the frozen ``ORACLE_*`` optima of ``test_region.py``.
"""
import itertools
import math

import numpy as np
from scipy.optimize import linprog

SQRT2 = math.sqrt(2.0)


def divergences(d):
    """Per-x3 KL (bits) of the user-1-on and user-2-on rows against the
    all-off row: keys 'y1', 'y2' (receiver) and 'z1', 'z2' (warden)."""
    k = d.x3_size
    out = {}
    for side, g in (("y", d.gamma_y), ("z", d.gamma_z)):
        off = g[:k]                              # rows (0, 0, x3)
        for user, on in ((1, g[2 * k:3 * k]), (2, g[k:2 * k])):
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(on > 0, on * np.log(on / off), 0.0)
            out[f"{side}{user}"] = terms.sum(axis=1) / math.log(2.0)
    return out


def chi2_coefficients(d):
    """(A, B, C) per x3 with chi2(lam, x3) = A lam^2 + 2B lam(1-lam) + C (1-lam)^2;
    all three are inf where a covert-on warden row leaves the all-off support."""
    k = d.x3_size
    off, on2, on1 = d.gamma_z[:k], d.gamma_z[k:2 * k], d.gamma_z[2 * k:3 * k]
    sup = off > 0
    w = np.where(sup, off, 1.0)
    b1, b2 = np.where(sup, on1 / w - 1.0, 0.0), np.where(sup, on2 / w - 1.0, 0.0)
    coef = np.array([(w * b1 * b1).sum(1), (w * b1 * b2).sum(1),
                     (w * b2 * b2).sum(1)])
    coef[:, (~sup & ((on1 > 0) | (on2 > 0))).any(1)] = np.inf
    return coef


def max_r2(d, r1_min, k1_max, k2_max, fix_x3=None, n_lambda=2001):
    """Optimal r2 over plans whose modes use the lam grid of ``n_lambda``
    points, and only x3 = ``fix_x3`` when it is given."""
    dv = divergences(d)
    A, B, C = chi2_coefficients(d)
    lam = np.linspace(0.0, 1.0, n_lambda)
    xs = np.arange(d.x3_size) if fix_x3 is None else np.array([fix_x3])
    x, lam = np.repeat(xs, n_lambda), np.tile(lam, len(xs))
    ok = np.isfinite(A[x])                       # drop support violations
    x, lam = x[ok], lam[ok]
    den = np.sqrt(A[x] * lam ** 2 + 2 * B[x] * lam * (1 - lam)
                  + C[x] * (1 - lam) ** 2)
    n1, n2 = lam * dv["y1"][x], (1 - lam) * dv["y2"][x]
    key1 = lam * (dv["z1"] - dv["y1"])[x]
    key2 = (1 - lam) * (dv["z2"] - dv["y2"])[x]
    # variables (v_1..v_M, t); minimise t = 1 / r2
    rows = [np.append(den, -SQRT2),                       # D <= sqrt2 t
            np.append(r1_min * den - SQRT2 * n1, 0.0)]    # r1 >= r1_min
    if math.isfinite(k2_max):
        rows.append(np.append(key2, -k2_max))             # k2 <= k2_max
    if math.isfinite(k1_max):
        rows.append(np.append(r1_min * key1 - k1_max * n1, 0.0))
    res = linprog(np.append(np.zeros(len(x)), 1.0), A_ub=np.array(rows),
                  b_ub=np.zeros(len(rows)), A_eq=[np.append(n2, 0.0)],
                  b_eq=[1.0], bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return math.inf if res.fun <= 0 else 1.0 / res.fun


def mutual_info(d, q):
    """I(X3; Y) in bits of each x3 law (rows of q) through the receiver rows
    with both covert users off."""
    sub = d.gamma_y[:d.x3_size]
    py = q @ sub
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(sub[None] > 0,
                         sub[None] * np.log(sub[None] / py[:, None, :]), 0.0)
    return (q * terms.sum(axis=2)).sum(axis=1) / math.log(2.0)


def x3_laws(k, steps):
    """Every law over k symbols with probabilities in multiples of 1/steps."""
    pts = [c for c in itertools.product(range(steps + 1), repeat=k)
           if sum(c) == steps]
    return np.array(pts, dtype=float) / steps


def max_r2_r3(d, r1_min, R3_min, k1_max, k2_max, n_lambda=21, q_steps=20,
              u_grid=2.0 ** (np.arange(-24, 25) / 16)):
    """A lower bound on max r2 at R3 >= R3_min: the best plan whose phases
    come from a fixed grid, with mixing ratio lam on ``n_lambda`` points,
    x3 law q on the lattice of ``q_steps`` steps and covert density
    a = u / sqrt(chi2(lam, q)) for u in ``u_grid`` or a = 0 (silent).

    Each grid point is a phase of time share p, the LP variable; every
    numerator, G = D^2 and R3 = sum p I(q) are linear in p.  With G <= 1
    (rates are scale-free), r2 = min(sqrt2 N2, k2_max N2 / K2), a max-min
    of ratios; the Dinkelbach-type loop maximizes s <= sqrt2 N2 - z,
    s <= k2_max N2 - z K2 and moves z to the r2 of the LP's plan until
    s <= 1e-12.  Every z is the r2 of a real plan, hence a lower bound.
    """
    dv = divergences(d)
    coef = chi2_coefficients(d)
    lam = np.linspace(0.0, 1.0, n_lambda)[:, None]
    q = x3_laws(d.x3_size, q_steps)
    used = q > 0
    covert = ~(used & ~np.isfinite(coef[0])).any(axis=1)

    def dot(v):                                  # q . v, 0 * inf = 0
        return np.where(used, q * np.where(np.isfinite(v), v, 0.0), 0.0).sum(1)

    w = np.where(np.isfinite(coef), coef, 0.0)
    chi = (lam ** 2 * dot(w[0]) + 2 * lam * (1 - lam) * dot(w[1])
           + (1 - lam) ** 2 * dot(w[2]))
    n1, n2 = lam * dot(dv["y1"]), (1 - lam) * dot(dv["y2"])
    key1 = lam * dot(dv["z1"] - dv["y1"])
    key2 = (1 - lam) * dot(dv["z2"] - dv["y2"])
    info = mutual_info(d, q)
    ok = covert[None, :] & (chi > 0)
    n1, n2, key1, key2, chi, info_ok = (np.broadcast_to(v, ok.shape)[ok] for v
                                        in (n1, n2, key1, key2, chi, info))
    a = u_grid[:, None] / np.sqrt(chi)[None, :]
    # columns: every (lam, q, u), then silent time at every q
    silent = np.zeros(len(q))
    cols = {name: np.append((a * v).ravel(), silent) for name, v in (
        ("n1", n1), ("n2", n2), ("key1", key1), ("key2", key2),
        ("g", a * chi))}
    cols["info"] = np.append(np.broadcast_to(info_ok, a.shape).ravel(), info)
    m = len(cols["g"])
    z = 0.0
    for _ in range(100):
        rows, rhs = [cols["g"]], [1.0]
        rows.append(-SQRT2 * cols["n1"])
        rhs.append(-r1_min)
        if r1_min > 0 and math.isfinite(k1_max):
            rows.append(r1_min * cols["key1"] - k1_max * cols["n1"])
            rhs.append(0.0)
        elif k1_max == 0:
            rows.append(cols["key1"])
            rhs.append(0.0)
        rows.append(-cols["info"])
        rhs.append(-R3_min)
        s_col = [0.0] * len(rows)
        rows.append(-SQRT2 * cols["n2"])
        rhs.append(-z)
        if math.isfinite(k2_max):
            rows.append(z * cols["key2"] - k2_max * cols["n2"])
            rhs.append(0.0)
        s_col += [1.0] * (len(rows) - len(s_col))
        res = linprog(np.append(np.zeros(m), -1.0),
                      A_ub=np.column_stack([np.array(rows), s_col]), b_ub=rhs,
                      A_eq=[np.append(np.ones(m), 0.0)], b_eq=[1.0],
                      bounds=[(0, None)] * m + [(None, None)], method="highs")
        if res.status != 0:
            raise RuntimeError(f"LP oracle failed: {res.message}")
        p = res.x[:m]
        n2_p, key2_p, g_p = p @ cols["n2"], p @ cols["key2"], p @ cols["g"]
        r2 = SQRT2 * n2_p / math.sqrt(g_p) if n2_p > 0 else 0.0
        if key2_p > 0:
            r2 = min(r2, k2_max * n2_p / key2_p)
        z = max(z, r2)
        if res.x[-1] <= 1e-12:
            break
    return z
