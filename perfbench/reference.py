"""Independent evaluations the benchmark checks the program's outputs against.

Written from the formulas in the package docstrings, in plain Python floats,
so they share no code path with covertmac's evaluator.
"""
from __future__ import annotations

import math


def _kl(p, q) -> float:
    tot = 0.0
    for a, b in zip(p, q):
        if a > 0:
            if b == 0:
                return math.inf
            tot += a * math.log(a / b)
    return tot


def _row(gamma, x3_size, x1, x2, x3):
    return gamma[x1 * 2 * x3_size + x2 * x3_size + x3]


class ChannelTables:
    """Divergences, chi-square pieces and receiver rows of one channel (nats)."""

    def __init__(self, doc: dict):
        k = doc["x3_size"]
        gy, gz = doc["gamma_y"], doc["gamma_z"]
        self.x3_size = k
        self.dy = [[_kl(_row(gy, k, *u, x), _row(gy, k, 0, 0, x)) for x in range(k)]
                   for u in ((1, 0), (0, 1))]
        dz = [[_kl(_row(gz, k, *u, x), _row(gz, k, 0, 0, x)) for x in range(k)]
              for u in ((1, 0), (0, 1))]
        self.dzy = [[z - y for z, y in zip(dz[u], self.dy[u])] for u in (0, 1)]
        self.z_rows = [(_row(gz, k, 0, 0, x), _row(gz, k, 1, 0, x), _row(gz, k, 0, 1, x))
                       for x in range(k)]
        self.y_off = [_row(gy, k, 0, 0, x) for x in range(k)]

    def chi2(self, rho1, rho2, x3) -> float:
        g00, g10, g01 = self.z_rows[x3]
        tot = 0.0
        for a, b, c in zip(g00, g10, g01):
            mix = (rho1 * b + rho2 * c) / (rho1 + rho2)
            if a > 0:
                tot += (mix - a) ** 2 / a
            elif mix > 0:
                return math.inf
        return tot

    def mutual_info(self, q) -> float:
        py = [sum(q[x] * self.y_off[x][j] for x in range(self.x3_size))
              for j in range(len(self.y_off[0]))]
        tot = 0.0
        for x, w in enumerate(q):
            if w > 0:
                for j, v in enumerate(self.y_off[x]):
                    if v > 0:
                        tot += w * v * math.log(v / py[j])
        return max(0.0, tot)


def rate_tuple(tables: ChannelTables, plan: dict, unit: str) -> tuple:
    """(r1, r2, R3, k1, k2) of a plan with at least one active covert phase."""
    fac = math.log(2.0) if unit == "bits" else 1.0
    num, key, dsq, r3 = [0.0, 0.0], [0.0, 0.0], 0.0, 0.0
    for p, q, rho1, rho2 in zip(plan["p_t"], plan["p_x3_given_t"],
                                plan["rho1"], plan["rho2"]):
        r3 += p * tables.mutual_info(q)
        if rho1 + rho2 == 0 or p == 0:
            continue
        for u, rho in enumerate((rho1, rho2)):
            num[u] += p * rho * sum(w * tables.dy[u][x] for x, w in enumerate(q) if w > 0)
            key[u] += p * rho * sum(w * tables.dzy[u][x] for x, w in enumerate(q) if w > 0)
        dsq += p * (rho1 + rho2) ** 2 * sum(
            w * tables.chi2(rho1, rho2, x) for x, w in enumerate(q) if w > 0)
    dd = math.sqrt(dsq)
    betas = (plan["beta1"], plan["beta2"])
    r = [math.sqrt(2) * b * n / fac / dd for b, n in zip(betas, num)]
    k = [max(0.0, math.sqrt(2) * b * n / fac / dd) for b, n in zip(betas, key)]
    return r[0], r[1], r3 / fac, k[0], k[1]


def padding(plan: dict, n: int, omega: float) -> tuple[int, list]:
    """(shorter user, per-position padding density or None) of a block.

    The user with the larger beta is active on floor(beta_max^2 * n_t)
    symbols of phase t, the other on floor(beta * beta_max * n_t); the
    shorter one pads the gap at its code density rho * omega / sqrt(n_t).
    """
    lens = [int(math.floor(n * p)) for p in plan["p_t"]]
    lens[-1] += n - sum(lens)
    b1, b2 = plan["beta1"], plan["beta2"]
    bmax = max(b1, b2)
    short = 2 if b1 >= b2 else 1
    pad = [None] * n
    off = 0
    for t, nt in enumerate(lens):
        lo = int(math.floor((b2 if short == 2 else b1) * bmax * nt))
        hi = int(math.floor((b1 if short == 2 else b2) * bmax * nt))
        rho = plan["rho2"][t] if short == 2 else plan["rho1"][t]
        dens = min(1.0, rho * omega / math.sqrt(nt)) if nt > 0 else 0.0
        for j in range(lo, hi):
            pad[off + j] = dens
        off += nt
    return short, pad


def convexity_bound(gamma_z, x3_size, n, plan: dict, omega, codewords, x3) -> float:
    """Pair average of sum_i KL(warden row_i || all-off row_i), in nats.

    By convexity of KL this bounds the exact divergence of the pair mixture.
    ``codewords`` lists the (x1, x2) block sequences of every (message, key)
    pair; the shorter-active user's padding symbols are Bernoulli mixtures at
    its code density.
    """
    short, pad = padding(plan, n, omega)
    total = 0.0
    for x1, x2 in codewords:
        for i in range(n):
            ref = _row(gamma_z, x3_size, 0, 0, x3[i])
            if pad[i] is None:
                row = _row(gamma_z, x3_size, x1[i], x2[i], x3[i])
            else:
                a = (x1[i], 0) if short == 2 else (0, x2[i])
                b = (x1[i], 1) if short == 2 else (1, x2[i])
                ra, rb = _row(gamma_z, x3_size, *a, x3[i]), _row(gamma_z, x3_size, *b, x3[i])
                row = [(1 - pad[i]) * u + pad[i] * v for u, v in zip(ra, rb)]
            total += _kl(row, ref)
    return total / len(codewords)
