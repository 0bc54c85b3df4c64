"""A per-(phase, x3) scalar evaluation of a plan's quantities, kept as a
bit-exact oracle for ``covertmac.region._plan_quantities``.

``plan_quantities(d, plan, unit)`` returns (num, key, Dsq, R3) as the
evaluator does, with the same floating-point operations in the same order:
per phase, I(q) through the receiver rows' output divergences, the four
numerators as BLAS dots over the symbols the phase sends, and the
chi-square of the (rho1 : rho2) mixture summed over those symbols one by
one.  It reads the channel only through ``divergence_profile`` and the raw
rows, so a change to the evaluator's tables cannot change the oracle too.
Callers compare the two with ``float.hex``.
"""
import math

import numpy as np

from covertmac.infotheory import divergence_profile, unit_factor


def output_divergences(sub, p):
    """D(row_x || p @ sub) in nats for every row x of ``sub``."""
    py = p @ sub
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = np.where(sub > 0,
                      np.log(np.where(sub > 0, sub, 1.0) / py[None, :]), 0.0)
    return np.sum(sub * lg, axis=1)


def mutual_info(d, q, unit):
    """I(X3; Y) of one law q; a symbol q never sends adds 0."""
    div = output_divergences(d.gamma_y[:d.x3_size], q)
    return max(0.0, float(q @ np.where(q > 0, div, 0.0))) / unit_factor(unit)


def chi_square(d, rho1, rho2, x):
    """Chi-square of the (rho1 : rho2) mixture at x over the support of the
    all-off warden row; +inf where the warden's support is violated."""
    if x in d.ac_violations:
        return math.inf
    k = d.x3_size
    gz = d.gamma_z
    sup = gz[x] > 0
    q00, g10, g01 = gz[x][sup], gz[2 * k + x][sup], gz[k + x][sup]
    diff = (rho1 * g10 + rho2 * g01) / (rho1 + rho2) - q00
    return float(np.sum(diff * diff / q00))


def plan_quantities(d, plan, unit):
    """(num, key, Dsq, R3) of ``plan``, one phase and one symbol at a time."""
    prof = divergence_profile(d, unit)
    div = np.array([prof.d_y1, prof.d_y2, prof.d_zy1, prof.d_zy2])
    nk = [0.0] * 4
    dsq = r3 = 0.0
    for p, q, rho1, rho2 in zip(plan.p_t, plan.p_x3_given_t, plan.rho1,
                                plan.rho2):
        q = np.asarray(q, dtype=float)
        r3 += p * mutual_info(d, q, unit)
        a = rho1 + rho2
        if a == 0 or p == 0:
            continue
        m = q > 0
        for i, rho in enumerate((rho1, rho2) * 2):
            if rho:
                nk[i] += p * rho * float(q[m] @ div[i, m])
        chi = sum(q[x] * chi_square(d, rho1, rho2, x)
                  for x in np.flatnonzero(m))
        dsq += p * a * a * chi
    return nk[:2], nk[2:], float(dsq), r3


def hexed(quantities):
    """The quantities as a flat tuple of float.hex strings."""
    num, key, dsq, r3 = quantities
    return tuple(float.hex(float(v)) for v in (*num, *key, dsq, r3))
