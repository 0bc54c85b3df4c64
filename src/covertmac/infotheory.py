"""Information measures: KL divergence, per-x3 divergence profile, the
chi-square covertness distance, conditional mutual information, and capacity
of the receiver sub-channel via Blahut-Arimoto.

chi_square, mutual_info_x3 and capacity_x3 check their inputs and then read
one _ChannelTerms table per (Dmc, unit), built on first use and kept on the
frozen Dmc; the region evaluators and LPs read the same table.  So
capacity_x3(d, unit) runs Blahut-Arimoto once per (channel, unit).  Two
kernels of the table serve every caller: ``divergences`` (I(X3; Y),
Blahut-Arimoto, the plan evaluator) reads the receiver rows, their mask and
a zero-free copy; ``chi`` (chi_square, the plan evaluator) reads the warden
rows stacked by support size.

All log-based quantities take a ``unit`` argument, either ``"bits"`` or
``"nats"``.  The library default is bits: it is the unit that reproduces the
reference capacity value 0.197534 on the shipped example channel (natural log
gives 0.136920).  The chi-square distance is unit-free.

The chi-square here is the Pearson divergence between the normalized one-user
mixture and the all-off warden row,

    chi2(rho1, rho2, x3) = sum_z (mix(z) - G00(z))^2 / G00(z),
    mix = (rho1*G10 + rho2*G01) / (rho1 + rho2),

the small-signal limit that controls the warden divergence: for input
densities rho*alpha -> 0 the exact mixture KL equals
(alpha*(rho1+rho2))^2/2 * chi2 up to a (1 + o(1)) factor (in nats).
``mixture_kl`` evaluates the exact KL so that convergence can be checked.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .channel import Dmc, SIDE_Y, SIDE_Z, _cached, _rows

DEFAULT_UNIT = "bits"
_LN2 = math.log(2.0)


def unit_factor(unit: str) -> float:
    """Divisor converting a natural-log quantity to ``unit``."""
    if unit == "nats":
        return 1.0
    if unit == "bits":
        return _LN2
    raise ValueError(f"unit must be 'bits' or 'nats', got {unit!r}")


def _check_distribution(name: str, p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"{name} must be a vector")
    if not np.isfinite(p).all():
        raise ValueError(f"{name} has a non-finite entry")
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} is not a probability distribution")
    return p


def kl_div(p, q, unit: str = DEFAULT_UNIT) -> float:
    """KL divergence sum p log(p/q), with 0*log 0 = 0.

    Returns +inf when p puts mass where q has none.
    """
    p = _check_distribution("p", p)
    q = _check_distribution("q", q)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    mask = p > 0
    if np.any(q[mask] == 0):
        return math.inf
    val = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    return val / unit_factor(unit)


class DivergenceProfile:
    """Per-x3 divergences of the two covert users, receiver and warden side.

    Arrays indexed by x3: ``d_y1[x3]`` = KL of the (1,0,x3) receiver row
    against the (0,0,x3) row, etc.; ``d_zy`` entries are the exact differences
    d_z - d_y (the warden's advantage, whose positive part prices the key).
    """

    def __init__(self, d_y1, d_y2, d_z1, d_z2, unit: str):
        self.d_y1, self.d_y2, self.d_z1, self.d_z2 = (
            np.asarray(v, dtype=float) for v in (d_y1, d_y2, d_z1, d_z2))
        self.d_zy1 = self.d_z1 - self.d_y1
        self.d_zy2 = self.d_z2 - self.d_y2
        self.unit = unit

    def rows(self):
        for x3 in range(len(self.d_y1)):
            yield (x3, self.d_y1[x3], self.d_y2[x3], self.d_z1[x3],
                   self.d_z2[x3], self.d_zy1[x3], self.d_zy2[x3])


def divergence_profile(d: Dmc, unit: str = DEFAULT_UNIT) -> DivergenceProfile:
    """All six one-user divergences for every x3."""
    return DivergenceProfile(*(
        [kl_div(d.row(side, *on, x3), d.row(side, 0, 0, x3), unit)
         for x3 in range(d.x3_size)]
        for side in (SIDE_Y, SIDE_Z) for on in ((1, 0), (0, 1))), unit)


def chi_square(d: Dmc, rho1: float, rho2: float, x3: int) -> float:
    """Covertness chi-square of the (rho1:rho2) mixture at non-covert symbol x3.

    Depends on (rho1, rho2) only through the ratio.  Returns +inf on an
    absolute-continuity violation at x3.
    """
    if not (0 <= rho1 < math.inf and 0 <= rho2 < math.inf):   # NaN fails
        raise ValueError("rho1, rho2 must be finite and non-negative")
    if rho1 + rho2 == 0:
        raise ValueError("rho1 + rho2 = 0: mixture weight undefined "
                         "(degenerate phases contribute zero by convention)")
    d.row_index(0, 0, x3)          # IndexError for an x3 outside the alphabet
    # chi-square is unit-free: any unit's table gives the same value
    chi = _channel_terms(d, DEFAULT_UNIT).chi(np.array([rho1], dtype=float),
                                              np.array([rho2], dtype=float))
    return float(chi[0, x3])


def mutual_info_x3(d: Dmc, p_x3, unit: str = DEFAULT_UNIT) -> float:
    """I(X3; Y) through the receiver rows with both covert users silent."""
    p = _check_distribution("p_x3", p_x3)
    if p.shape != (d.x3_size,):
        raise ValueError(f"p_x3 must have length {d.x3_size}")
    return _channel_terms(d, unit).mutual_info(p[None])[0]


def capacity_x3(d: Dmc, unit: str = DEFAULT_UNIT) -> tuple[float, np.ndarray]:
    """Capacity of the x3 -> Y sub-channel and a capacity-achieving law.

    Blahut-Arimoto runs once per (d, unit); the law returned is a copy.
    """
    cap, law = _channel_terms(d, unit).capacity
    return cap, law.copy()


def mixture_kl(d: Dmc, rho1: float, rho2: float, x3: int, alpha: float,
               unit: str = DEFAULT_UNIT) -> float:
    """Exact KL of the two-user Bernoulli(rho*alpha) warden mixture vs all-off.

    The mixture includes the (1,1) term of order alpha^2; support violations
    give +inf.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if rho1 * alpha > 1 or rho2 * alpha > 1:
        raise ValueError("rho*alpha must be a probability (<= 1)")
    if alpha == 0 or (rho1 == 0 and rho2 == 0):
        return 0.0
    a1, a2 = rho1 * alpha, rho2 * alpha
    w = ((1 - a1) * (1 - a2) * d.row(SIDE_Z, 0, 0, x3)
         + a1 * (1 - a2) * d.row(SIDE_Z, 1, 0, x3)
         + (1 - a1) * a2 * d.row(SIDE_Z, 0, 1, x3)
         + a1 * a2 * d.row(SIDE_Z, 1, 1, x3))
    return kl_div(w, d.row(SIDE_Z, 0, 0, x3), unit)


def _xlogx(v):
    return np.where(v > 0, v * np.log(np.where(v > 0, v, 1.0)), 0.0)


class _ChannelTerms:
    """Per-x3 terms of one channel in one unit, in read-only arrays.

    ``profile``: the channel's divergence_profile.  ``div``: its rows D_Y1,
    D_Y2, D_Z1 - D_Y1, D_Z2 - D_Y2, split for the LPs into finite ``divs``
    and infinite ``inf``, both zero where the warden's support is violated
    (``ok`` False; a law sending it must be silent).
    ``coef``: (A, B, C), chi2(lam, x3) = A lam^2 + 2B lam(1-lam) +
    C (1-lam)^2.
    ``chi_rows``: the tables of the chi-square kernel ``chi``, one group per
    support size of the all-off warden row: the group's symbols x and
    their rows G00, G10, G01 on the support of G00, stacked.
    ``sub``: the receiver rows with both covert users off; ``sub_pos`` its
    mask sub > 0, ``sub_one`` sub with its zeros set to 1, and ``positive``
    True when sub has no zero: the tables of the divergence kernel
    ``divergences``."""

    def __init__(self, d: Dmc, unit: str):
        self.fac = unit_factor(unit)
        self.profile = prof = divergence_profile(d, unit)
        self.div = np.array([prof.d_y1, prof.d_y2, prof.d_zy1, prof.d_zy2])
        self.ok = ~np.isin(np.arange(d.x3_size), d.ac_violations)
        warden = {}
        self.coef = np.zeros((3, d.x3_size))
        for x in np.flatnonzero(self.ok):
            sup = d.row(SIDE_Z, 0, 0, x) > 0
            warden[x] = w = tuple(d.row(SIDE_Z, *on, x)[sup]
                                  for on in ((0, 0), (1, 0), (0, 1)))
            b = w[1] / w[0] - 1.0, w[2] / w[0] - 1.0
            self.coef[:, x] = [float(np.sum(w[0] * b[i] * b[j]))
                               for i, j in ((0, 0), (0, 1), (1, 1))]
        # grouped by support size, so that each chi-square is the sum of
        # one row of exactly its support's length
        self.chi_rows = []
        for size in sorted({len(w[0]) for w in warden.values()}):
            xs = [x for x, w in warden.items() if len(w[0]) == size]
            self.chi_rows.append((np.array(xs), *(
                np.array([warden[x][i] for x in xs]) for i in range(3))))
        fin = np.isfinite(self.div) | ~self.ok
        self.divs = np.where(fin & self.ok, self.div, 0.0)
        self.inf = np.where(fin, 0.0, self.div)
        # what laws() reads of inf and ok on every call
        self.inf_on, self.off = self.inf != 0, ~self.ok
        self.inf_sum = self.inf.sum(axis=1)[:, None]
        self.sub = d.gamma_y[_rows(d.x3_size, 0, 0, np.arange(d.x3_size))]
        self.sub_pos = self.sub > 0
        self.sub_one = np.where(self.sub_pos, self.sub, 1.0)
        self.positive = bool(self.sub_pos.all())
        self.neg_h = _xlogx(self.sub).sum(axis=1)
        self.one_hot = self.laws(np.eye(d.x3_size))
        for v in (*vars(self).values(), *vars(prof).values(), *self.one_hot,
                  *(a for group in self.chi_rows for a in group)):
            if isinstance(v, np.ndarray):
                v.setflags(write=False)

    @functools.cached_property
    def capacity(self):
        """(capacity, input law) by alternating maximization from the
        uniform law, stopped when the upper/lower capacity gap (in the
        table's unit) drops below 1e-10 or after 10 000 iterations."""
        m = len(self.sub)
        r = np.full(m, 1.0 / m)
        lower = 0.0
        for _ in range(10_000):
            dkl = self.divergences(r)
            top = dkl.max()
            upper = float(top) / self.fac
            lower = float(r @ dkl) / self.fac
            if upper - lower < 1e-10:
                break
            w = r * np.exp(dkl - top)
            r = w / w.sum()
        r.setflags(write=False)
        return max(0.0, lower), r

    def divergences(self, q):
        """D(row_x || q sub) in nats for every row x of sub, for one law q
        or for each law of a stack (rows of q, giving one row each); +inf
        where q sub misses part of row x's support.  A stack goes through
        matmul as (laws, 1, x3) @ sub, one gemv per law as for one law;
        (laws, x3) @ sub would be one gemm, which sums in another order."""
        py = np.matmul(q[..., None, :], self.sub)
        if self.positive:
            return (self.sub * np.log(self.sub_one / py)).sum(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.where(self.sub_pos, np.log(self.sub_one / py), 0.0)
        return (self.sub * lg).sum(axis=-1)

    def chi(self, rho1, rho2):
        """Chi-square at every x (columns) of the mixture of each pair
        (rho1[j], rho2[j]) (rows of the vectors rho1, rho2), all with
        rho1 + rho2 > 0; +inf where the warden's support is violated.
        chi_square checks the inputs."""
        r1, r2 = rho1[:, None, None], rho2[:, None, None]
        out = np.full((len(rho1), len(self.ok)), math.inf)
        for xs, q00, g10, g01 in self.chi_rows:
            diff = (r1 * g10 + r2 * g01) / (r1 + r2) - q00
            out[:, xs] = (diff * diff / q00).sum(axis=2)
        return out

    def mutual_info(self, q) -> list:
        """I(X3; Y) of each law (rows of q), as floats; mutual_info_x3
        checks q.  A symbol a law never sends adds 0, though its divergence
        may be infinite."""
        div = np.where(q > 0, self.divergences(q), 0.0)
        return [max(0.0, float(law @ row)) / self.fac
                for law, row in zip(q, div)]

    def info(self, q):
        """I(q) per law (rows of q)."""
        info = q @ self.neg_h - _xlogx(q @ self.sub).sum(axis=1)
        return np.maximum(info, 0.0) / self.fac

    def laws(self, q):
        """Per law (rows of q): q . divergences (infinite where q sends a
        symbol with an infinite one), q . (A, B, C), I(q), covert allowed."""
        dq = np.where(self.inf_on @ q.T > 0, self.inf_sum, self.divs @ q.T)
        return (dq, self.coef @ q.T, self.info(q),
                q[:, self.off].sum(axis=1) == 0)


def _channel_terms(d: Dmc, unit: str) -> _ChannelTerms:
    """The terms of d in ``unit``, built on first use and kept on d."""
    return _cached(d, "_terms_" + unit, _ChannelTerms, unit)
