"""Finite-blocklength embodiment of the coding scheme: phase-multiplexed
random codebooks, encoding under both hypotheses, the successive threshold
decoder, Monte-Carlo error estimation, and the exact warden divergence at
desk scale.

The exact divergence enumerates every output sequence, in blocks of at most
_SUM_CHUNK outputs whose terms go to an exact accumulator as they are made,
so its memory is bounded by _PREFIX_CAP doubles plus a few blocks for any n,
and ENUM_CAP bounds only its time.

Covert codewords are i.i.d. Bernoulli at density rho * omega_n / sqrt(n_t)
(region._codeword_densities) over the active fraction of each phase, while
the thresholds and the divergence predictor weight phase t by p_t (region's
docstring); the non-covert codewords are i.i.d. from the phase's x3
distribution.  Under hypothesis 0 the covert users send all-zero sequences.
All randomness flows through numpy Generators seeded from (seed, trial
index), so reports are reproducible under any scheduling.  The x3 words
are uint8 and equal rng.choice's bit for bit, from the same uniforms.
SimConfig is frozen and owns the run's layout (SimConfig.layout, a
_Layout), which all its ensembles share.  Sampling (a guide table,
_Guide) and decoding (log gamma_y) read per-channel tables cached on the
Dmc through channel._cached; every row comes from channel._rows.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import Dmc, _cached, _rows
from .infotheory import unit_factor
from .region import PhasePlan, _codeword_densities, _evaluate

WILSON_Z = 1.959963984540054      # 95% two-sided
MU = 0.5                          # auto-threshold backoff
ENUM_CAP = 1 << 26                # most |Z|^n x pairs exact_delta enumerates


class EnumerationCapError(RuntimeError):
    """Exact-divergence enumeration would exceed ENUM_CAP."""


@dataclass(frozen=True)
class SimConfig:
    n: int
    plan: PhasePlan
    m1: int = 2
    m2: int = 2
    m3: int = 2
    k1: int = 1
    k2: int = 1
    omega_n: float | None = None        # default n**-0.25
    trials: int = 1000
    seed: int = 0
    exact_divergence: bool = False
    fixed_codebook: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.omega_n is None:
            object.__setattr__(self, "omega_n", float(self.n) ** -0.25)
        if not (math.isfinite(self.omega_n) and self.omega_n > 0):
            raise ValueError("omega_n must be finite and positive")
        for name in ("m1", "m2", "m3", "k1", "k2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.trials < 0:
            raise ValueError("trials must be non-negative")

    def pair_count(self) -> int:
        return self.m1 * self.k1 * self.m2 * self.k2

    @cached_property
    def layout(self) -> _Layout:
        """What this configuration's ensembles share, made on first use."""
        return _Layout(self)


def phase_lengths(n: int, p_t) -> list[int]:
    """floor(n * p_t) per phase, remainder assigned to the last phase."""
    lens = [int(math.floor(n * p)) for p in p_t]
    lens[-1] += n - sum(lens)
    return lens


class _Layout:
    """What one configuration's ensembles share: phase spans,
    _codeword_densities' results, padding map, x3 cdfs.  The frozen
    SimConfig owns it (SimConfig.layout, made on first use), so a run
    makes it once."""

    def __init__(self, cfg: SimConfig):
        self.n_t = phase_lengths(cfg.n, cfg.plan.p_t)
        self.offsets = np.concatenate([[0], np.cumsum(self.n_t)]).astype(int)
        ((self.phi1, self.phi2, self.swapped), (self.active1, self.active2),
         self.dens, self.clip_warnings) = _codeword_densities(
             cfg.plan, self.n_t, cfg.omega_n)
        self.cdfs, pad_idx, pad_p = [], [], []
        for t, q in enumerate(cfg.plan.p_x3_given_t):
            cdf = np.asarray(q, dtype=float).cumsum()
            self.cdfs.append(cdf / cdf[-1])
            # the shorter-active user pads [active_short, active_long)
            lo, hi = sorted((self.active1[t], self.active2[t]))
            pad_idx.append(self.offsets[t] + np.arange(lo, hi))
            pad_p.append(np.full(hi - lo, self.dens[not self.swapped][t]))
        self.pad_idx, self.pad_p = map(np.concatenate, (pad_idx, pad_p))
        for a in (self.pad_idx, self.pad_p, *self.cdfs):
            a.flags.writeable = False


class CodebookEnsemble:
    """Random codebooks for one (plan, n, omega_n, sizes) configuration.

    Each codebook is stored once at block length: ``x1`` (m1, k1, n) and
    ``x2`` (m2, k2, n) hold zeros outside each phase's active span, ``x3``
    (m3, n) and so ``x3_sequence`` are uint8 (the least unsigned type that
    holds x3_size - 1).  The frozen SimConfig owns the run's ``layout``,
    which all its ensembles share: ``layout.pad_idx``/``layout.pad_p`` are
    the positions and densities of the shorter-active user's padding.
    Arrays are read-only.
    """

    def __init__(self, cfg: SimConfig, rng: np.random.Generator, d_x3_size: int):
        self.cfg, self.n = cfg, cfg.n
        self.layout = lay = cfg.layout
        if len(lay.cdfs[0]) != d_x3_size:
            raise ValueError("plan x3 alphabet does not match the channel")
        self.x1 = np.zeros((cfg.m1, cfg.k1, cfg.n), dtype=np.uint8)
        self.x2 = np.zeros((cfg.m2, cfg.k2, cfg.n), dtype=np.uint8)
        self.x3 = np.zeros((cfg.m3, cfg.n), np.min_scalar_type(d_x3_size - 1))
        for t, (nt, off) in enumerate(zip(lay.n_t, lay.offsets)):
            a1, a2 = lay.active1[t], lay.active2[t]
            self.x1[:, :, off:off + a1] = rng.random((cfg.m1, cfg.k1, a1)) < lay.dens[0][t]
            self.x2[:, :, off:off + a2] = rng.random((cfg.m2, cfg.k2, a2)) < lay.dens[1][t]
            _choice_into(rng, lay.cdfs[t], self.x3[:, off:off + nt])
        for a in (self.x1, self.x2, self.x3):
            a.flags.writeable = False

    def x3_sequence(self, w3: int) -> np.ndarray:
        return self.x3[w3]

    def covert_sequence(self, user: int, w: int, s: int) -> np.ndarray:
        """Codeword symbols placed in the block, zeros elsewhere (no padding)."""
        return (self.x1 if user == 1 else self.x2)[w, s].copy()


def _choice_into(rng: np.random.Generator, cdf: np.ndarray,
                 out: np.ndarray) -> None:
    """Fill the zero integer array ``out`` with rng.choice(len(q), out.shape,
    p=q) bit for bit, from the same uniforms, where ``cdf`` is q's cumsum
    over its last entry, as choice makes it.  choice draws rng.random(shape)
    and takes searchsorted(cdf, u, "right"): as the cdf never falls and ends
    at exactly 1 > u, the number of the other entries at or below u."""
    u = rng.random(out.shape)
    for c in cdf[:-1]:
        out += u >= c


def build_codebooks(cfg: SimConfig, rng: np.random.Generator,
                    d: Dmc) -> CodebookEnsemble:
    """Draw a fresh random-coding ensemble; deterministic given the rng state."""
    return CodebookEnsemble(cfg, rng, d.x3_size)


def encode(ens: CodebookEnsemble, hypothesis: int, w1: int, s1: int,
           w2: int, s2: int, w3: int, rng: np.random.Generator):
    """Channel inputs (x1, x2, x3) for one transmission.

    Under hypothesis 0 both covert users send all-zero sequences.  Under
    hypothesis 1 the shorter-active covert user pads the gap up to the longer
    user's active fraction with fresh i.i.d. symbols at its code density.
    """
    cfg = ens.cfg
    if not (0 <= w3 < cfg.m3):
        raise IndexError("w3 out of range")
    x3 = ens.x3[w3]
    if hypothesis == 0:
        z = np.zeros(ens.n, dtype=np.uint8)
        return z, z.copy(), x3
    if not (0 <= w1 < cfg.m1 and 0 <= s1 < cfg.k1
            and 0 <= w2 < cfg.m2 and 0 <= s2 < cfg.k2):
        raise IndexError("message or key index out of range")
    lay = ens.layout
    x = [ens.x1[w1, s1], ens.x2[w2, s2]]
    short = 0 if lay.swapped else 1
    x[short] = x[short].copy()
    x[short][lay.pad_idx] = rng.random(len(lay.pad_idx)) < lay.pad_p
    return x[0], x[1], x3


class _Guide:
    """Inverse-CDF sampler of a matrix's rows with a guide table (Chen and
    Asau, 1974): row r's output for a uniform u is the number of its first
    |Y| - 1 cumulative sums c_j at or below u (they never fall, so the last
    symbol takes any mass that rounding leaves above them).  With B a power
    of two, b = floor(u B) is exact; ``start[r B + b]`` is the position in
    ``sums`` (the c_j, each row padded with 2.0 > u) of row r's first
    c_j > b / B, and ``steps`` comparisons pass each c_j <= (b + 1) / B."""

    def __init__(self, mat: np.ndarray):
        n_rows, size = mat.shape
        self.buckets = b = 1 << size.bit_length() + 3   # in (8|Y|, 16|Y|]
        cum = np.cumsum(mat, axis=1)
        cum[:, -1] = 2.0
        edges = np.arange(b + 1) / b
        at = np.array([np.searchsorted(c, edges, "right") for c in cum])
        self.steps = int(np.diff(at).max(initial=0))
        self.start = (at[:, :-1] + np.arange(n_rows)[:, None] * size).ravel()
        self.sums, self.label = cum.ravel(), np.tile(np.arange(size), n_rows)

    def draw(self, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One output per row (intp) from len(rows) uniforms."""
        u = rng.random(len(rows))
        key = rows * self.buckets
        key += (u * self.buckets).astype(np.intp)
        pos = self.start.take(key)
        for _ in range(self.steps):
            pos += u >= self.sums.take(pos)
        return self.label.take(pos)     # the column of each position


class _Tables:
    """The trial path's tables of one channel: samplers ``y`` and ``z``, and
    log(gamma_y) at the rows (0,0,x3), (1,0,x3) and (0,1,x3), each with the
    entry for (x3, y) at y |X3| + x3 (``log_y``)."""

    def __init__(self, d: Dmc):
        self.y, self.z = _Guide(d.gamma_y), _Guide(d.gamma_z)
        x = np.arange(d.x3_size)
        with np.errstate(divide="ignore"):
            self.log_y = [np.log(d.gamma_y[_rows(d.x3_size, *on, x)]).T.ravel()
                          for on in ((0, 0), (1, 0), (0, 1))]


def _tables(d: Dmc) -> _Tables:
    """The trial tables of d, built on first use and kept on d."""
    return _cached(d, "_sim_tables", _Tables)


def channel_sample(d: Dmc, x1, x2, x3, rng: np.random.Generator):
    """Memoryless outputs (y, z); the two sides are sampled independently.
    A symbol outside its input alphabet raises IndexError."""
    xs = [np.asarray(x, dtype=int) for x in (x1, x2, x3)]
    for name, x, size in zip(("x1", "x2", "x3"), xs, (2, 2, d.x3_size)):
        if x.size and not (x.min() >= 0 and x.max() < size):
            raise IndexError(f"{name} has a symbol outside [0, {size})")
    if not (len(xs[0]) == len(xs[1]) == len(xs[2])):
        raise ValueError("input sequences must have equal length")
    rows, tab = _rows(d.x3_size, *xs), _tables(d)
    return tab.y.draw(rows, rng), tab.z.draw(rows, rng)


def _receiver_sample(d: Dmc, x1, x2, x3, rng: np.random.Generator):
    """channel_sample's y for inputs in range (0: a silent user), unchecked.
    advance skips z's uniforms (the next doubles are channel_sample's) and
    clears PCG64's 32-bit buffer: a later rng.integers would differ."""
    y = _tables(d).y.draw(_rows(d.x3_size, x1, x2, x3), rng)
    rng.bit_generator.advance(len(y))
    return y


@dataclass(frozen=True)
class DecodeResult:
    w3: int
    w1: int | None = None     # None = stage not run (H=0) or stage error
    w2: int | None = None


def auto_thresholds(d: Dmc, plan: PhasePlan, n: int,
                    omega_n: float) -> tuple[float, float]:
    """eta_l = (1 - MU) * omega_n * sqrt(n) * E[rho_l D_Y^(l)], natural log."""
    return _evaluate(d, plan, "nats").thresholds(n, omega_n, MU)


def decode(ens: CodebookEnsemble, d: Dmc, yn, s1: int, s2: int,
           hypothesis: int, eta1: float, eta2: float) -> DecodeResult:
    """Successive decoder: w3 by maximum likelihood assuming silent covert
    users, then each covert message by a unique-above-threshold rule within
    the known key's sub-codebook.  Ties and failures resolve to the lowest
    index and stage errors respectively.  An output outside [0, |Y|) raises
    IndexError."""
    y = np.asarray(yn, dtype=int)
    if y.size and not (y.min() >= 0 and y.max() < d.y_size):
        raise IndexError(f"y has a symbol outside [0, {d.y_size})")
    log_off, *log_on = _tables(d).log_y
    y_off = y * d.x3_size           # (x3, y) at y_off + x3
    # step 1: non-covert message, all-zero covert inputs assumed
    w3_hat = int(np.argmax(_w3_scores(ens, log_off, y_off)))
    if hypothesis == 0:
        return DecodeResult(w3=w3_hat)
    at = np.add(ens.x3[w3_hat], y_off, dtype=np.intp)
    base = log_off.take(at)
    hats = []
    with np.errstate(invalid="ignore"):
        for sub, log, eta in ((ens.x1[:, s1], log_on[0], eta1),
                              (ens.x2[:, s2], log_on[1], eta2)):
            gain = log.take(at) - base
            llr = np.where(sub.view(bool), gain, 0.0).sum(axis=1)
            hits = np.flatnonzero(llr > eta)
            hats.append(int(hits[0]) if len(hits) == 1 else None)
    return DecodeResult(w3=w3_hat, w1=hats[0], w2=hats[1])


_SCORE_BLOCK = 1 << 16             # most entries in one block of w3 scores


def _w3_scores(ens: CodebookEnsemble, log_off: np.ndarray,
               y_off: np.ndarray) -> np.ndarray:
    """Each w3's sum of log_off at y_off + x3[w3], in blocks of at most
    _SCORE_BLOCK entries or one row; a row's sum is its own.  Scores overwrite
    their index ("clip" take reads each index, then writes it in place)."""
    scores = np.empty(len(ens.x3))
    rows = max(1, _SCORE_BLOCK // ens.n)
    buf = np.empty((min(rows, len(scores)), ens.n), np.intp)
    for start in range(0, len(scores), rows):
        block = ens.x3[start:start + rows]
        idx = np.add(block, y_off, out=buf[:len(block)], dtype=np.intp)
        scores[start:start + len(block)] = log_off.take(
            idx, out=idx.view(float), mode="clip").sum(axis=1)
    return scores


@dataclass
class SimReport:
    trials_run: int
    pe0_hat: float | None
    pe0_interval: tuple | None
    pe1_hat: float | None
    pe1_interval: tuple | None
    stage_errors: dict = field(default_factory=dict)
    delta_exact: float | None = None
    delta_bound_ratio: float | None = None
    codebook_mode: str = "fresh-per-trial"
    clip_warnings: tuple = ()
    wall_time: float = 0.0


def wilson_interval(errors: int, trials: int, z: float = WILSON_Z):
    if trials == 0:
        return None
    phat = errors / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def run_trials(cfg: SimConfig, d: Dmc) -> SimReport:
    """Monte-Carlo error probabilities under both hypotheses.

    Per-trial RNG streams derive from (seed, trial index); with
    ``fixed_codebook`` one ensemble (stream (seed, 2^31)) serves every trial,
    otherwise each trial draws a fresh ensemble (random-coding average) and
    the exact divergence, if asked for, is taken on stream (seed, 2^31).
    That divergence is the mean of exact_delta over w3, which reads w3 only
    through the codeword x3[w3]: each distinct codeword is enumerated once.
    """
    t0 = time.perf_counter()
    ev = _evaluate(d, cfg.plan, "nats")
    if cfg.exact_divergence:    # an infinite chi2 or a bad omega_n fails now
        ev.rates()
        predictor = ev.predictor(cfg.n, cfg.omega_n)
    eta1, eta2 = ev.thresholds(cfg.n, cfg.omega_n, MU)
    rng_cb = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2**31]))
    ens = None                  # the fixed ensemble, or the last trial's
    e0 = e1 = 0
    stage = {"w3_h0": 0, "w3": 0, "w1": 0, "w2": 0}
    for trial in range(cfg.trials):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, trial]))
        if ens is None or not cfg.fixed_codebook:
            ens = build_codebooks(cfg, rng_cb if cfg.fixed_codebook else rng, d=d)
        w1 = int(rng.integers(cfg.m1)); s1 = int(rng.integers(cfg.k1))
        w2 = int(rng.integers(cfg.m2)); s2 = int(rng.integers(cfg.k2))
        w3 = int(rng.integers(cfg.m3))
        # hypothesis 0: the covert users send zeros
        y = _receiver_sample(d, 0, 0, ens.x3[w3], rng)
        e0 += decode(ens, d, y, s1, s2, 0, eta1, eta2).w3 != w3
        # hypothesis 1
        x1, x2, x3 = encode(ens, 1, w1, s1, w2, s2, w3, rng)
        y = _receiver_sample(d, x1, x2, x3, rng)
        res = decode(ens, d, y, s1, s2, 1, eta1, eta2)
        bad = {"w3": res.w3 != w3, "w1": res.w1 != w1, "w2": res.w2 != w2}
        for key, wrong in bad.items():
            stage[key] += wrong
        e1 += any(bad.values())
    stage["w3_h0"] = e0
    delta_exact = delta_ratio = None
    if cfg.exact_divergence:
        if ens is None or not cfg.fixed_codebook:
            ens = build_codebooks(cfg, rng_cb, d=d)
        deltas, by_word = [], {}
        for w3 in range(cfg.m3):
            word = ens.x3[w3].tobytes()
            if word not in by_word:
                by_word[word] = exact_delta(ens, d, w3, unit="nats")
            deltas.append(by_word[word])
        delta_exact = float(np.mean(deltas))
        if delta_exact == math.inf:     # (1,0,x3) and (0,1,x3) passed above
            raise ValueError("the exact divergence is infinite: a (1,1,x3) "
                             "warden row puts mass outside the support of "
                             "the (0,0,x3) row")
        delta_ratio = delta_exact / predictor if predictor > 0 else None
    # every ensemble of one (plan, n, omega_n) clips alike
    clip = tuple(ens.layout.clip_warnings) if ens is not None else ()
    n_tr = cfg.trials
    return SimReport(
        trials_run=n_tr,
        pe0_hat=(e0 / n_tr) if n_tr else None,
        pe0_interval=wilson_interval(e0, n_tr),
        pe1_hat=(e1 / n_tr) if n_tr else None,
        pe1_interval=wilson_interval(e1, n_tr),
        stage_errors=stage,
        delta_exact=delta_exact,
        delta_bound_ratio=delta_ratio,
        codebook_mode="fixed" if cfg.fixed_codebook else "fresh-per-trial",
        clip_warnings=clip,
        wall_time=time.perf_counter() - t0,
    )


def exact_delta(ens: CodebookEnsemble, d: Dmc, w3: int,
                unit: str = "nats") -> float:
    """Exact KL between the warden's hypothesis-1 mixture law and the all-off
    product law, conditioned on the non-covert message.

    Enumerates all |Z|^n output sequences and all (message, key) pairs;
    refuses when that exceeds ENUM_CAP, which bounds the time.  A w3
    outside [0, m3) raises IndexError and a bad unit ValueError, before any
    enumeration.  The shorter user's padding segment enters as an exact
    per-symbol Bernoulli mixture.

    The product law of each pair, and of the all-off reference, over the
    first s positions is built once (``_product_law``): s is the largest
    number with s <= n - 1, |Z|^(s+1) <= _SUM_CHUNK and
    (pairs + 1) |Z|^s <= _PREFIX_CAP (s = 5 at n >= 6 on a 6-symbol warden
    with up to 133 pairs).  A block fixes the symbols at positions s to
    n - 2 and holds the |Z|^(s+1) outputs of the prefix and the last
    position.  Per pair it forms the head ((prefix law * f_s) * ...) *
    f_(n-2) of the block's symbol probabilities once, left to right, and
    its product with each of the last position's |Z| probabilities, and
    sums the pairs in order: every probability is bit for bit the entry of
    the whole product law.  The KL terms go block by block to
    ``_ExactSum``, which is correctly rounded and so returns the same value
    in any order.  Memory is O(pairs |Z|^s), at most _PREFIX_CAP doubles,
    plus three blocks, not O(|Z|^n).
    """
    cfg = ens.cfg
    if not (0 <= w3 < cfg.m3):
        raise IndexError("w3 out of range")
    scale = unit_factor(unit)
    n, zs, pairs = ens.n, d.z_size, cfg.pair_count()
    work = zs ** n * pairs if n > 0 else 0
    if work > ENUM_CAP:
        raise EnumerationCapError(
            f"|Z|^n * pairs = {work} exceeds enumeration cap {ENUM_CAP}")
    x3 = ens.x3[w3]
    gz, k = d.gamma_z, d.x3_size
    x1 = ens.x1.reshape(cfg.m1 * cfg.k1, 1, n)
    x2 = ens.x2.reshape(1, cfg.m2 * cfg.k2, n)
    idx = np.vstack([_rows(k, x1, x2, x3).reshape(pairs, n),
                     _rows(k, 0, 0, x3)])
    laws = gz[idx]          # the pairs' per-position laws, then the all-off's
    # padding positions mix the short user's symbols 0 and 1 at its density:
    # its symbol 1 moves a row by the row of (1, 0, 0) or (0, 1, 0)
    lay = ens.layout
    pad, p = lay.pad_idx, lay.pad_p[:, None]
    step = _rows(k, *((1, 0) if lay.swapped else (0, 1)), 0)
    laws[:-1, pad] = (1 - p) * laws[:-1, pad] + p * gz[idx[:-1, pad] + step]
    s, size = 0, 1          # positions 0..s-1 and n-1 vary in a block
    while (s < n - 1 and size * zs * zs <= _SUM_CHUNK
           and (pairs + 1) * size * zs <= _PREFIX_CAP):
        s, size = s + 1, size * zs
    prefix = np.empty((pairs + 1, size))
    for rows, out in zip(laws, prefix):
        _product_law(rows[:s], out)
    cols, last = np.arange(s, n - 1), laws[:, -1]
    head = np.empty(size)
    q, law, ref = (np.empty((zs, size)) for _ in range(3))
    acc = _ExactSum()
    for block in range(zs ** (n - 1 - s)):
        digits = [block // zs ** i % zs for i in range(n - 1 - s)]  # z_s, ...
        *factors, ref_factors = laws[:, cols, digits].tolist()
        q.fill(0.0)
        for pre, f, z_last in zip(prefix, factors, last):
            q += np.multiply.outer(z_last, _scaled(pre, f, head), out=law)
        q /= pairs
        np.multiply.outer(last[-1], _scaled(prefix[-1], ref_factors, head),
                          out=ref)
        qb, r = q.ravel(), ref.ravel()
        if not qb.all():            # drop the 0 log 0 terms
            mask = qb > 0
            qb, r = qb[mask], r[mask]
        if not r.all():
            return math.inf
        terms = np.divide(qb, r, out=law.ravel()[:len(qb)])
        np.log(terms, out=terms)
        terms *= qb
        acc.add(terms)
    return acc.value() / scale


def _scaled(law: np.ndarray, factors: list, out: np.ndarray) -> np.ndarray:
    """((law * f_0) * f_1) * ..., left to right, written into ``out``;
    ``law`` itself when there are no factors."""
    if not factors:
        return law
    np.multiply(law, factors[0], out=out)
    for f in factors[1:]:
        out *= f
    return out


def _product_law(rows, out: np.ndarray) -> np.ndarray:
    """Product law of independent symbols with laws ``rows``, in reversed
    layout: z = (z_0, ..., z_{n-1}) sits at sum_i z_i |Z|^i.  Each entry is
    the left-to-right product ((1 * r_0[z_0]) * r_1[z_1]) * ..., bit for bit
    the entry of the lexicographic kron chain.  Every outer product runs its
    inner loop over the long axis and writes into ``out`` in place."""
    out[0] = 1.0
    size = 1
    for r in rows:
        # block j = r[j] * out[:size]; block 0, last, is the only one read
        for j in range(len(r) - 1, -1, -1):
            np.multiply(r[j], out[:size], out=out[j * size:(j + 1) * size])
        size *= len(r)
    return out


_SUM_CHUNK = 1 << 16                # most terms per bincount and per block
_PREFIX_CAP = 1 << 20               # most doubles in exact_delta's prefix laws
_EXP_OFFSET = 1074                  # np.frexp exponents lie in [-1073, 1024]


class _ExactSum:
    """A running sum that returns math.fsum of every term added, bit for
    bit, however the terms are split into arrays and in whatever order
    (short of fsum's overflow errors, raised here only for a sum too large).

    Each finite a_i is M_i 2^(e_i - 53) with an integer |M_i| < 2^53
    (np.frexp), split as M_i = hi_i 2^26 + lo_i with 0 <= lo_i < 2^26.  The
    halves are summed per exponent by np.bincount, in chunks of _SUM_CHUNK
    terms, small enough that the partial sums stay exact, into int64
    buckets.  ``value`` combines the buckets as Python ints and rounds
    once: the correctly rounded sum.  The chunk buffers are allocated once.
    """

    def __init__(self):
        self.hi = np.zeros(2 * _EXP_OFFSET, dtype=np.int64)
        self.lo = np.zeros(2 * _EXP_OFFSET, dtype=np.int64)
        self.special: list[float] = []      # the inf and nan terms
        self.negative = None    # every term has its sign bit (None: no term)
        self._m, self._h = np.empty(_SUM_CHUNK), np.empty(_SUM_CHUNK)
        self._e = np.empty(_SUM_CHUNK, dtype=np.intp)
        self._b = np.empty(_SUM_CHUNK, dtype=bool)

    def add(self, a: np.ndarray) -> None:
        for start in range(0, len(a), _SUM_CHUNK):
            self._add_chunk(a[start:start + _SUM_CHUNK])

    def _add_chunk(self, part: np.ndarray) -> None:
        size = len(part)
        finite = np.isfinite(part, out=self._b[:size])
        if self.special or not finite.all():
            # fsum's inf/nan rules ignore finite terms
            self.special += part[~finite].tolist()
            return
        if self.negative is not False:
            self.negative = bool(np.signbit(part, out=self._b[:size]).all())
        m, e, hi = self._m[:size], self._e[:size], self._h[:size]
        np.frexp(part, out=(m, e))      # part = m 2^e with 1/2 <= |m| < 1
        m *= 2.0 ** 27                  # M / 2^26, exactly
        np.floor(m, out=hi)             # M = hi 2^26 + lo, 0 <= lo < 2^26
        m -= hi                         # lo / 2^26: multiples of 2^-26
        e += _EXP_OFFSET
        self.hi += np.bincount(e, weights=hi, minlength=len(self.hi)).astype(
            np.int64)
        self.lo += (np.bincount(e, weights=m, minlength=len(self.lo))
                    * 2.0 ** 26).astype(np.int64)

    def value(self) -> float:
        if self.special:
            return math.fsum(self.special)
        used = np.flatnonzero(self.hi | self.lo).tolist()
        base = used[0] if used else 0
        total = sum(((int(self.hi[b]) << 26) + int(self.lo[b])) << (b - base)
                    for b in used)
        if total == 0:                  # -0.0 only when every term is -0.0
            return math.fsum([-0.0]) if self.negative else 0.0
        shift = base - _EXP_OFFSET - 53
        return float(total << shift) if shift >= 0 else total / (1 << -shift)
