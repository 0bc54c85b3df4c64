import dataclasses
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import covertmac as cm
from covertmac import region, simulator
from covertmac.infotheory import unit_factor
from covertmac.region import PhasePlan, theorem1_sizing
from covertmac.simulator import (_SUM_CHUNK, EnumerationCapError, SimConfig,
                                 _ExactSum, _receiver_sample,
                                 auto_thresholds, build_codebooks,
                                 channel_sample, decode, encode, exact_delta,
                                 phase_lengths, run_trials, wilson_interval)

PLAN_Q = PhasePlan.single_phase((0.535, 0.465), rho1=0.5, rho2=0.5)
PLAN_X0 = PhasePlan.single_phase((1.0, 0.0), rho1=0.5, rho2=0.5)
# two phases, rho up to 2, beta2 < beta1 so user 2 pads
PLAN_DENSE = PhasePlan(p_t=(0.5, 0.5), p_x3_given_t=((0.6, 0.4), (0.3, 0.7)),
                       rho1=(2.0, 1.5), rho2=(1.5, 2.0), beta1=1.0, beta2=0.8)


def rng_for(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def test_phase_lengths_remainder():
    assert phase_lengths(10, (0.5, 0.5)) == [5, 5]
    assert phase_lengths(10, (0.33, 0.33, 0.34)) == [3, 3, 4]
    assert sum(phase_lengths(101, (0.24, 0.37, 0.39))) == 101


def test_codebooks_zero_rho_all_zero(paper):
    plan = PhasePlan.single_phase((0.5, 0.5), 0.0, 0.0)
    cfg = SimConfig(n=40, plan=plan, trials=0)
    ens = build_codebooks(cfg, rng_for(1), d=paper)
    assert not ens.x1.any() and not ens.x2.any()


def test_codebook_density_concentration(paper):
    # expected ones per codeword = rho * omega * sqrt(n) = 10 at these values
    n = 10**4
    plan = PhasePlan.single_phase((0.5, 0.5), 1.0, 1.0)
    cfg = SimConfig(n=n, plan=plan, m1=20, m2=20, k1=5, k2=5, trials=0)
    ens = build_codebooks(cfg, rng_for(2), d=paper)
    target = cfg.omega_n * math.sqrt(n)
    assert abs(target - 10.0) < 1e-9
    for cb in (ens.x1, ens.x2):
        words = cb.reshape(-1, cb.shape[-1])
        mean_ones = words.sum(axis=1).mean()
        sigma = math.sqrt(target * (1 - target / n) / len(words))
        assert abs(mean_ones - target) < 3 * sigma


def test_codebook_x3_frequencies(paper):
    cfg = SimConfig(n=2000, plan=PLAN_Q, m3=8, trials=0)
    ens = build_codebooks(cfg, rng_for(3), d=paper)
    freq = (ens.x3 == 0).mean()
    assert abs(freq - 0.535) < 3 * math.sqrt(0.535 * 0.465 / (8 * 2000))


def test_codebook_density_clipping(paper):
    plan = PhasePlan.single_phase((0.5, 0.5), 50.0, 0.0)
    cfg = SimConfig(n=16, plan=plan, trials=0)
    ens = build_codebooks(cfg, rng_for(4), d=paper)
    assert ens.layout.clip_warnings and ens.x1.all()


def test_encode_h0_all_zero(paper):
    cfg = SimConfig(n=50, plan=PLAN_Q, trials=0)
    ens = build_codebooks(cfg, rng_for(5), d=paper)
    x1, x2, x3 = encode(ens, 0, 1, 0, 1, 0, 1, rng_for(6))
    assert not x1.any() and not x2.any()
    np.testing.assert_array_equal(x3, ens.x3_sequence(1))


def test_encode_concatenation(paper):
    plan = PhasePlan(p_t=(0.5, 0.5), p_x3_given_t=((1.0, 0.0), (0.0, 1.0)),
                     rho1=(0.5, 0.5), rho2=(0.5, 0.5))
    cfg = SimConfig(n=10, plan=plan, trials=0)
    ens = build_codebooks(cfg, rng_for(7), d=cm.paper_channel())
    _, _, x3 = encode(ens, 1, 0, 0, 0, 0, 0, rng_for(8))
    np.testing.assert_array_equal(x3[:5], ens.x3[0, :5])
    np.testing.assert_array_equal(x3[5:], ens.x3[0, 5:])
    assert len(x3) == 10


def test_encode_no_padding_when_phis_equal(paper):
    cfg = SimConfig(n=60, plan=PLAN_Q, trials=0)   # beta1 = beta2 = 1
    ens = build_codebooks(cfg, rng_for(9), d=paper)
    a = encode(ens, 1, 0, 0, 0, 0, 0, rng_for(10))
    b = encode(ens, 1, 0, 0, 0, 0, 0, rng_for(11))
    np.testing.assert_array_equal(a[0], b[0])     # no fresh randomness used
    np.testing.assert_array_equal(a[1], b[1])
    np.testing.assert_array_equal(a[0], ens.covert_sequence(1, 0, 0))


def test_encode_padding_segment(paper):
    plan = PhasePlan.single_phase((0.535, 0.465), 1.0, 1.0, beta1=1.0, beta2=0.5)
    cfg = SimConfig(n=400, plan=plan, trials=0)
    ens = build_codebooks(cfg, rng_for(12), d=paper)
    assert ens.layout.active1[0] == 400 and ens.layout.active2[0] == 200
    x1, x2, _ = encode(ens, 1, 0, 0, 0, 0, 0, rng_for(13))
    np.testing.assert_array_equal(x2[:200], ens.x2[0, 0, :200])
    assert x2[200:400].sum() >= 0                 # fresh symbols live here
    np.testing.assert_array_equal(x1, ens.covert_sequence(1, 0, 0))


def test_encode_index_range(paper):
    cfg = SimConfig(n=20, plan=PLAN_Q, trials=0)
    ens = build_codebooks(cfg, rng_for(14), d=paper)
    with pytest.raises(IndexError):
        encode(ens, 1, 5, 0, 0, 0, 0, rng_for(15))
    with pytest.raises(IndexError):
        encode(ens, 0, 0, 0, 0, 0, 9, rng_for(16))


def test_channel_sample_deterministic_row():
    # y = x2 deterministically: rows with x2 = 1 are indices 2, 3, 6, 7
    gy = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0],
          [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
    from conftest import make_dmc
    d = make_dmc(gy, gy)
    x1 = np.zeros(30, dtype=int)
    x2 = np.array([0, 1] * 15)
    x3 = np.zeros(30, dtype=int)
    y, z = channel_sample(d, x1, x2, x3, rng_for(17))
    np.testing.assert_array_equal(y, x2)          # row (0,1,0) forces y=1
    np.testing.assert_array_equal(z, x2)


def test_channel_sample_empirical(paper):
    n = 10**5
    zeros = np.zeros(n, dtype=int)
    y, _ = channel_sample(paper, zeros, zeros, zeros, rng_for(18))
    row = paper.row("Y", 0, 0, 0)
    counts = np.bincount(y, minlength=6) / n
    for j in range(6):
        sigma = math.sqrt(row[j] * (1 - row[j]) / n)
        assert abs(counts[j] - row[j]) < 3.5 * sigma


def test_receiver_sample_is_channel_sample_y(paper):
    rng = rng_for(12)
    x1, x2, x3 = (rng.integers(2, size=50) for _ in range(3))
    a, b = rng_for(13), rng_for(13)
    y, _ = channel_sample(paper, x1, x2, x3, a)
    np.testing.assert_array_equal(_receiver_sample(paper, x1, x2, x3, b), y)
    assert a.random() == b.random()       # the same stream position after


@pytest.mark.parametrize("x3_size", [2, 65])
def test_receiver_sample_forms_rows_from_uint8_words(x3_size):
    """From uint8 words, and from 0 for silent covert users, the trial
    sampler gives channel_sample's y and leaves the stream where it does.
    At x3_size 65 a row (up to 259) no longer fits a byte."""
    gen = np.random.default_rng(x3_size)
    d = cm.channel.Dmc(gen.dirichlet(np.ones(3), 4 * x3_size),
                       gen.dirichlet(np.ones(2), 4 * x3_size))
    x1, x2 = (gen.random((2, 300)) < 0.5).astype(np.uint8)
    x3 = gen.integers(x3_size, size=300).astype(np.uint8)
    for words in ((x1, x2, x3), (0, 0, x3)):
        a, b = rng_for(14), rng_for(14)
        y, _ = channel_sample(d, *(np.broadcast_to(w, 300) for w in words), a)
        np.testing.assert_array_equal(_receiver_sample(d, *words, b), y)
        assert a.random() == b.random()


def test_channel_sample_empty(paper):
    y, z = channel_sample(paper, [], [], [], rng_for(19))
    assert len(y) == 0 and len(z) == 0


@pytest.mark.parametrize("x1, x2, x3, name", [
    (0, 0, 2, "x3"),        # would sample row (0, 1, 0)
    (0, 0, -1, "x3"),       # would sample row (1, 1, 1)
    (0, 2, 0, "x2"),        # would sample row (1, 0, 0)
    (1, 1, 5, "x3"),        # row 11 of 8
    (-1, 0, 0, "x1"),
])
def test_channel_sample_rejects_symbols_outside_the_alphabet(paper, x1, x2,
                                                             x3, name):
    xs = [np.array([0, v]) for v in (x1, x2, x3)]
    with pytest.raises(IndexError, match=f"^{name} "):
        channel_sample(paper, *xs, rng_for(19))


# rows with zeros; their sums fall below 1 as well as above it
SAMPLE_ROWS = st.integers(1, 7).flatmap(lambda size: st.lists(
    st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
             min_size=size, max_size=size),
    min_size=4, max_size=4))


@settings(max_examples=150, deadline=None)
@given(SAMPLE_ROWS, st.lists(st.integers(0, 3), max_size=60),
       st.integers(0, 2**32 - 1))
@example([[0.1] * 10, [0.0] * 9 + [1.0], [1.0] + [0.0] * 9,
          [0.0, 0.5, 0.0, 0.5] + [0.0] * 6], [0, 1, 2, 3] * 5, 0)
# nine boundaries in the first of 32 buckets, and boundaries at 0 and 1
@example([[1e-4] * 9 + [1 - 9e-4]] * 2 + [[0.0] * 9 + [1.0]] * 2,
         [0, 1, 2, 3] * 15, 1)
@example([[0.0, 0.0, 1e-4, 0.0, 0.5 - 1e-4, 0.5]] * 4, [0, 1, 2, 3] * 15, 2)
def test_sample_kernel_is_inverse_cdf_over_the_row(rows, picks, seed):
    mat = np.array(rows)        # not distributions, so no Dmc holds them
    size = mat.shape[1]
    picks = np.array(picks, dtype=int)
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = simulator._Guide(mat).draw(picks, a)
    u = b.random(len(picks))
    want = [min(int((v >= np.cumsum(mat[r])).sum()), size - 1)
            for v, r in zip(u, picks)]
    assert got.tolist() == want
    assert a.random() == b.random()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(
           st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
           min_size=k, max_size=k).filter(any)).map(
               lambda w: [v / sum(w) for v in w]),
       st.integers(1, 4), st.integers(0, 50), st.integers(0, 2**32 - 1),
       st.sampled_from([int, np.uint8]))
@example([0.1] * 10, 3, 20, 0, int)     # the cdf ends below 1
@example([0.1] * 10, 3, 20, 0, np.uint8)
@example([0.0, 1.0, 0.0], 2, 30, 1, np.uint8)
def test_x3_draw_is_rng_choice(q, m3, nt, seed, dtype):
    """From the same uniforms into an int64 or a uint8 array (the
    ensemble's x3)."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = np.zeros((m3, nt), dtype=dtype)
    layout = simulator._Layout(SimConfig(
        n=1, plan=PhasePlan.single_phase(q, 0.0, 0.0), trials=0))
    simulator._choice_into(a, layout.cdfs[0], got)
    want = b.choice(len(q), size=(m3, nt), p=q)
    np.testing.assert_array_equal(got, want)
    assert a.bit_generator.state == b.bit_generator.state


def test_w3_scores_do_not_depend_on_the_block(paper, monkeypatch):
    """decode's w3 scores over blocks of 1 or 5 rows equal, bit for bit,
    those over one block of all 16 and the row sums of the whole gathered
    array: each row is summed on its own."""
    cfg = SimConfig(n=3000, plan=SIM_REF_PLAN, m3=16, trials=0)
    ens = build_codebooks(cfg, rng_for(60), d=paper)
    y, _ = channel_sample(paper, *encode(ens, 0, 0, 0, 0, 0, 3, rng_for(61)),
                          rng_for(62))
    log_off = simulator._tables(paper).log_y[0]
    y_off = y * paper.x3_size
    whole = log_off.take(ens.x3 + y_off).sum(axis=1)
    assert simulator._SCORE_BLOCK >= 16 * cfg.n      # one block by default
    for rows in (1, 5, 16):
        monkeypatch.setattr(simulator, "_SCORE_BLOCK", rows * cfg.n)
        got = simulator._w3_scores(ens, log_off, y_off)
        assert got.tobytes() == whole.tobytes()


def test_ensembles_of_a_run_share_one_layout(paper, monkeypatch):
    """run_trials' fresh ensembles share one layout; another n, omega_n or
    plan object (even an equal one) gets a layout of its own."""
    real, made = simulator._Layout, []

    def spy(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(simulator, "_Layout", spy)
    plan, equal_plan = (PhasePlan.from_dict(SIM_REF_PLAN.to_dict())
                        for _ in range(2))
    cfg = SimConfig(n=50, plan=plan, trials=6, seed=1)
    run_trials(cfg, paper)
    assert len(made) == 1
    for i, other in enumerate((dict(n=60), dict(omega_n=0.3),
                               dict(plan=equal_plan))):
        ens = build_codebooks(dataclasses.replace(cfg, **other), rng_for(66),
                              d=paper)
        assert len(made) == 2 + i and ens.layout is made[-1]
        assert ens.layout.n_t == phase_lengths(ens.n, ens.cfg.plan.p_t)


def test_sim_config_is_frozen_and_owns_its_layout():
    """A SimConfig refuses assignment, and its layout is made once."""
    cfg = SimConfig(n=50, plan=PLAN_Q, trials=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n = 60
    assert cfg.omega_n == 50 ** -0.25 and cfg.layout is cfg.layout


def test_trial_path_memory_at_n_1e5(paper):
    """At n = 10^5, m3 = 16 on REF_PLAN, under tracemalloc: one
    build_codebooks peaks under 17 MB (23.8 MB with an int64 x3) and one
    hypothesis-1 decode under 9 MB (18 MB with two m3 x n int64 arrays)."""
    cfg = SimConfig(n=10 ** 5, plan=SIM_REF_PLAN, m1=4, m2=4, m3=16, k1=2,
                    k2=2, trials=0)
    ens, peak = _traced_peak(lambda: build_codebooks(cfg, rng_for(63),
                                                     d=paper))
    assert ens.x3.dtype == np.uint8 and peak <= 17e6
    y, _ = channel_sample(paper, *encode(ens, 1, 1, 0, 2, 1, 5, rng_for(64)),
                          rng_for(65))
    eta = auto_thresholds(paper, SIM_REF_PLAN, cfg.n, cfg.omega_n)
    assert _traced_peak(lambda: decode(ens, paper, y, 0, 1, 1, *eta))[1] <= 9e6


def test_decode_m3_one_always_correct(paper):
    cfg = SimConfig(n=30, plan=PLAN_Q, m3=1, trials=0)
    ens = build_codebooks(cfg, rng_for(20), d=paper)
    x1, x2, x3 = encode(ens, 0, 0, 0, 0, 0, 0, rng_for(21))
    y, _ = channel_sample(paper, x1, x2, x3, rng_for(22))
    assert decode(ens, paper, y, 0, 0, 0, 0.0, 0.0).w3 == 0


@pytest.mark.parametrize("bad", [-1, 6])
@pytest.mark.parametrize("hypothesis", [0, 1])
def test_decode_rejects_outputs_outside_the_alphabet(paper, bad, hypothesis):
    cfg = SimConfig(n=30, plan=PLAN_Q, trials=0)
    ens = build_codebooks(cfg, rng_for(20), d=paper)
    y = np.zeros(30, dtype=int)
    y[7] = bad
    with pytest.raises(IndexError, match="^y "):
        decode(ens, paper, y, 0, 0, hypothesis, 0.0, 0.0)


def test_decode_threshold_minus_inf_trivial(paper):
    cfg = SimConfig(n=30, plan=PLAN_Q, m1=1, m2=1, m3=1, k1=1, k2=1, trials=0)
    ens = build_codebooks(cfg, rng_for(23), d=paper)
    x1, x2, x3 = encode(ens, 1, 0, 0, 0, 0, 0, rng_for(24))
    y, _ = channel_sample(paper, x1, x2, x3, rng_for(25))
    res = decode(ens, paper, y, 0, 0, 1, -math.inf, -math.inf)
    assert res == cm.simulator.DecodeResult(w3=0, w1=0, w2=0)


def _reference_decode(ens, d, y, s1, s2, eta1, eta2):
    """Exhaustive-likelihood reference decoder built from raw products.

    Returns (w3, w1, w2, fragile): fragile marks decisions within 1e-9 of
    flipping, where two correct implementations may break an exact tie by
    floating-point noise alone.
    """
    def seq_prob(y, x1, x2, x3):
        p = 1.0
        for yi, a, b, c in zip(y, x1, x2, x3):
            p *= d.row("Y", int(a), int(b), int(c))[int(yi)]
        return p
    cfg = ens.cfg
    zeros = np.zeros(ens.n, dtype=int)
    scores = [seq_prob(y, zeros, zeros, ens.x3_sequence(w3))
              for w3 in range(cfg.m3)]
    order = sorted(range(cfg.m3), key=lambda i: (-scores[i], i))
    best_w3 = order[0]
    fragile = (cfg.m3 > 1 and
               scores[order[0]] - scores[order[1]]
               <= 1e-9 * max(scores[order[0]], 1e-300))
    x3 = ens.x3_sequence(best_w3)
    base = seq_prob(y, zeros, zeros, x3)
    out = [best_w3]
    for user, (m, s, eta) in enumerate(((cfg.m1, s1, eta1),
                                        (cfg.m2, s2, eta2)), start=1):
        hits = []
        for j in range(m):
            xl = ens.covert_sequence(user, j, s)
            num = seq_prob(y, xl, zeros, x3) if user == 1 else \
                seq_prob(y, zeros, xl, x3)
            if base > 0 and num > 0:
                llr = math.log(num / base)
                if abs(llr - eta) <= 1e-9:
                    fragile = True
                if llr > eta:
                    hits.append(j)
            elif num > 0:
                hits.append(j)
        out.append(hits[0] if len(hits) == 1 else None)
    return tuple(out), fragile


def test_decode_matches_reference_oracle():
    # generic random channel: no repeated probabilities, so no exact
    # likelihood ties for the two implementations to break differently
    gen = np.random.default_rng(2024)
    gy = gen.dirichlet(np.ones(6), size=8)
    gz = gen.dirichlet(np.ones(6), size=8)
    from conftest import make_dmc
    d = make_dmc(gy, gz)
    plan = PhasePlan.single_phase((0.535, 0.465), rho1=2.0, rho2=2.0)
    cfg = SimConfig(n=4, plan=plan, m1=2, m2=2, m3=2, k1=2, k2=2, trials=0)
    mismatches = 0
    fragile_trials = 0
    for trial in range(1000):
        rng = rng_for(100, trial)
        ens = build_codebooks(cfg, rng, d=d)
        w1, s1 = int(rng.integers(2)), int(rng.integers(2))
        w2, s2 = int(rng.integers(2)), int(rng.integers(2))
        w3 = int(rng.integers(2))
        x1, x2, x3 = encode(ens, 1, w1, s1, w2, s2, w3, rng)
        y, _ = channel_sample(d, x1, x2, x3, rng)
        eta1, eta2 = 0.05, 0.05
        got = decode(ens, d, y, s1, s2, 1, eta1, eta2)
        want, fragile = _reference_decode(ens, d, y, s1, s2, eta1, eta2)
        if fragile:                       # exact tie: either answer is valid
            fragile_trials += 1
            continue
        if (got.w3, got.w1, got.w2) != (want[0], want[1], want[2]):
            mismatches += 1
    assert mismatches == 0
    assert fragile_trials < 100


def test_auto_thresholds_ignore_unused_x3(paper):
    """A receiver-side support violation at an x3 the plan never sends must
    leave the thresholds as they are; a NaN threshold fails every covert
    decode."""
    gy = np.array(paper.gamma_y)
    gy[1] = [0.0, 0.2, 0.2, 0.2, 0.2, 0.2]        # row (0, 0, 1)
    gy[5] = [0.2, 0.2, 0.2, 0.2, 0.1, 0.1]        # row (1, 0, 1)
    from conftest import make_dmc
    d = make_dmc(gy, paper.gamma_z)
    plan = PhasePlan.single_phase((1.0, 0.0), 0.5, 0.5)
    eta = auto_thresholds(d, plan, 1000, 1000 ** -0.25)
    assert eta == auto_thresholds(paper, plan, 1000, 1000 ** -0.25)
    rep = run_trials(SimConfig(n=1000, plan=plan, trials=50, seed=0), d)
    assert rep.stage_errors["w1"] < 50 and rep.stage_errors["w2"] < 50


def test_auto_thresholds_reject_plan_of_other_x3_size(paper):
    """A plan over three x3 symbols on a two-symbol channel is a validation
    error naming the length, as in rate_tuple."""
    plan = PhasePlan.single_phase((0.5, 0.3, 0.2), 0.5, 0.5)
    with pytest.raises(ValueError, match="must have length 2"):
        auto_thresholds(paper, plan, 1000, 1000 ** -0.25)


def test_run_trials_pe0_zero_when_m3_one(paper):
    cfg = SimConfig(n=24, plan=PLAN_Q, m3=1, trials=50, seed=4)
    rep = run_trials(cfg, paper)
    assert rep.pe0_hat == 0.0


def test_run_trials_deterministic(paper):
    cfg = SimConfig(n=32, plan=PLAN_Q, m3=4, trials=60, seed=9)
    a = run_trials(cfg, paper)
    b = run_trials(cfg, paper)
    assert a.pe0_hat == b.pe0_hat and a.pe1_hat == b.pe1_hat
    assert a.stage_errors == b.stage_errors


def test_run_trials_pe0_monotone_in_m3(paper):
    """Larger non-covert codebooks strictly raise the H0 error on average."""
    means = []
    for m3 in (2, 8, 32):
        vals = [run_trials(SimConfig(n=32, plan=PLAN_Q, m1=1, m2=1, m3=m3,
                                     k1=1, k2=1, trials=120, seed=s),
                           paper).pe0_hat
                for s in range(3)]
        means.append(float(np.mean(vals)))
    assert means[0] < means[1] < means[2]


def test_run_trials_zero_trials_sentinel(paper):
    cfg = SimConfig(n=16, plan=PLAN_Q, trials=0, seed=1)
    rep = run_trials(cfg, paper)
    assert rep.pe0_hat is None and rep.pe1_hat is None
    assert rep.pe0_interval is None


@pytest.mark.parametrize("fixed, trials, builds",
                         [(False, 3, 3), (True, 3, 1), (True, 0, 0)])
def test_run_trials_reads_clip_warnings_of_drawn_ensembles(
        paper, monkeypatch, fixed, trials, builds):
    """run_trials reports the clip warnings of the ensembles its trials
    draw, and draws no extra ensemble to read them."""
    from covertmac import simulator
    plan = PhasePlan.single_phase((0.5, 0.5), 50.0, 0.0)
    built = []

    def counted(*args, **kwargs):
        built.append(build_codebooks(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(simulator, "build_codebooks", counted)
    rep = run_trials(SimConfig(n=16, plan=plan, trials=trials, seed=5,
                               fixed_codebook=fixed), paper)
    assert len(built) == builds
    assert rep.clip_warnings == (tuple(built[-1].layout.clip_warnings) if built
                                 else ())
    assert bool(rep.clip_warnings) == (trials > 0)


def test_run_trials_fixed_codebook_mode(paper):
    cfg = SimConfig(n=16, plan=PLAN_Q, trials=10, seed=2, fixed_codebook=True)
    rep = run_trials(cfg, paper)
    assert rep.codebook_mode == "fixed"


@pytest.mark.parametrize("fixed", [False, True])
def test_run_trials_exact_divergence_fields(paper, fixed):
    """delta_exact is the mean over w3 of exact_delta on the ensemble of
    stream (seed, 2^31), and delta_bound_ratio is that mean over theorem 1's
    divergence bound without its 10% slack, bit for bit in both codebook
    modes."""
    cfg = SimConfig(n=6, plan=PLAN_DENSE, m1=2, m2=2, m3=2, k1=2, k2=2,
                    trials=3, seed=7, exact_divergence=True,
                    fixed_codebook=fixed)
    rep = run_trials(cfg, paper)
    ens = build_codebooks(cfg, rng_for(7, 2**31), paper)
    mean = float(np.mean([exact_delta(ens, paper, w3, "nats")
                          for w3 in range(cfg.m3)]))
    bound = theorem1_sizing(paper, PLAN_DENSE, cfg.n, cfg.omega_n,
                            (0.1,) * 6, "nats").divergence_bound
    assert rep.delta_exact == mean == 2.6292878048781354
    assert rep.delta_bound_ratio == mean / (bound / 1.1) == 0.22240158134118262


def _spy_exact_delta(monkeypatch):
    """The w3 of every exact_delta call run_trials makes."""
    calls = []
    real = simulator.exact_delta
    monkeypatch.setattr(simulator, "exact_delta",
                        lambda ens, d, w3, unit: calls.append(w3)
                        or real(ens, d, w3, unit))
    return calls


@pytest.mark.parametrize("fixed", [False, True])
def test_run_trials_enumerates_a_one_hot_codeword_once(paper, monkeypatch,
                                                       fixed):
    """Under a one-hot x3 law the m3 = 8 codewords are equal, so run_trials
    enumerates once, and delta_exact keeps the bits of the mean of the
    eight per-w3 calls."""
    cfg = SimConfig(n=6, plan=PLAN_X0, m1=2, m2=2, m3=8, k1=2, k2=2,
                    trials=2, seed=3, exact_divergence=True,
                    fixed_codebook=fixed)
    calls = _spy_exact_delta(monkeypatch)
    rep = run_trials(cfg, paper)
    assert calls == [0]
    ens = build_codebooks(cfg, rng_for(3, 2**31), paper)
    mean = float(np.mean([exact_delta(ens, paper, w3, "nats")
                          for w3 in range(8)]))
    assert rep.delta_exact.hex() == mean.hex()


def test_run_trials_enumerates_each_distinct_codeword_once(paper,
                                                           monkeypatch):
    """A skewed x3 law at n = 4 and m3 = 16 repeats codewords: run_trials
    enumerates each distinct one once, at its first w3."""
    plan = PhasePlan.single_phase((0.9, 0.1), rho1=1.0, rho2=1.0)
    cfg = SimConfig(n=4, plan=plan, m1=2, m2=2, m3=16, k1=2, k2=2,
                    trials=0, seed=1, exact_divergence=True)
    calls = _spy_exact_delta(monkeypatch)
    rep = run_trials(cfg, paper)
    ens = build_codebooks(cfg, rng_for(1, 2**31), paper)
    _, first = np.unique(ens.x3, axis=0, return_index=True)
    assert 1 < len(first) < 16
    assert calls == sorted(first.tolist())
    mean = float(np.mean([exact_delta(ens, paper, w3, "nats")
                          for w3 in range(16)]))
    assert rep.delta_exact.hex() == mean.hex()


@pytest.mark.parametrize("exact", [False, True])
def test_run_trials_evaluates_the_plan_once(paper, monkeypatch, exact):
    """The rate check, the thresholds and the Theorem-1 predictor share one
    evaluation of the plan, in nats."""
    units = []
    real = region._plan_quantities
    monkeypatch.setattr(region, "_plan_quantities",
                        lambda d, plan, unit: units.append(unit)
                        or real(d, plan, unit))
    cfg = SimConfig(n=6, plan=PLAN_DENSE, m1=2, m2=2, m3=2, k1=2, k2=2,
                    trials=2, seed=7, exact_divergence=exact)
    run_trials(cfg, paper)
    assert units == ["nats"]


def test_run_trials_checks_the_predictors_omega_before_a_trial(
        paper, monkeypatch):
    """At n = 1 the default omega_n is 1, outside theorem1_sizing's (0, 1):
    with the exact divergence asked for, run_trials fails before it draws
    an ensemble or enumerates."""
    drawn = []
    monkeypatch.setattr(simulator, "build_codebooks",
                        lambda *a, **k: drawn.append(1))
    calls = _spy_exact_delta(monkeypatch)
    cfg = SimConfig(n=1, plan=PLAN_X0, trials=50, exact_divergence=True)
    with pytest.raises(ValueError, match="^omega_n must lie in \\(0, 1\\)$"):
        run_trials(cfg, paper)
    assert drawn == [] and calls == []


def _recording_rng(seen: list):
    """A generator whose uniforms append to ``seen`` every value they are
    compared below (u < p): the densities an ensemble draws its covert
    codewords at."""
    class Uniforms(np.ndarray):
        def __lt__(self, other):
            seen.append(other)
            return np.asarray(self) < other

    class Rng:
        rng = rng_for(0)

        def random(self, shape):
            return self.rng.random(shape).view(Uniforms)
    return Rng()


@pytest.mark.parametrize("case", ["ref", "clipped"])
def test_ensemble_draws_at_region_densities(paper, case):
    """CodebookEnsemble draws each phase's covert codewords at the
    densities, and warns of the clips, that region._codeword_densities
    gives, by float.hex; at n = 3 PLAN_DENSE's densities pass 1."""
    from test_region import REF_PLAN
    plan, n = (REF_PLAN, 1000) if case == "ref" else (PLAN_DENSE, 3)
    cfg = SimConfig(n=n, plan=plan, trials=0)
    seen = []
    ens = cm.CodebookEnsemble(cfg, _recording_rng(seen), paper.x3_size)
    fractions, active, dens, warnings = region._codeword_densities(
        plan, phase_lengths(n, plan.p_t), cfg.omega_n)
    assert [float(p).hex() for p in seen] == [
        p.hex() for t in range(plan.tau) for p in (dens[0][t], dens[1][t])]
    assert ens.layout.clip_warnings == warnings
    assert bool(warnings) == (case == "clipped")
    assert (ens.layout.active1, ens.layout.active2) == active
    assert (ens.layout.phi1, ens.layout.phi2, ens.layout.swapped) == fractions


def test_divergence_bound_and_ratio_are_floats(paper):
    """theorem1_sizing's divergence bound and run_trials' delta_bound_ratio
    are Python floats, not numpy scalars."""
    sz = theorem1_sizing(paper, PLAN_DENSE, 6, 6 ** -0.25, (0.1,) * 6, "nats")
    assert type(sz.divergence_bound) is float
    cfg = SimConfig(n=6, plan=PLAN_DENSE, m1=2, m2=2, m3=2, k1=2, k2=2,
                    trials=0, seed=7, exact_divergence=True)
    assert type(run_trials(cfg, paper).delta_bound_ratio) is float


def test_silent_plan_has_no_bound_ratio(paper):
    """A plan with rho1 = rho2 = 0 has delta_exact = 0 and a zero bound, so
    delta_bound_ratio is None, not inf."""
    plan = PhasePlan.single_phase((0.5, 0.5), 0.0, 0.0)
    rep = run_trials(SimConfig(n=4, plan=plan, trials=2,
                               exact_divergence=True), paper)
    assert rep.delta_exact == 0.0 and rep.delta_bound_ratio is None


def test_exact_delta_infinite_where_the_warden_sees_a_new_output(
        monkeypatch):
    """On GZ_AC a covert 1 at x3 = 0 gives z = 2, which the all-off law at
    x3 = 0 never does: exact_delta is inf, as in the reference kernel, and
    run_trials with exact_divergence rejects such a plan before it draws
    any codebook, with rate_tuple's absolute-continuity error."""
    from conftest import make_dmc
    from test_region import GZ_AC
    d = make_dmc([[0.5, 0.3, 0.2]] * 8, GZ_AC)
    plan = PhasePlan.single_phase((1.0, 0.0), 2.5, 2.5)   # density 0.88
    cfg = SimConfig(n=4, plan=plan, trials=2, exact_divergence=True)
    ens = build_codebooks(cfg, rng_for(45), d=d)
    assert ens.x1.any()
    assert exact_delta(ens, d, 0) == _reference_exact_delta(ens, d, 0) \
        == math.inf
    built = []
    monkeypatch.setattr(simulator, "build_codebooks",
                        lambda *args, **kwargs: built.append(args))
    with pytest.raises(ValueError, match="absolute continuity"):
        run_trials(cfg, d)
    assert built == []


@pytest.mark.parametrize("call, match", [
    (lambda d: build_codebooks(
        SimConfig(n=8, plan=PhasePlan.single_phase((0.2, 0.3, 0.5), 1.0, 1.0),
                  trials=0), rng_for(46), d=d), "x3 alphabet"),
    (lambda d: channel_sample(d, [0, 1], [0], [0, 0], rng_for(47)),
     "equal length"),
], ids=["codebook-x3-size", "channel-sample-lengths"])
def test_invalid_arguments_raise(paper, call, match):
    with pytest.raises(ValueError, match=match):
        call(paper)


def test_wilson_interval_contains_point():
    lo, hi = wilson_interval(7, 50)
    assert lo <= 7 / 50 <= hi
    assert wilson_interval(0, 10)[0] == 0.0


def test_exact_delta_all_zero_codewords(paper):
    plan = PhasePlan.single_phase((0.535, 0.465), 0.0, 0.0)
    cfg = SimConfig(n=6, plan=plan, m1=2, m2=2, m3=2, k1=2, k2=2, trials=0)
    ens = build_codebooks(cfg, rng_for(30), d=paper)
    for w3 in range(2):
        assert abs(exact_delta(ens, paper, w3)) < 1e-12


def test_exact_delta_single_pair_closed_form(paper):
    plan = PhasePlan.single_phase((0.5, 0.5), rho1=2.0, rho2=1.0)
    cfg = SimConfig(n=5, plan=plan, m1=1, m2=1, m3=1, k1=1, k2=1, trials=0)
    ens = build_codebooks(cfg, rng_for(31), d=paper)
    assert ens.x1.sum() + ens.x2.sum() > 0
    x1 = ens.covert_sequence(1, 0, 0)
    x2 = ens.covert_sequence(2, 0, 0)
    x3 = ens.x3_sequence(0)
    closed = sum(cm.kl_div(paper.row("Z", int(a), int(b), int(c)),
                           paper.row("Z", 0, 0, int(c)), "nats")
                 for a, b, c in zip(x1, x2, x3))
    assert abs(exact_delta(ens, paper, 0, "nats") - closed) < 1e-10


def test_exact_delta_nonnegative_and_zero_iff_reference(paper):
    plan = PhasePlan.single_phase((0.535, 0.465), rho1=1.0, rho2=1.0)
    cfg = SimConfig(n=4, plan=plan, m1=2, m2=2, m3=2, k1=1, k2=1, trials=0)
    ens = build_codebooks(cfg, rng_for(32), d=paper)
    for w3 in range(2):
        v = exact_delta(ens, paper, w3)
        assert v >= 0
    assert exact_delta(ens, paper, 0) > 0     # some codeword has a 1 symbol


def test_exact_delta_cap_refusal(paper, monkeypatch):
    monkeypatch.setattr(simulator, "ENUM_CAP", 10**6)
    cfg = SimConfig(n=12, plan=PLAN_Q, m1=4, m2=4, m3=2, k1=4, k2=4,
                    trials=0)
    ens = build_codebooks(cfg, rng_for(33), d=paper)
    with pytest.raises(EnumerationCapError):
        exact_delta(ens, paper, 0)


def test_exact_delta_cap_is_outputs_times_pairs(paper, monkeypatch):
    work = 6 ** 3 * 16                    # |Z|^n x pairs at n = 3
    for cap, refused in ((work, False), (work - 1, True)):
        monkeypatch.setattr(simulator, "ENUM_CAP", cap)
        cfg = SimConfig(n=3, plan=PLAN_Q, m1=2, m2=2, m3=1, k1=2, k2=2,
                        trials=0)
        ens = build_codebooks(cfg, rng_for(35), d=paper)
        if refused:
            with pytest.raises(EnumerationCapError, match=str(work)):
                exact_delta(ens, paper, 0)
        else:
            assert exact_delta(ens, paper, 0) >= 0


def test_exact_delta_padding_segment_exact(paper):
    """With beta2 < beta1 the padding mixture must keep delta exact: compare
    against a direct enumeration that marginalizes the padding symbols."""
    plan = PhasePlan.single_phase((1.0, 0.0), rho1=1.5, rho2=1.5,
                                  beta1=1.0, beta2=0.5)
    cfg = SimConfig(n=4, plan=plan, m1=1, m2=1, m3=1, k1=1, k2=1, trials=0)
    ens = build_codebooks(cfg, rng_for(34), d=paper)
    assert ens.layout.active1[0] == 4 and ens.layout.active2[0] == 2
    x1 = ens.covert_sequence(1, 0, 0)
    x2cw = ens.x2[0, 0]
    x3 = ens.x3_sequence(0)
    p = ens.layout.pad_p[0]
    # direct: average the product law over the two padding symbols
    qhat = np.ones(1)
    for i in range(4):
        if i < 2:
            row = paper.row("Z", int(x1[i]), int(x2cw[i]), int(x3[i]))
        else:
            row = ((1 - p) * paper.row("Z", int(x1[i]), 0, int(x3[i]))
                   + p * paper.row("Z", int(x1[i]), 1, int(x3[i])))
        qhat = np.kron(qhat, row)
    ref = np.ones(1)
    for i in range(4):
        ref = np.kron(ref, paper.row("Z", 0, 0, int(x3[i])))
    want = float(np.sum(qhat * np.log(qhat / ref)))
    assert abs(exact_delta(ens, paper, 0, "nats") - want) < 1e-12


def _reference_exact_delta(ens, d, w3, unit="nats"):
    """The kron + math.fsum kernel exact_delta replaced, kept verbatim."""
    cfg = ens.cfg
    n = ens.n
    work = d.z_size ** n * cfg.pair_count() if n > 0 else 0
    if work > simulator.ENUM_CAP:
        raise EnumerationCapError(f"|Z|^n * pairs = {work} exceeds "
                                  f"enumeration cap {simulator.ENUM_CAP}")
    x3 = ens.x3[w3]
    gz, k = d.gamma_z, d.x3_size
    ref = _reference_product_law(gz[x3])
    # padding positions mix the short user's symbols 0 and 1 at its density
    pad, p = ens.layout.pad_idx, ens.layout.pad_p[:, None]
    pad_step = 2 * k if ens.layout.swapped else k
    qhat = np.zeros_like(ref)
    for x1 in ens.x1.reshape(cfg.m1 * cfg.k1, n).astype(int):
        for x2 in ens.x2.reshape(cfg.m2 * cfg.k2, n).astype(int):
            idx = x1 * (2 * k) + x2 * k + x3
            rows = gz[idx]
            rows[pad] = (1 - p) * rows[pad] + p * gz[idx[pad] + pad_step]
            qhat += _reference_product_law(rows)
    qhat /= cfg.pair_count()
    mask = qhat > 0
    if np.any(ref[mask] == 0):
        return math.inf
    terms = qhat[mask] * np.log(qhat[mask] / ref[mask])
    return math.fsum(terms.tolist()) / unit_factor(unit)


def _reference_product_law(rows) -> np.ndarray:
    out = np.ones(1)
    for r in rows:
        out = np.kron(out, r)
    return out


KERNEL_PLANS = {
    # beta2 < beta1: user 2 pads
    "user2-pads": PhasePlan.single_phase((0.535, 0.465), rho1=1.5, rho2=1.0,
                                         beta1=1.0, beta2=0.6),
    # beta1 < beta2: user 1 pads
    "user1-pads": PhasePlan.single_phase((0.535, 0.465), rho1=1.0, rho2=1.5,
                                         beta1=0.7, beta2=1.0),
    "dense-two-phase": PhasePlan(p_t=(0.5, 0.5),
                                 p_x3_given_t=((0.6, 0.4), (0.3, 0.7)),
                                 rho1=(2.0, 1.5), rho2=(1.5, 2.0),
                                 beta1=1.0, beta2=0.8),
    "all-zero": PhasePlan.single_phase((0.535, 0.465), 0.0, 0.0),
}
# Warden rows with zeros: no x3 = 1 row gives z = 5, and the all-off row at
# x3 = 0 never gives z = 4, which every covert-on row at x3 = 0 does.
GZ_ZEROS = [[0.2, 0.2, 0.2, 0.2, 0.0, 0.2], [0.2, 0.3, 0.2, 0.1, 0.2, 0.0],
            [0.1, 0.2, 0.2, 0.2, 0.1, 0.2], [0.3, 0.2, 0.1, 0.2, 0.2, 0.0],
            [0.2, 0.1, 0.3, 0.1, 0.1, 0.2], [0.1, 0.1, 0.3, 0.3, 0.2, 0.0],
            [0.1, 0.1, 0.2, 0.2, 0.2, 0.2], [0.2, 0.2, 0.2, 0.2, 0.2, 0.0]]
# On GZ_ZEROS: the covert users are silent at x3 = 0 over the first 6 of 8
# positions (the first block's prefix) and send over the last 2, at x3 = 1
# (a finite delta) or x3 = 0 (inf).  The zero mixture entries lie in every
# block and the inf in a block other than the first.
ZERO_PLANS = {
    f"zeros-{tag}": PhasePlan(p_t=(0.75, 0.25),
                              p_x3_given_t=((1.0, 0.0), last),
                              rho1=(0.0, 2.0), rho2=(0.0, 2.0))
    for tag, last in (("finite", (0.0, 1.0)), ("inf", (1.0, 0.0)))}


@pytest.mark.parametrize("name", sorted(KERNEL_PLANS) + sorted(ZERO_PLANS))
@pytest.mark.parametrize("n", range(1, 9))
def test_exact_delta_bits_match_reference_kernel(paper, name, n):
    """16 pairs, both padding sides, and n across the block size (n = 1
    has no prefix, and 6^6 <= _SUM_CHUNK < 6^7, so n = 7 and 8 take 6 and
    36 blocks of 6^6 outputs)."""
    from conftest import make_dmc
    d = paper if name in KERNEL_PLANS else make_dmc(paper.gamma_y, GZ_ZEROS)
    plan = KERNEL_PLANS[name] if name in KERNEL_PLANS else ZERO_PLANS[name]
    cfg = SimConfig(n=n, plan=plan, m1=2, m2=2, m3=2, k1=2, k2=2, trials=0)
    ens = build_codebooks(cfg, rng_for(44, n), d=d)
    deltas = []
    for w3, unit in enumerate(("nats", "bits")):
        deltas.append(exact_delta(ens, d, w3, unit))
        want = _reference_exact_delta(ens, d, w3, unit)
        assert deltas[-1].hex() == want.hex()
    if n == 8 and name in ZERO_PLANS:
        assert not ens.x1[..., :6].any() and ens.x1[..., 6:].any()
        assert [math.isinf(v) for v in deltas] == [name == "zeros-inf"] * 2


def test_exact_delta_many_pairs_shrink_the_block(paper):
    """With 128 pairs at n = 6 the prefix laws of 5 positions hold
    129 * 6^5 doubles, just under _PREFIX_CAP: the bits stay the reference
    kernel's, and memory stays bounded."""
    cfg = SimConfig(n=6, plan=PLAN_DENSE, m1=4, m2=4, m3=1, k1=4, k2=2,
                    trials=0)
    assert 129 * 6 ** 5 <= simulator._PREFIX_CAP < 129 * 6 ** 6
    ens = build_codebooks(cfg, rng_for(50), d=paper)
    got, peak = _traced_peak(lambda: exact_delta(ens, paper, 0))
    assert got.hex() == _reference_exact_delta(ens, paper, 0).hex()
    assert peak <= 16e6


def _four_symbol_warden():
    """A channel whose rows are strictly positive laws on 4 symbols."""
    from conftest import make_dmc
    gz = np.random.default_rng(5).dirichlet(np.full(4, 2.0), size=8)
    gz /= gz.sum(axis=1, keepdims=True)
    return make_dmc(gz, gz)


@pytest.mark.parametrize("zs, n, sizes, s", [
    (6, 1, (2, 2, 2, 2), 0),        # s <= n - 1
    (6, 6, (2, 2, 2, 2), 5),        # s <= n - 1, and 6^6 <= _SUM_CHUNK
    (6, 8, (2, 2, 2, 2), 5),        # 6^7 > _SUM_CHUNK
    (6, 6, (4, 4, 3, 3), 4),        # 145 * 6^5 > _PREFIX_CAP
    (4, 8, (4, 4, 4, 2), 6),        # 129 * 4^7 > _PREFIX_CAP, 4^8 fits
])
def test_exact_delta_block_rule(paper, monkeypatch, zs, n, sizes, s):
    """The prefix spans the most positions s with s <= n - 1,
    |Z|^(s+1) <= _SUM_CHUNK and (pairs + 1) |Z|^s <= _PREFIX_CAP, and the
    bits stay the reference kernel's whichever condition binds."""
    d = paper if zs == 6 else _four_symbol_warden()
    m1, k1, m2, k2 = sizes
    cfg = SimConfig(n=n, plan=PLAN_DENSE, m1=m1, m2=m2, m3=2, k1=k1, k2=k2,
                    trials=0)
    ens = build_codebooks(cfg, rng_for(52, n), d=d)
    prefix = []             # the positions of each prefix law built
    product_law = simulator._product_law
    monkeypatch.setattr(simulator, "_product_law",
                        lambda rows: prefix.append(len(rows))
                        or product_law(rows))
    for w3, unit in enumerate(("nats", "bits")):
        got = exact_delta(ens, d, w3, unit)
        assert got.hex() == _reference_exact_delta(ens, d, w3, unit).hex()
    assert prefix == [s] * 2 * (cfg.pair_count() + 1)


@pytest.mark.parametrize("plan, deltas", [
    (PLAN_X0, ("0x1.877c0274cc780p+0",) * 2),
    (PLAN_DENSE, ("0x1.bb25f657a215fp+1", "0x1.92116ac454f0bp+1")),
], ids=["plan-A", "plan-B"])
def test_exact_delta_enumerate_workload_pinned(paper, plan, deltas):
    """The n = 8, 16-pair configurations of the benchmark's enumerate
    workload (its ENUM_PLAN_A and ENUM_PLAN_B), 36 blocks each, recorded
    with the whole-array kernel."""
    cfg = SimConfig(n=8, plan=plan, m1=2, m2=2, m3=2, k1=2, k2=2, trials=0)
    ens = build_codebooks(cfg, rng_for(48), d=paper)
    got = [exact_delta(ens, paper, w3).hex() for w3 in range(2)]
    assert got == list(deltas)


def test_exact_delta_memory_is_not_exponential_in_n(paper):
    """One call at n = 8 with 16 pairs on plan B peaks at about 4 MB under
    tracemalloc (17 prefix laws of 6^5 doubles and three blocks of 6^6);
    the whole-array kernel held three 6^8 arrays (a 44 MB peak)."""
    cfg = SimConfig(n=8, plan=PLAN_DENSE, m1=2, m2=2, m3=2, k1=2, k2=2,
                    trials=0)
    ens = build_codebooks(cfg, rng_for(48), d=paper)
    assert _traced_peak(lambda: exact_delta(ens, paper, 0))[1] <= 6e6


def _traced_peak(call):
    """call()'s result and the peak of the memory tracemalloc saw it use."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("w3, unit, error, match", [
    (-1, "nats", IndexError, "w3 out of range"),
    (2, "nats", IndexError, "w3 out of range"),
    (0, "furlongs", ValueError, "unit must be"),
], ids=["w3-negative", "w3-m3", "unit"])
def test_exact_delta_checks_arguments_before_enumerating(paper, monkeypatch,
                                                         w3, unit, error,
                                                         match):
    cfg = SimConfig(n=4, plan=PLAN_Q, m3=2, trials=0)
    ens = build_codebooks(cfg, rng_for(49), d=paper)
    laws = []
    monkeypatch.setattr(simulator, "_product_law",
                        lambda *args: laws.append(args))
    with pytest.raises(error, match=match):
        exact_delta(ens, paper, w3, unit)
    assert laws == []


def _same_sum(a):
    """An _ExactSum fed the whole of ``a`` returns fsum's bits."""
    a = np.asarray(a, dtype=float)
    acc = _ExactSum()
    acc.add(a)
    assert acc.value().hex() == math.fsum(a.tolist()).hex()


# |a_i| <= 1e300 keeps fsum clear of intermediate overflow
FINITE = st.floats(min_value=-1e300, max_value=1e300)


@settings(max_examples=200, deadline=None)
@given(st.lists(FINITE, max_size=60))
@example([])
@example([-0.0])
@example([-0.0, -0.0])
@example([0.0, -0.0])
@example([5e-324])
@example([1e300, -1e300, 5e-324])
@example([1.0, math.inf, -2.0])
@example([-math.inf, 5e-324])
@example([math.nan, 1.0])
def test_exact_sum_matches_fsum(xs):
    _same_sum(xs)


@settings(max_examples=100, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=40),
       st.lists(st.floats(min_value=-1e-300, max_value=1e-300), max_size=4),
       st.randoms(use_true_random=False))
def test_exact_sum_cancellation(xs, tail, rnd: random.Random):
    a = xs + [-x for x in xs] + tail
    rnd.shuffle(a)
    _same_sum(a)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 3 * _SUM_CHUNK + 5), st.integers(0, 2**32 - 1),
       st.floats(-320, -1), st.floats(1, 300))
def test_exact_sum_over_chunks(length, seed, lo, hi):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal(length) * 10.0 ** gen.uniform(lo, hi, length)
    _same_sum(a)
    _same_sum(np.concatenate([a, -a[::-1], a[:7]]))


def _outcome(total):
    """total()'s hex, or the message of fsum's ValueError on inf + -inf."""
    try:
        return total().hex()
    except ValueError as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(FINITE, st.sampled_from(
           [-0.0, 5e-324, math.inf, -math.inf, math.nan])), max_size=60),
       st.lists(st.integers(0, 60), max_size=6))
@example([-0.0, -0.0], [1])
@example([1.0, -1.0, -0.0], [1, 2])
@example([math.inf, 1.0, -math.inf], [1, 2])
def test_exact_sum_accumulator_any_split(xs, cuts):
    """_ExactSum fed the pieces of any split of a list returns fsum's bits."""
    acc = _ExactSum()
    for part in np.split(np.asarray(xs, dtype=float), sorted(cuts)):
        acc.add(part)
    assert _outcome(acc.value) == _outcome(lambda: math.fsum(xs))


PIN_PLAN = dict(p_t=(0.4, 0.6), p_x3_given_t=((0.7, 0.3), (0.2, 0.8)),
                rho1=(1.5, 0.5), rho2=(0.5, 2.0))


@pytest.mark.parametrize("betas, fixed, counts, deltas", [
    # beta2 < beta1: user 2 pads, fresh ensemble per trial
    ((1.0, 0.6), False,
     (1, 34, {"w3_h0": 1, "w3": 2, "w1": 17, "w2": 26}),
     ("0x1.3320391667b7ap+1", "0x1.8b8f8da5a71cbp+0")),
    # beta2 > beta1: user 1 pads, one fixed ensemble
    ((0.7, 1.0), True,
     (0, 32, {"w3_h0": 0, "w3": 4, "w1": 25, "w2": 13}),
     ("0x1.6ef1929ef525bp-1", "0x1.28e51de2169e6p+0")),
])
def test_simulator_outputs_pinned(paper, betas, fixed, counts, deltas):
    """Trial counts and exact divergences recorded from the per-phase
    reference implementation; any change to the RNG consumption order, the
    padding segment or a decode decision shows here."""
    plan = PhasePlan(**PIN_PLAN, beta1=betas[0], beta2=betas[1])
    rep = run_trials(SimConfig(n=80, plan=plan, m1=3, m2=3, m3=16, k1=2, k2=2,
                               trials=40, seed=7, fixed_codebook=fixed), paper)
    e0, e1, stage = counts
    assert (rep.pe0_hat, rep.pe1_hat) == (e0 / 40, e1 / 40)
    assert rep.stage_errors == stage
    cfg = SimConfig(n=6, plan=plan, m1=2, m2=2, m3=2, k1=1, k2=2, trials=0)
    ens = build_codebooks(cfg, rng_for(41), d=paper)
    assert [exact_delta(ens, paper, w3).hex() for w3 in range(2)] == list(deltas)


def _three_symbol_channel():
    """x3_size 3, |Y| 5, |Z| 4: gamma_y has a zero column (-inf logs)."""
    gen = np.random.default_rng(123)
    gy = gen.dirichlet(np.ones(5), 12)
    gy[:, 1] = 0
    gy /= gy.sum(axis=1, keepdims=True)
    gz = gen.dirichlet(np.ones(4), 12)
    return cm.channel.Dmc(gy, gz)


# REF_PLAN of tests/test_region.py and the benchmark's simulate workload
SIM_REF_PLAN = PhasePlan(p_t=(0.6, 0.4), p_x3_given_t=((0.7, 0.3), (0.2, 0.8)),
                         rho1=(0.9, 0.3), rho2=(0.4, 1.1), beta1=0.9, beta2=0.8)
# a zero x3 entry in the first phase
PLAN_THREE = PhasePlan(p_t=(0.5, 0.5), p_x3_given_t=((0.2, 0.0, 0.8),
                                                      (0.3, 0.3, 0.4)),
                       rho1=(1.0, 0.5), rho2=(0.7, 1.2), beta1=0.7, beta2=1.0)


@pytest.mark.parametrize("chan, plan, seed, n, trials, fixed, counts", [
    # the benchmark's two simulate configurations at seeds 0-2
    ("paper", SIM_REF_PLAN, 0, 1000, 200, False,
     (0, 151, {"w3_h0": 0, "w3": 0, "w1": 86, "w2": 102})),
    ("paper", SIM_REF_PLAN, 0, 10_000, 40, True,
     (0, 26, {"w3_h0": 0, "w3": 0, "w1": 15, "w2": 17})),
    ("paper", SIM_REF_PLAN, 1, 1000, 200, False,
     (0, 139, {"w3_h0": 0, "w3": 0, "w1": 77, "w2": 98})),
    ("paper", SIM_REF_PLAN, 1, 10_000, 40, True,
     (0, 20, {"w3_h0": 0, "w3": 0, "w1": 7, "w2": 16})),
    ("paper", SIM_REF_PLAN, 2, 1000, 200, False,
     (0, 125, {"w3_h0": 0, "w3": 0, "w1": 74, "w2": 87})),
    ("paper", SIM_REF_PLAN, 2, 10_000, 40, True,
     (0, 23, {"w3_h0": 0, "w3": 0, "w1": 17, "w2": 12})),
    # -inf receiver logs and a zero x3 entry; n = 40 makes w3 errors
    ("three", PLAN_THREE, 0, 1000, 60, False,
     (0, 41, {"w3_h0": 0, "w3": 0, "w1": 15, "w2": 33})),
    ("three", PLAN_THREE, 0, 40, 80, True,
     (20, 75, {"w3_h0": 20, "w3": 28, "w1": 51, "w2": 63})),
], ids=["ref-s0-n1e3", "ref-s0-n1e4-fixed", "ref-s1-n1e3",
        "ref-s1-n1e4-fixed", "ref-s2-n1e3", "ref-s2-n1e4-fixed",
        "three-n1e3", "three-n40-fixed"])
def test_simulate_workload_reports_pinned(paper, chan, plan, seed, n, trials,
                                          fixed, counts):
    """Error counts recorded before the trial kernels were rewritten; the
    draws, the sampling and every decode decision must keep them."""
    d = paper if chan == "paper" else _three_symbol_channel()
    rep = run_trials(SimConfig(n=n, plan=plan, m1=4, m2=4, m3=16, k1=2, k2=2,
                               trials=trials, seed=seed, fixed_codebook=fixed),
                     d)
    e0, e1, stage = counts
    assert (rep.pe0_hat, rep.pe1_hat) == (e0 / trials, e1 / trials)
    assert rep.stage_errors == stage


def test_codebook_storage_read_only(paper):
    plan = PhasePlan.single_phase((0.535, 0.465), 1.0, 1.0, beta1=1.0, beta2=0.5)
    cfg = SimConfig(n=40, plan=plan, trials=0)
    ens = build_codebooks(cfg, rng_for(42), d=paper)
    x1, x2, x3 = encode(ens, 1, 0, 0, 0, 0, 0, rng_for(43))
    for view in (x1, x3, ens.x3_sequence(0), ens.x2):
        with pytest.raises(ValueError):
            view[0] = 1
    before = ens.x2.copy()
    x2[:] = 1                             # the padded word is a fresh copy
    fresh = ens.covert_sequence(1, 0, 0)
    fresh[:] = 1
    np.testing.assert_array_equal(ens.x2, before)
    np.testing.assert_array_equal(ens.covert_sequence(1, 0, 0), x1)
