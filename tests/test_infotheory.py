import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covertmac as cm
from covertmac.infotheory import (_channel_terms, capacity_x3, chi_square,
                                  divergence_profile, kl_div, mixture_kl,
                                  mutual_info_x3, unit_factor)

from conftest import make_dmc

# golden constants computed with a 40-digit independent evaluation of the
# shipped channel rows (natural log)
PROFILE_NATS = {
    0: dict(d_y1=0.77147456824453567, d_y2=0.61127755960246425,
            d_z1=0.81592481218593672, d_z2=2.0082462771787865),
    1: dict(d_y1=0.61390975222172287, d_y2=0.49372079822621359,
            d_z1=0.37800078610918239, d_z2=0.27457411635791412),
}
CHI2_10_X0 = 3.2025757575757576
CHI2_01_X0 = 22.819145135566188
CHI2_MIX_X1 = 0.69456334072431633          # rho = (0.3, 0.7), x3 = 1
CAPACITY_BITS = 0.197534050675693           # reference curve value
MI_UNIFORM_BITS = 0.19666811197991033


def dists(n):
    return st.lists(st.floats(0.001, 1.0), min_size=n, max_size=n).map(
        lambda v: np.array(v) / sum(v))


def test_kl_identity_is_zero(paper):
    for x3 in range(2):
        p = paper.row("Z", 1, 0, x3)
        assert kl_div(p, p) == 0.0


def test_kl_closed_form():
    assert math.isclose(kl_div([1.0, 0.0], [0.5, 0.5], "nats"),
                        math.log(2), rel_tol=1e-15)
    assert math.isclose(kl_div([1.0, 0.0], [0.5, 0.5], "bits"), 1.0,
                        rel_tol=1e-15)


def test_kl_golden_warden_row(paper):
    val = kl_div(paper.row("Z", 1, 0, 0), paper.row("Z", 0, 0, 0), "nats")
    assert math.isclose(val, PROFILE_NATS[0]["d_z1"], rel_tol=1e-13)


def test_kl_support_violation_infinite():
    assert kl_div([0.5, 0.5, 0.0], [0.5, 0.0, 0.5], "nats") == math.inf


def test_kl_input_validation():
    with pytest.raises(ValueError):
        kl_div([0.5, 0.5], [0.5, 0.3, 0.2])
    with pytest.raises(ValueError):
        kl_div([0.5, 0.4], [0.5, 0.5])


@pytest.mark.parametrize("call, match", [
    (lambda d: unit_factor("furlongs"), "unit must be"),
    (lambda d: kl_div([[0.5, 0.5]], [0.5, 0.5]), "must be a vector"),
    (lambda d: chi_square(d, -1.0, 1.0, 0), "non-negative"),
    (lambda d: mutual_info_x3(d, [0.2, 0.3, 0.5]), "must have length 2"),
    (lambda d: mixture_kl(d, 1.0, 1.0, 0, -1e-3), "alpha must be"),
], ids=["unit", "kl-matrix", "chi2-negative-rho", "mi-length",
        "mixture-negative-alpha"])
def test_invalid_arguments_raise(paper, call, match):
    with pytest.raises(ValueError, match=match):
        call(paper)


@pytest.mark.parametrize("call", [
    lambda d: mutual_info_x3(d, [math.nan, math.nan]),
    lambda d: mutual_info_x3(d, [math.inf, 0.0]),
    lambda d: kl_div([math.nan, 1.0], [0.5, 0.5]),
    lambda d: kl_div([0.5, 0.5], [0.5, math.nan]),
], ids=["mi-nan", "mi-inf", "kl-nan-p", "kl-nan-q"])
def test_non_finite_distribution_rejected(paper, call):
    """NaN passes a sum-within-tolerance test (every comparison with NaN is
    false), so non-finite entries are rejected first."""
    with pytest.raises(ValueError, match="has a non-finite entry"):
        call(paper)


@settings(max_examples=60, deadline=None)
@given(dists(5), dists(5))
def test_kl_nonnegative_zero_iff_equal(p, q):
    v = kl_div(p, q, "nats")
    assert v >= -1e-10
    if np.max(np.abs(p - q)) > 1e-6:
        assert v > 0
    assert kl_div(p, p, "nats") <= 1e-10


def test_divergence_profile_goldens(paper):
    prof = divergence_profile(paper, "nats")
    for x3, vals in PROFILE_NATS.items():
        assert math.isclose(prof.d_y1[x3], vals["d_y1"], rel_tol=1e-13)
        assert math.isclose(prof.d_y2[x3], vals["d_y2"], rel_tol=1e-13)
        assert math.isclose(prof.d_z1[x3], vals["d_z1"], rel_tol=1e-13)
        assert math.isclose(prof.d_z2[x3], vals["d_z2"], rel_tol=1e-13)
        # identity holds exactly as computed
        assert prof.d_zy1[x3] == prof.d_z1[x3] - prof.d_y1[x3]
        assert prof.d_zy2[x3] == prof.d_z2[x3] - prof.d_y2[x3]


def test_divergence_profile_nonnegative(paper):
    prof = divergence_profile(paper, "nats")
    for arr in (prof.d_y1, prof.d_y2, prof.d_z1, prof.d_z2):
        assert np.all(arr >= -1e-12)


def test_profile_identical_rows_zero(uniform_channel):
    prof = divergence_profile(uniform_channel, "nats")
    for x3, *vals in prof.rows():
        assert all(abs(v) < 1e-15 for v in vals)


def test_profile_receiver_equals_warden():
    gy = cm.paper_channel().gamma_y.tolist()
    d = make_dmc(gy, gy)
    prof = divergence_profile(d, "nats")
    assert np.all(prof.d_zy1 == 0) and np.all(prof.d_zy2 == 0)


def test_chi_square_goldens(paper):
    assert math.isclose(chi_square(paper, 1.0, 0.0, 0), CHI2_10_X0, rel_tol=1e-13)
    assert math.isclose(chi_square(paper, 0.0, 1.0, 0), CHI2_01_X0, rel_tol=1e-13)
    assert math.isclose(chi_square(paper, 0.3, 0.7, 1), CHI2_MIX_X1, rel_tol=1e-13)


def test_chi_square_identical_rows(uniform_channel):
    assert chi_square(uniform_channel, 1.0, 1.0, 0) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.floats(0.001, 10), st.floats(0, 10), st.sampled_from([0, 1]),
       st.sampled_from([1e-3, 7.0, 1e3]))
def test_chi_square_scale_invariant(r1, r2, x3, c):
    d = cm.paper_channel()
    a = chi_square(d, r1, r2, x3)
    b = chi_square(d, c * r1, c * r2, x3)
    assert math.isclose(a, b, rel_tol=1e-12)


def test_chi_square_zero_mixture_rejected(paper):
    with pytest.raises(ValueError):
        chi_square(paper, 0.0, 0.0, 0)


@pytest.mark.parametrize("x3", [2, -1])
def test_chi_square_x3_outside_alphabet_rejected(paper, x3):
    assert x3 in (paper.x3_size, -1)
    with pytest.raises(IndexError):
        chi_square(paper, 1.0, 1.0, x3)


def test_chi_square_ac_violation_infinite():
    gz = [[1.0, 0.0, 0.0], [0.3, 0.3, 0.4],
          [1.0, 0.0, 0.0], [0.3, 0.3, 0.4],
          [0.0, 0.0, 1.0], [0.3, 0.3, 0.4],
          [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]]
    gy = [[0.5, 0.3, 0.2]] * 8
    d = make_dmc(gy, gz)
    assert chi_square(d, 1.0, 1.0, 0) == math.inf
    assert math.isfinite(chi_square(d, 1.0, 1.0, 1))


def test_mutual_info_point_mass_zero(paper):
    assert mutual_info_x3(paper, [1.0, 0.0]) == 0.0
    assert mutual_info_x3(paper, [0.0, 1.0]) == 0.0


def test_mutual_info_identical_rows_zero(uniform_channel):
    assert mutual_info_x3(uniform_channel, [0.5, 0.5]) <= 1e-15


def test_mutual_info_uniform_golden(paper):
    v = mutual_info_x3(paper, [0.5, 0.5], "bits")
    assert math.isclose(v, MI_UNIFORM_BITS, rel_tol=1e-12)


def test_mutual_info_ignores_symbols_the_law_never_sends():
    """x3 = 0 reaches an output that q = (0, .5, .5) never produces, so its
    divergence from q's output law is infinite; q never sends it, so it adds
    nothing: I(X3; Y) is 0.5 bits, through mutual_info_x3, rate_tuple's R3
    and the LPs' per-law table alike."""
    off = [[.5, .5, 0, 0], [0, .5, .5, 0], [0, 0, .5, .5]]
    on = [[.6, .4, 0, 0], [0, .4, .6, 0], [0, 0, .6, .4]]
    d = make_dmc(off + on * 3, [[.25, .25, .3, .2]] * 3
                 + [[.3, .2, .25, .25]] * 9)
    q = (0.0, 0.5, 0.5)
    got = mutual_info_x3(d, q)
    assert abs(got - 0.5) <= 1e-12
    assert cm.rate_tuple(d, cm.PhasePlan.single_phase(q, 1.0, 1.0)).R3 == got
    tab = _channel_terms(d, "bits")
    assert abs(got - tab.info(np.array([q]))[0]) <= 1e-12


def test_mutual_info_below_capacity(paper):
    cap, _ = capacity_x3(paper, unit="bits")
    v = mutual_info_x3(paper, [0.5, 0.5], "bits")
    assert 0 < v < cap


def test_capacity_reference_value(paper):
    cap, p = capacity_x3(paper, unit="bits")
    assert abs(cap - CAPACITY_BITS) < 1e-6
    assert abs(p.sum() - 1) < 1e-12


def test_capacity_law_is_a_writable_copy(paper):
    _, law = capacity_x3(paper)
    first = law.copy()
    law[:] = 0.0
    assert np.array_equal(capacity_x3(paper)[1], first)


def test_capacity_zero_cases(uniform_channel):
    cap, _ = capacity_x3(uniform_channel)
    assert cap <= 1e-12
    # binary symmetric with crossover 0.5 is useless
    rows = [[0.5, 0.5]] * 8
    d = make_dmc(rows, rows)
    cap, _ = capacity_x3(d)
    assert cap <= 1e-12


def test_capacity_is_maximal(paper):
    cap, _ = capacity_x3(paper, unit="nats")
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = rng.dirichlet([1.0, 1.0])
        assert mutual_info_x3(paper, p, "nats") <= cap + 1e-9


def test_mixture_kl_trivial_cases(paper):
    assert mixture_kl(paper, 1.0, 1.0, 0, 0.0) == 0.0
    assert mixture_kl(paper, 0.0, 0.0, 1, 0.01) == 0.0
    with pytest.raises(ValueError):
        mixture_kl(paper, 2.0, 0.0, 0, 0.6)


def test_mixture_kl_second_order_ratio(paper):
    # frozen from the independent high-precision evaluation, rho=(1,0), x3=0
    expected = {1e-2: 0.971538795064, 1e-3: 0.996986904012, 1e-4: 0.99969688481}
    c2 = chi_square(paper, 1.0, 0.0, 0)
    prev_gap = None
    for alpha, want in expected.items():
        ratio = mixture_kl(paper, 1.0, 0.0, 0, alpha, "nats") / (alpha ** 2 / 2 * c2)
        assert math.isclose(ratio, want, rel_tol=1e-6)
        gap = abs(1 - ratio)
        if prev_gap is not None:
            assert gap < prev_gap       # monotone approach to 1
        prev_gap = gap


# capacity_x3 (cap, law) by float.hex on the shipped channel and on the
# seeded random channels of _capacity_channel, frozen from the scalar
# Blahut-Arimoto loop
CAPACITY_PINS = {
    ("paper", "bits"): ("0x1.948cbbafcb393p-3",
                        ("0x1.11e61ce137c08p-1", "0x1.dc33c63d907eep-2")),
    ("paper", "nats"): ("0x1.18699a5063ff6p-3",
                        ("0x1.11e61ce0707cap-1", "0x1.dc33c63f1f06cp-2")),
    (0, "bits"): ("0x1.bfaa3d078b308p-4",
                  ("0x1.02fe3bf85ec16p-1", "0x1.fa03880f427d4p-2")),
    (0, "nats"): ("0x1.364c37eb0c39ep-4",
                  ("0x1.02fe3bf7a9686p-1", "0x1.fa038810ad2f4p-2")),
    (1, "bits"): ("0x1.a827071aa2f5ap-3",
                  ("0x1.75a8507ff8c7ep-3", "0x1.98ae2d4a21cc2p-2",
                   "0x1.ac7daa75e1cffp-2")),
    (1, "nats"): ("0x1.26000500af734p-3",
                  ("0x1.75a8508a419a9p-3", "0x1.98ae2d474908ap-2",
                   "0x1.ac7daa73962a2p-2")),
    (2, "bits"): ("0x1.3467eeaaf5b5cp-3",
                  ("0x1.56f89d800509ap-38", "0x1.c9b2c29a37830p-2",
                   "0x1.8482ac3b901a4p-2", "0x1.6395225445e67p-3")),
    (2, "nats"): ("0x1.ab8a9e58bcb94p-4",
                  ("0x1.0ee00a608faf8p-37", "0x1.c9b2c295adac6p-2",
                   "0x1.8482ac360d64fp-2", "0x1.6395226846257p-3")),
}


def _capacity_channel(seed):
    """Positive Dirichlet rows over x3_size seed + 2 and |Y| = seed + 3."""
    rng = np.random.default_rng([25, seed])
    k = seed + 2
    return make_dmc(rng.dirichlet(np.full(seed + 3, 2.0), size=4 * k),
                    rng.dirichlet(np.full(4, 2.0), size=4 * k))


@pytest.mark.parametrize("name, unit", list(CAPACITY_PINS))
def test_capacity_pinned_bits(name, unit):
    """capacity_x3's value and law, bit for bit."""
    d = cm.paper_channel() if name == "paper" else _capacity_channel(name)
    cap, law = capacity_x3(d, unit)
    assert (float.hex(cap), tuple(float.hex(float(v)) for v in law)) == \
        CAPACITY_PINS[name, unit]
