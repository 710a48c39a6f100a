import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from noma_as import cr_rates, fnoma_pair_rates, oma_pair_rates, qos_epsilon
from noma_as.rates import _cr_secondary_rate, _fnoma_sum_rate, _jain
from oracles import cr_condition, cr_rates_mp, ref_cr_power_split, ref_fnoma_pair_rates

LOG2_5 = math.log2(5.0)

gains = st.floats(min_value=1e-9, max_value=1e4)
coeffs = st.floats(min_value=0.05, max_value=0.5)
snrs = st.floats(min_value=1e-2, max_value=1e14)
log_spread = lambda lo, hi: st.floats(lo, hi).map(lambda e: 10.0 ** e)
settings.register_profile("rates", deadline=None)
settings.load_profile("rates")


def test_channel_order_branches():
    # UE1 takes the strong-user role when h > g, UE2 when h < g, and a tie
    # resolves to the UE1 side
    strong = math.log2(1.0 + 10.0 * 0.4 * 1.0)
    assert fnoma_pair_rates(2.0, 1.0, 0.4, 10.0).r1 == math.log2(1.0 + 10.0 * 0.4 * 2.0)
    assert fnoma_pair_rates(1.0, 2.0, 0.4, 10.0).r2 == math.log2(1.0 + 10.0 * 0.4 * 2.0)
    r1, r2 = fnoma_pair_rates(1.0, 1.0, 0.4, 10.0)
    assert r1 == strong and r2 < strong
    # UE1 strong keeps the most power the floor allows (b = 0.45); UE2
    # strong would get the least it needs (b = 0.1)
    assert ref_cr_power_split(2.0, 1.0, 10.0, 1.0)[1] == pytest.approx(0.45, abs=1e-15)
    assert ref_cr_power_split(1.0, 2.0, 10.0, 1.0)[1] == pytest.approx(0.05, abs=1e-15)
    assert ref_cr_power_split(1.0, 1.0, 10.0, 1.0)[1] == pytest.approx(0.45, abs=1e-15)
    assert cr_rates(1.0, 1.0, 10.0, 1.0).r1 == math.log2(1.0 + 10.0 * 0.45 * 1.0)


def test_fnoma_pair_example():
    r1, r2 = fnoma_pair_rates(1.0, 0.5, 0.4, 10.0)
    assert r1 == pytest.approx(LOG2_5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fnoma_pair_mirrored():
    r1, r2 = fnoma_pair_rates(0.5, 1.0, 0.4, 10.0)
    assert r2 == pytest.approx(LOG2_5, abs=1e-12)
    assert r1 == pytest.approx(1.0, abs=1e-12)


def test_weak_rate_saturates_at_high_snr():
    _, r2 = fnoma_pair_rates(2.0, 1.0, 0.4, 1e15)
    assert r2 == pytest.approx(math.log2(1.0 / 0.4), abs=1e-6)


def test_fnoma_rejects_strong_heavy_split():
    with pytest.raises(ValueError):
        fnoma_pair_rates(1.0, 0.5, 0.7, 10.0)


def test_sum_rate_example():
    assert _fnoma_sum_rate(1.0, 0.5, 0.4, 10.0) == pytest.approx(LOG2_5 + 1.0, abs=1e-12)


def test_sum_rate_weak_term_vanishes():
    assert _fnoma_sum_rate(2.0, 0.0, 0.4, 10.0) == math.log2(1.0 + 10.0 * 0.4 * 2.0)


@given(h=gains, g=gains, b=coeffs, rho=snrs)
def test_sum_rate_equals_pair_sum(h, g, b, rho):
    # the exhaustive search's objective and its row candidates take the
    # gains in either order
    r1, r2 = fnoma_pair_rates(h, g, b, rho)
    want = np.float64(r1 + r2).tobytes()
    assert _fnoma_sum_rate(h, g, b, rho).tobytes() == want
    assert _fnoma_sum_rate(g, h, b, rho).tobytes() == want


@given(h=gains, g=gains, b=coeffs, rho=st.floats(1e-2, 1e12))
def test_exactly_one_interference_limited_branch(h, g, b, rho):
    # the larger gain always takes the cancellation form, the smaller the
    # interference-limited form; never both of a kind
    r1, r2 = fnoma_pair_rates(h, g, b, rho)
    a = 1.0 - b
    strong = lambda x: np.log2(1.0 + rho * b * x)
    weak = lambda x: np.log2(1.0 + a * x / (b * x + 1.0 / rho))
    if h >= g:
        assert r1 == strong(h) and r2 == weak(g)
    else:
        assert r1 == weak(h) and r2 == strong(g)


@given(h=gains, g=gains, b=coeffs, rho=st.floats(1e-2, 1e12))
def test_rates_monotone_in_snr(h, g, b, rho):
    lo = fnoma_pair_rates(h, g, b, rho)
    hi = fnoma_pair_rates(h, g, b, rho * 4.0)
    assert hi.r1 >= lo.r1 - 1e-12
    assert hi.r2 >= lo.r2 - 1e-12


def _jain_of(r1, r2):
    return _jain(r1, r2, np.add(r1, r2))


def test_jain_examples():
    assert _jain_of(3.0, 3.0) == 1.0
    assert _jain_of(3.0, 1.0) == pytest.approx(0.8, abs=1e-15)
    assert _jain_of(3.0, 0.0) == 0.5
    assert _jain_of(0.0, 0.0) == 1.0  # degenerate point pinned to fair


@given(r1=st.floats(0, 50), r2=st.floats(0, 50))
@example(r1=7.462160828527934e-157, r2=7.462160828527934e-157)
@example(r1=50.0, r2=49.99999999999999)  # s*s / (2q) rounds an ulp above 1
def test_jain_range(r1, r2):
    assert 0.5 <= _jain_of(r1, r2) <= 1.0


def test_jain_of_an_array_of_nearly_equal_rates_is_at_most_one():
    # s*s / (2q) rounds an ulp above 1 at each element, in numpy's array
    # loops, which may round otherwise than its scalar path
    r1, r2 = np.full(16, 1.1754943508222875e-38), np.full(16, 1.175494351e-38)
    assert np.all(_jain_of(r1, r2) <= 1.0)


def test_cr_split_examples():
    # UE2 strong: minimum power meeting the floor
    assert ref_cr_power_split(0.2, 0.5, 10.0, 1.0)[1] == pytest.approx(0.2, abs=1e-15)
    # UE1 strong: maximum power left after the floor
    assert ref_cr_power_split(2.0, 1.0, 10.0, 1.0)[1] == pytest.approx(0.45, abs=1e-15)
    # infeasible floor: all power to the primary
    assert ref_cr_power_split(2.0, 0.05, 10.0, 1.0)[1] == 0.0


@pytest.mark.parametrize("h, g", [(2.0, 1.0), (1.0, 2.0)])
@pytest.mark.parametrize("r_th", [1024.0, math.inf])
def test_cr_rates_reject_a_floor_whose_threshold_overflows(h, g, r_th):
    with pytest.raises(ValueError, match=r"\br_th\b"):
        cr_rates(h, g, 10.0, r_th)


def test_cr_rates_example():
    r1, r2 = cr_rates(2.0, 1.0, 10.0, 1.0)
    assert r1 == pytest.approx(math.log2(10.0), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)  # floor met with equality


def test_cr_rates_primary_tight_when_ue2_strong():
    r_th = 1.5
    _, r2 = cr_rates(0.2, 0.9, 50.0, r_th)
    assert r2 == pytest.approx(r_th, abs=1e-12)


def test_cr_rates_zero_when_infeasible():
    r1, _ = cr_rates(2.0, 0.05, 10.0, 1.0)
    assert r1 == 0.0
    r1, _ = cr_rates(0.01, 0.05, 10.0, 6.0)  # UE2 strong but floor unreachable
    assert r1 == 0.0


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), (got, want)


@given(h=log_spread(-300, 300), g=log_spread(-300, 300), rho=log_spread(-3, 300),
       r_th=st.floats(1e-3, 60.0), b=st.floats(0.0, 0.5, exclude_min=True))
@example(h=2e300, g=1e300, rho=1.0, r_th=40.0, b=0.4)  # overflowing split denominator
@example(h=2.0, g=0.05, rho=10.0, r_th=1.0, b=0.4)  # UE1 strong, infeasible: b = 0
@example(h=0.01, g=0.05, rho=10.0, r_th=6.0, b=0.4)  # UE2 strong, b clipped to 1
@example(h=1.0, g=1.0, rho=10.0, r_th=1.0, b=0.5)  # h == g
def test_rates_match_the_two_branch_formulas_bit_for_bit(h, g, rho, r_th, b):
    # each gain pair in both orders and equal, as scalars and as one array;
    # the CR-NOMA rates are held to the 50-digit oracle below instead
    hs, gs = np.array([h, g, h]), np.array([g, h, h])
    with np.errstate(over="ignore"):  # rho * b * x may pass the float range
        for x, y in [(h, g), (g, h), (h, h), (hs, gs)]:
            got = fnoma_pair_rates(x, y, b, rho)
            for got_v, want_v in zip(got, ref_fnoma_pair_rates(x, y, b, rho), strict=True):
                _same_bits(got_v, want_v)
            r1, r2 = cr_rates(x, y, rho, r_th)
            _same_bits(r1, _cr_secondary_rate(x, y, rho, qos_epsilon(r_th)))
            full = np.log2(1.0 + rho * np.asarray(y, dtype=float))
            _same_bits(r2, np.where(full >= r_th, r_th, full))


def _ulps(got, want, condition):
    """|got - want| in ulps of max(|want|, 1), over the condition factor."""
    err = abs(mpmath.mpf(float(got)) - want)
    return float(err / np.spacing(max(abs(float(want)), 1.0))) / condition


CR_ULPS = 2.5  # bound on _ulps of both CR-NOMA rates against the oracle


def _cr_draws(n):
    """n draws of (h, g, rho, r_th) in each of three families: gains and
    SNRs of the figure grids, the log-spread inputs of the acceptance
    checks, and extremes up to rho*h = 1e300."""
    rng = np.random.default_rng(2016)
    d1, d2 = rng.uniform(50.0, 400.0, (2, n))
    figure = (rng.exponential(1.0, n) / d1 ** 3, rng.exponential(1.0, n) / d2 ** 3,
              10.0 ** ((rng.uniform(-20.0, 60.0, n) + 110.0) / 10.0),
              rng.uniform(0.5, 10.0, n))
    spread = (10.0 ** rng.uniform(-8, 2, n), 10.0 ** rng.uniform(-8, 2, n),
              10.0 ** rng.uniform(0, 14, n), rng.uniform(0.1, 10.0, n))
    extreme = (10.0 ** rng.uniform(-150, 150, n), 10.0 ** rng.uniform(-150, 150, n),
               10.0 ** rng.uniform(-3, 150, n), rng.uniform(1e-3, 60.0, n))
    edges = [(2e300, 1e300, 1.0, 40.0), (2.0, 0.05, 10.0, 1.0), (0.01, 0.05, 10.0, 6.0),
             (1.0, 1.0, 10.0, 1.0), (1e-300, 1e-300, 1e10, 1000.0)]
    return [np.concatenate([f[i] for f in (figure, spread, extreme)] + [[e[i] for e in edges]])
            for i in range(4)]


def test_cr_rates_are_within_a_few_ulps_of_the_two_branch_formulas():
    # the coefficient-free forms round differently from the clipped split:
    # both rates stay within CR_ULPS of the two-branch formulas at 50
    # digits, where an ulp is one of max(|rate|, 1) and the strong-UE1
    # cancellation's condition factor divides the error out
    h, g, rho, r_th = _cr_draws(1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r1, r2 = cr_rates(h, g, rho, r_th)
    worst = [0.0, 0.0]
    for i in range(h.size):
        condition = cr_condition(h[i], g[i], rho[i], r_th[i])
        for j, (got, want) in enumerate(zip((r1[i], r2[i]),
                                            cr_rates_mp(h[i], g[i], rho[i], r_th[i]))):
            worst[j] = max(worst[j], _ulps(got, want, condition))
    assert worst[0] <= CR_ULPS and worst[1] <= CR_ULPS, worst


def test_cr_secondary_rate_on_the_search_grid_equals_cr_rates_bit_for_bit():
    # the exhaustive search evaluates r1 on (M, 1, T) x (1, K, T); each
    # element must be the r1 cr_rates gives for that pair, array or scalar
    rng = np.random.default_rng(7)
    h = 10.0 ** rng.uniform(-8, 0, (3, 1, 200))
    g = 10.0 ** rng.uniform(-8, 0, (1, 4, 200))
    for rho, r_th in ((10.0, 1.0), (1e4, 5.0), (1e8, 20.0)):
        grid = _cr_secondary_rate(h, g, rho, qos_epsilon(r_th))
        assert grid.shape == (3, 4, 200) and 0 < np.count_nonzero(grid) < grid.size
        full_h, full_g = (np.ascontiguousarray(x) for x in np.broadcast_arrays(h, g))
        _same_bits(grid, cr_rates(full_h, full_g, rho, r_th).r1)
        for m, k, t in ((0, 0, 0), (2, 3, 199), (1, 2, 57)):
            _same_bits(grid[m, k, t], cr_rates(h[m, 0, t], g[0, k, t], rho, r_th).r1)


@given(h=log_spread(-150, 150), g=log_spread(-150, 150), rho=log_spread(-3, 150),
       r_th=st.floats(1e-3, 60.0))
def test_cr_primary_rate_is_the_floor_or_the_full_power_rate(h, g, rho, r_th):
    # the split pins UE2's SINR at eps wherever it can and otherwise gives
    # UE2 all the power, in either gain order
    for x, y in ((h, g), (g, h)):
        _, r2 = cr_rates(x, y, rho, r_th)
        full = math.log2(1.0 + rho * y)
        assert r2 == (r_th if full >= r_th else full)


@given(h=gains, g=gains, rho=st.floats(1.0, 1e14), r_th=st.floats(0.1, 10.0))
def test_cr_qos_tightness(h, g, rho, r_th):
    b = ref_cr_power_split(h, g, rho, r_th)[1]
    if 0.0 < b < 1.0:
        _, r2 = cr_rates(h, g, rho, r_th)
        assert r2 == r_th


@given(h=log_spread(-6, 300), g=log_spread(-6, 300), rho=log_spread(-3, 3),
       r_th=st.floats(0.01, 60.0))
@example(h=2e300, g=1e300, rho=1.0, r_th=40.0)
def test_cr_split_interior_and_tight_when_ue1_strong(h, g, rho, r_th):
    # the split stays inside (0, 1) and pins the primary rate to the floor
    # also where rho * g * 2**r_th passes the float range
    assume(h >= g and 1e-3 <= rho * g <= 1e300 and rho * g > qos_epsilon(r_th))
    b = ref_cr_power_split(h, g, rho, r_th)[1]
    assert 0.0 < b < 1.0
    _, r2 = cr_rates(h, g, rho, r_th)
    assert r2 == r_th


@given(h=st.floats(1e-3, 1e3), g=st.floats(1e-3, 1e3),
       rho=st.floats(1e10, 1e14), r_th=st.floats(0.1, 10.0))
def test_cr_exact_and_asymptotic_agree_at_high_snr(h, g, rho, r_th):
    # the high-SNR secondary rates behind the closed forms; the floor is met
    r1, r2 = cr_rates(h, g, rho, r_th)
    eps = qos_epsilon(r_th)
    if h >= g:
        asym = math.log2(rho * h / (eps + 1.0))
    else:
        asym = math.log2(rho * h * g / (eps * h + g))
    assert abs(r1 - asym) <= 1e-3
    assert abs(r2 - r_th) <= 1e-3


def test_sum_rate_high_snr_approximation():
    # strong-user log plus the saturated weak-user constant
    rho, b = 1e12, 0.4
    for gs, gw in [(1.0, 0.5), (3.0, 2.9), (10.0, 0.1)]:
        approx = math.log2(1.0 + b * rho * gs) + math.log2(1.0 / b)
        assert _fnoma_sum_rate(gs, gw, b, rho) - approx == pytest.approx(0.0, abs=1e-6)


def test_oma_examples():
    assert oma_pair_rates(0.0, 0.0, 5.0) == (0.0, 0.0)
    r1, r2 = oma_pair_rates(1.0, 1.0, 3.0)
    assert r1 == 1.0 and r2 == 1.0
    r1, r2 = oma_pair_rates(0.7, 0.7, 123.0)
    assert r1 == r2


def test_qos_epsilon():
    assert qos_epsilon(1.0) == 1.0
    assert qos_epsilon(5.0) == 31.0
