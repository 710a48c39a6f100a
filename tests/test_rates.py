import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from noma_as import (PowerSplit, cr_power_split, cr_rates, fnoma_pair_rates,
                     fnoma_sum_rate, jain_fairness, oma_pair_rates, qos_epsilon)

LOG2_5 = math.log2(5.0)

gains = st.floats(min_value=1e-9, max_value=1e4)
coeffs = st.floats(min_value=0.05, max_value=0.5)
snrs = st.floats(min_value=1e-2, max_value=1e14)
settings.register_profile("rates", deadline=None)
settings.load_profile("rates")


def test_channel_order_branches():
    # UE1 takes the strong-user role when h > g, UE2 when h < g, and a tie
    # resolves to the UE1 side
    split = PowerSplit.from_b(0.4)
    strong = math.log2(1.0 + 10.0 * 0.4 * 1.0)
    assert fnoma_pair_rates(2.0, 1.0, split, 10.0).r1 == math.log2(1.0 + 10.0 * 0.4 * 2.0)
    assert fnoma_pair_rates(1.0, 2.0, split, 10.0).r2 == math.log2(1.0 + 10.0 * 0.4 * 2.0)
    r1, r2 = fnoma_pair_rates(1.0, 1.0, split, 10.0)
    assert r1 == strong and r2 < strong
    # UE1 strong keeps the most power the floor allows (b = 0.45); UE2
    # strong would get the least it needs (b = 0.1)
    assert cr_power_split(2.0, 1.0, 10.0, 1.0).b == pytest.approx(0.45, abs=1e-15)
    assert cr_power_split(1.0, 2.0, 10.0, 1.0).b == pytest.approx(0.05, abs=1e-15)
    assert cr_power_split(1.0, 1.0, 10.0, 1.0).b == pytest.approx(0.45, abs=1e-15)
    assert cr_rates(1.0, 1.0, 10.0, 1.0).r1 == math.log2(1.0 + 10.0 * 0.45 * 1.0)


def test_power_split_construction():
    s = PowerSplit.from_b(0.4)
    assert s.a + s.b == 1.0 and s.a == 0.6
    with pytest.raises(ValueError):
        PowerSplit.from_b(1.2)


def test_fnoma_pair_example():
    r1, r2 = fnoma_pair_rates(1.0, 0.5, PowerSplit.from_b(0.4), 10.0)
    assert r1 == pytest.approx(LOG2_5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fnoma_pair_mirrored():
    r1, r2 = fnoma_pair_rates(0.5, 1.0, PowerSplit.from_b(0.4), 10.0)
    assert r2 == pytest.approx(LOG2_5, abs=1e-12)
    assert r1 == pytest.approx(1.0, abs=1e-12)


def test_weak_rate_saturates_at_high_snr():
    _, r2 = fnoma_pair_rates(2.0, 1.0, PowerSplit.from_b(0.4), 1e15)
    assert r2 == pytest.approx(math.log2(1.0 / 0.4), abs=1e-6)


def test_fnoma_rejects_strong_heavy_split():
    with pytest.raises(ValueError):
        fnoma_pair_rates(1.0, 0.5, PowerSplit.from_b(0.7), 10.0)


def test_sum_rate_example():
    assert fnoma_sum_rate(1.0, 0.5, 0.4, 10.0) == pytest.approx(LOG2_5 + 1.0, abs=1e-12)


def test_sum_rate_weak_term_vanishes():
    assert fnoma_sum_rate(2.0, 0.0, 0.4, 10.0) == math.log2(1.0 + 10.0 * 0.4 * 2.0)


def test_sum_rate_requires_ordered_gains():
    with pytest.raises(ValueError):
        fnoma_sum_rate(0.5, 1.0, 0.4, 10.0)


@given(h=gains, g=gains, b=coeffs, rho=snrs)
def test_sum_rate_equals_pair_sum(h, g, b, rho):
    r1, r2 = fnoma_pair_rates(h, g, PowerSplit.from_b(b), rho)
    assert fnoma_sum_rate(max(h, g), min(h, g), b, rho) == r1 + r2


@given(h=gains, g=gains, b=coeffs, rho=st.floats(1e-2, 1e12))
def test_exactly_one_interference_limited_branch(h, g, b, rho):
    # the larger gain always takes the cancellation form, the smaller the
    # interference-limited form; never both of a kind
    r1, r2 = fnoma_pair_rates(h, g, PowerSplit.from_b(b), rho)
    a = 1.0 - b
    strong = lambda x: np.log2(1.0 + rho * b * x)
    weak = lambda x: np.log2(1.0 + a * x / (b * x + 1.0 / rho))
    if h >= g:
        assert r1 == strong(h) and r2 == weak(g)
    else:
        assert r1 == weak(h) and r2 == strong(g)


@given(h=gains, g=gains, b=coeffs, rho=st.floats(1e-2, 1e12))
def test_rates_monotone_in_snr(h, g, b, rho):
    split = PowerSplit.from_b(b)
    lo = fnoma_pair_rates(h, g, split, rho)
    hi = fnoma_pair_rates(h, g, split, rho * 4.0)
    assert hi.r1 >= lo.r1 - 1e-12
    assert hi.r2 >= lo.r2 - 1e-12


def test_jain_examples():
    assert jain_fairness(3.0, 3.0) == 1.0
    assert jain_fairness(3.0, 1.0) == pytest.approx(0.8, abs=1e-15)
    assert jain_fairness(3.0, 0.0) == 0.5
    assert jain_fairness(0.0, 0.0) == 1.0  # degenerate point pinned to fair


@given(r1=st.floats(0, 50), r2=st.floats(0, 50))
@example(r1=7.462160828527934e-157, r2=7.462160828527934e-157)
def test_jain_range(r1, r2):
    assert 0.5 <= jain_fairness(r1, r2) <= 1.0


def test_cr_split_examples():
    # UE2 strong: minimum power meeting the floor
    assert cr_power_split(0.2, 0.5, 10.0, 1.0).b == pytest.approx(0.2, abs=1e-15)
    # UE1 strong: maximum power left after the floor
    assert cr_power_split(2.0, 1.0, 10.0, 1.0).b == pytest.approx(0.45, abs=1e-15)
    # infeasible floor: all power to the primary
    assert cr_power_split(2.0, 0.05, 10.0, 1.0).b == 0.0


@pytest.mark.parametrize("h, g", [(2.0, 1.0), (1.0, 2.0)])
@pytest.mark.parametrize("r_th", [1024.0, math.inf])
def test_cr_rates_reject_a_floor_whose_threshold_overflows(h, g, r_th):
    for formula in (cr_power_split, cr_rates):
        with pytest.raises(ValueError, match=r"\br_th\b"):
            formula(h, g, 10.0, r_th)


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


@given(h=gains, g=gains, rho=st.floats(1.0, 1e14), r_th=st.floats(0.1, 10.0))
def test_cr_qos_tightness(h, g, rho, r_th):
    split = cr_power_split(h, g, rho, r_th)
    if 0.0 < split.b < 1.0:
        _, r2 = cr_rates(h, g, rho, r_th)
        assert abs(r2 - r_th) <= 1e-9


log_spread = lambda lo, hi: st.floats(lo, hi).map(lambda e: 10.0 ** e)


@given(h=log_spread(-6, 300), g=log_spread(-6, 300), rho=log_spread(-3, 3),
       r_th=st.floats(0.01, 60.0))
@example(h=2e300, g=1e300, rho=1.0, r_th=40.0)
def test_cr_split_interior_and_tight_when_ue1_strong(h, g, rho, r_th):
    # the split stays inside (0, 1) and pins the primary rate to the floor
    # also where rho * g * 2**r_th passes the float range
    assume(h >= g and 1e-3 <= rho * g <= 1e300 and rho * g > qos_epsilon(r_th))
    b = cr_power_split(h, g, rho, r_th).b
    assert 0.0 < b < 1.0
    _, r2 = cr_rates(h, g, rho, r_th)
    assert abs(r2 - r_th) <= 1e-9


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
        assert fnoma_sum_rate(gs, gw, b, rho) - approx == pytest.approx(0.0, abs=1e-6)


def test_oma_examples():
    assert oma_pair_rates(0.0, 0.0, 5.0) == (0.0, 0.0)
    r1, r2 = oma_pair_rates(1.0, 1.0, 3.0)
    assert r1 == 1.0 and r2 == 1.0
    r1, r2 = oma_pair_rates(0.7, 0.7, 123.0)
    assert r1 == r2


def test_qos_epsilon():
    assert qos_epsilon(1.0) == 1.0
    assert qos_epsilon(5.0) == 31.0
