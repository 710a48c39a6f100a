import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

import oracles
from noma_as import (AnalyticConfig, EULER_GAMMA, FadingConfig, mcg_avg_secondary_rate,
                     prob_h_ge_g, a3_avg_sum_rate, aia_avg_sum_rate,
                     pu_avg_secondary_rate, quadrature_rate,
                     sample_channel_batch, su_avg_secondary_rate)
from noma_as.analytics import _aia_power_table, _prob_h_ge_g
from oracles import aia_strong_pdf

mpmath.mp.dps = 30


def _cfg(n=2, m=2, k=2, oh=1.0, og=2.0, rho=1e12, b=None, eps=None):
    return AnalyticConfig(n, m, k, oh, og, rho, b, eps)


# --- Euler's constant -------------------------------------------------------

def test_euler_gamma_value():
    assert 0.5772 < EULER_GAMMA < 0.5773


def test_euler_gamma_harmonic_limit():
    n = 10 ** 7
    harmonic = float(np.sum(1.0 / np.arange(1, n + 1)))
    assert abs(harmonic - math.log(n) - EULER_GAMMA) < 1e-7


# --- strong-gain-first average sum rate --------------------------------------

def test_a3_rate_single_antenna_hand_value():
    got = a3_avg_sum_rate(_cfg(1, 1, 1, 1.0, 1.0, 1000.0))
    expected = (math.log(1000.0) - EULER_GAMMA + math.log(2.0)) / math.log(2.0)
    assert got.value == pytest.approx(expected, abs=1e-12)
    assert got.terms == 1


def test_a3_rate_independent_of_split():
    a = a3_avg_sum_rate(_cfg(b=0.2))
    b = a3_avg_sum_rate(_cfg(b=0.4))
    assert a.value == b.value


def test_a3_rate_symmetry_under_population_exchange():
    # swapping (NM, omega_h) with (NK, omega_g) leaves the formula unchanged
    a = a3_avg_sum_rate(_cfg(1, 4, 2, 0.7, 3.0, 1e10))
    b = a3_avg_sum_rate(_cfg(1, 2, 4, 3.0, 0.7, 1e10))
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_a3_rate_vs_quadrature_single_antenna():
    oh, og, rho, b = 1.0, 2.0, 1e12, 0.4
    # density of max(h, g) for one antenna everywhere
    pdf = lambda x: (oh * math.exp(-oh * x) + og * math.exp(-og * x)
                     - (oh + og) * math.exp(-(oh + og) * x))
    numeric = math.log2(1.0 / b) + quadrature_rate(pdf, b, rho)
    closed = a3_avg_sum_rate(_cfg(1, 1, 1, oh, og, rho)).value
    assert closed == pytest.approx(numeric, abs=1e-6)


def test_a3_rate_rejects_oversized_sums():
    with pytest.raises(ValueError):
        a3_avg_sum_rate(_cfg(20, 2, 2))


# --- weak-gain-first density and average sum rate ----------------------------

def test_aia_pdf_reduces_to_max_density_for_single_row():
    cfg = _cfg(1, 3, 2, 1.0, 2.0)
    xs = np.linspace(1e-3, 6.0, 200)
    fh = 3 * 1.0 * np.exp(-xs) * (1 - np.exp(-xs)) ** 2
    Fh = (1 - np.exp(-xs)) ** 3
    fg = 2 * 2.0 * np.exp(-2 * xs) * (1 - np.exp(-2 * xs))
    Fg = (1 - np.exp(-2 * xs)) ** 2
    expected = fh * Fg + fg * Fh
    assert np.max(np.abs(aia_strong_pdf(xs, cfg) - expected)) < 1e-9


def test_aia_pdf_nonnegative_and_normalized():
    for n, m, k in [(1, 1, 1), (2, 2, 2), (3, 2, 1), (4, 2, 2)]:
        cfg = _cfg(n, m, k, 1.0, 2.0)
        xs = np.linspace(0.0, 20.0, 2000)
        assert np.all(aia_strong_pdf(xs, cfg) > -1e-12)
        mass, _ = integrate.quad(lambda x: aia_strong_pdf(x, cfg), 0, np.inf, limit=300)
        assert mass == pytest.approx(1.0, abs=1e-6)


def test_aia_pdf_domain_error():
    with pytest.raises(ValueError):
        aia_strong_pdf(-0.1, _cfg())


def test_aia_pdf_matches_simulated_histogram():
    cfg = _cfg(2, 2, 2, 512000.0, 8.0e6, 1e12)
    fading = FadingConfig(n_bs=2, d1=80.0, d2=200.0)
    h, g = sample_channel_batch(fading, seed=33, start=0, count=1_000_000)
    hn, gn = h.max(axis=2), g.max(axis=2)
    rows = np.minimum(hn, gn).argmax(axis=1)
    t = np.arange(rows.size)
    gamma_s = np.maximum(hn[t, rows], gn[t, rows])
    edges = np.linspace(0.0, 1.2e-5, 49)
    counts, _ = np.histogram(gamma_s, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    # integrate the density across each bin (Simpson) and allow 5-sigma
    # Poisson noise plus a tiny absolute floor
    for lo, hi, c in zip(edges[:-1], edges[1:], counts):
        xs = np.linspace(lo, hi, 9)
        p = integrate.simpson(aia_strong_pdf(xs, cfg), x=xs)
        expected = p * gamma_s.size
        tol = 5.0 * math.sqrt(max(expected, 1.0)) + 5.0
        assert abs(c - expected) <= tol, (lo, hi, c, expected)


def test_aia_rate_consistent_with_quadrature():
    for n, m, k, oh, og in [(2, 2, 2, 1.0, 2.0), (1, 2, 2, 1.0, 2.0),
                            (3, 2, 1, 0.5, 2.0)]:
        cfg = _cfg(n, m, k, oh, og, 1e12, b=0.4)
        numeric = math.log2(1.0 / 0.4) + quadrature_rate(
            lambda x: aia_strong_pdf(x, cfg), 0.4, 1e12)
        closed = aia_avg_sum_rate(cfg).value
        assert abs(closed - numeric) <= 1e-3


def test_aia_rate_equals_a3_rate_for_single_row():
    cfg = _cfg(1, 2, 2, 1.0, 2.0, 1e12, b=0.4)
    assert aia_avg_sum_rate(cfg).value == pytest.approx(
        a3_avg_sum_rate(cfg).value, abs=1e-6)


def test_aia_rate_needs_split():
    with pytest.raises(ValueError):
        aia_avg_sum_rate(_cfg(b=None))


def test_aia_rate_refuses_beyond_the_binomial_range():
    # the a3 rule, N*M, N*K <= 30, with a3's message: at (8, 4, 4) the float
    # expansion returned -359.9 where the rate is 31.7
    for n, m, k in [(60, 3, 3), (8, 4, 4)]:
        with pytest.raises(ValueError) as aia_info:
            aia_avg_sum_rate(_cfg(n, m, k, b=0.4))
        with pytest.raises(ValueError) as a3_info:
            a3_avg_sum_rate(_cfg(n, m, k))
        assert str(aia_info.value) == str(a3_info.value)


def test_aia_table_is_the_compositions_grouped_by_decay_rate():
    for n in range(1, 6):
        for m in range(1, 4):
            for k in range(1, 4):
                grouped = {}
                for pq, coef in oracles.aia_composition_terms(n, m, k):
                    grouped[pq] = grouped.get(pq, 0) + coef
                table = dict(_aia_power_table(n, m, k))
                assert table == {pq: c for pq, c in grouped.items() if c}, (n, m, k)
                assert all(type(c) is int for c in table.values())
                # P(1, 1) = 0, so the coefficients of P**(N-1) cancel
                assert sum(table.values()) == (1 if n == 1 else 0)


def test_aia_rate_up_to_two_rows_is_the_float_composition_sum():
    # bit for bit: figure 1's aia_analytic column rests on this
    cfgs = [AnalyticConfig.from_fading(FadingConfig(n_bs=2, ps_dbm=float(ps)), b=0.4)
            for ps in range(0, 45, 5)]
    cfgs += [_cfg(n, m, k, oh, og, 1e12, b=0.4) for n in (1, 2) for m in range(1, 4)
             for k in range(1, 4) for oh, og in [(1.0, 2.0), (512000.0, 8e6)]]
    for cfg in cfgs:
        assert aia_avg_sum_rate(cfg).value == oracles.aia_rate_from_float_compositions(cfg)


def test_aia_rate_on_figure_two_grid_against_80_digits():
    for n in range(1, 9):
        cfg = AnalyticConfig.from_fading(FadingConfig(n_bs=n, ps_dbm=10.0), b=0.4)
        exact = oracles.aia_rate_mp(cfg)
        assert aia_avg_sum_rate(cfg).value == pytest.approx(exact, rel=1e-9, abs=0), n


# --- crossing probability -----------------------------------------------------

def test_prob_symmetric_is_exactly_half():
    assert prob_h_ge_g(_cfg(2, 2, 2, 3.7, 3.7)) == 0.5
    assert prob_h_ge_g(_cfg(3, 2, 2, 512000.0, 512000.0)) == 0.5


def test_prob_single_antenna_closed_form():
    # P(h >= g) = omega_g / (omega_h + omega_g) for plain exponentials
    assert prob_h_ge_g(_cfg(1, 1, 1, 1.0, 2.0)) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_prob_complement_sums_to_one():
    for cfg in [_cfg(2, 2, 2, 512000.0, 8e6), _cfg(4, 2, 2, 1.0, 5.0),
                _cfg(3, 1, 2, 0.3, 11.0)]:
        p = prob_h_ge_g(cfg)
        assert 0.0 <= p <= 1.0
        assert p + (1.0 - p) == 1.0


def test_prob_matches_empirical_frequency():
    fading = FadingConfig(n_bs=2, d1=100.0, d2=160.0)
    cfg = AnalyticConfig.from_fading(fading)
    h, g = sample_channel_batch(fading, seed=17, start=0, count=200_000)
    freq = np.mean(h.max(axis=(1, 2)) >= g.max(axis=(1, 2)))
    p = prob_h_ge_g(cfg)
    se = math.sqrt(p * (1 - p) / 200_000)
    assert abs(freq - p) < 3 * se


def test_prob_sums_once_per_geometry():
    # figure 7's mcg closed form at 9 powers on each of its two placements
    _prob_h_ge_g.cache_clear()
    for d1, d2 in ((80.0, 200.0), (200.0, 80.0)):
        for ps in range(0, 45, 5):
            fading = FadingConfig(n_bs=4, d1=d1, d2=d2, ps_dbm=float(ps))
            cfg = AnalyticConfig.from_fading(fading, r_th=2.0)
            mcg_avg_secondary_rate(cfg)
            uncached = _prob_h_ge_g.__wrapped__(8, 8, fading.omega_h, fading.omega_g)
            assert prob_h_ge_g(cfg) == uncached
    info = _prob_h_ge_g.cache_info()
    assert (info.misses, info.hits) == (2, 2 * 9 * 2 - 2)


# --- QoS-mode average secondary rates ----------------------------------------

def test_secondary_rate_gains_one_bit_per_snr_doubling():
    base = _cfg(4, 2, 2, 512000.0, 8e6, 1e13, eps=31.0)
    doubled = _cfg(4, 2, 2, 512000.0, 8e6, 2e13, eps=31.0)
    for fn in (pu_avg_secondary_rate, su_avg_secondary_rate):
        assert fn(doubled).value - fn(base).value == pytest.approx(1.0, abs=1e-9)


def test_secondary_rate_zero_qos_limit():
    # with no primary floor everything goes to the secondary user: the
    # average approaches E[log2(1 + rho * best-row gain)]
    oh, og, rho = 512000.0, 8e6, 1e13
    cfg = _cfg(4, 2, 2, oh, og, rho, eps=0.0)
    closed = pu_avg_secondary_rate(cfg).value
    pdf = lambda x: 2 * oh * math.exp(-oh * x) * (1 - math.exp(-oh * x))
    numeric = quadrature_rate(pdf, 1.0, rho)
    assert abs(closed - numeric) <= 1e-3


def test_su_equals_pu_in_fully_symmetric_single_row():
    cfg = _cfg(1, 2, 2, 2.0, 2.0, 1e12, eps=3.0)
    assert su_avg_secondary_rate(cfg).value == pu_avg_secondary_rate(cfg).value


def test_secondary_rate_singular_pair_is_continuous():
    # i*omega_h == eps*j*omega_g for (i=1, j=2): removable singularity
    cfg = _cfg(2, 2, 2, 2.0, 1.0, 1e12, eps=1.0)
    val = pu_avg_secondary_rate(cfg).value
    assert math.isfinite(val)
    nearby = pu_avg_secondary_rate(_cfg(2, 2, 2, 2.0 * (1 + 1e-7), 1.0, 1e12, eps=1.0)).value
    assert val == pytest.approx(nearby, rel=1e-5)


@pytest.mark.parametrize("kind, dims, omegas, rho, eps", [
    ("pu", (2, 2, 2), (2.0, 1.0), 1e12, 1.0),
    ("pu", (4, 2, 2), (3.0, 1.0), 1e12, 3.0),
    ("pu", (1, 2, 2), (31.0, 1.0), 1e10, 31.0),
    ("su", (2, 2, 2), (1.0, 0.5), 1e12, 1.0),
    ("pu", (2, 2, 2), (2.0 * (1 + 1e-10), 1.0), 1e12, 1.0),
    ("pu", (2, 2, 2), (2.0 * (1 + 5e-10), 1.0), 1e12, 1.0),
])
def test_secondary_rate_at_and_near_the_singular_pair_against_60_digits(kind, dims, omegas,
                                                                        rho, eps):
    # i*omega_h == eps*j*omega_g at some (i, j), or within 1e-9 of it
    n, m, k = dims
    cfg = _cfg(n, m, k, *omegas, rho, eps=eps)
    if kind == "pu":
        got, sizes = pu_avg_secondary_rate(cfg).value, (m, n * k)
    else:
        got, sizes = su_avg_secondary_rate(cfg).value, (n * m, k)
    want = oracles.cr_secondary_series_mp(*sizes, cfg, dps=60)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_pu_su_crossing_with_distance():
    # secondary-first wins while UE1 is the near user, primary-first wins
    # once UE1 moves far away
    def rates(d1):
        cfg = _cfg(4, 2, 2, d1 ** 3, 200.0 ** 3, 1e13, eps=31.0)
        return pu_avg_secondary_rate(cfg).value, su_avg_secondary_rate(cfg).value

    pu_near, su_near = rates(80.0)
    pu_far, su_far = rates(320.0)
    assert su_near > pu_near
    assert pu_far > su_far


def test_mcg_mixture_collapses():
    su_like = _cfg(2, 2, 2, 1e-9, 1.0, 1e12, eps=3.0)    # UE1 gain dominates
    pu_like = _cfg(2, 2, 2, 1.0, 1e-9, 1e12, eps=3.0)    # UE2 gain dominates
    assert mcg_avg_secondary_rate(su_like).value == pytest.approx(
        su_avg_secondary_rate(su_like).value, rel=1e-9)
    assert mcg_avg_secondary_rate(pu_like).value == pytest.approx(
        pu_avg_secondary_rate(pu_like).value, rel=1e-9)


def test_mcg_is_between_pu_and_su():
    cfg = _cfg(4, 2, 2, 150.0 ** 3, 200.0 ** 3, 1e13, eps=31.0)
    lo = min(pu_avg_secondary_rate(cfg).value, su_avg_secondary_rate(cfg).value)
    hi = max(pu_avg_secondary_rate(cfg).value, su_avg_secondary_rate(cfg).value)
    assert lo <= mcg_avg_secondary_rate(cfg).value <= hi


def test_secondary_rate_needs_epsilon():
    with pytest.raises(ValueError):
        pu_avg_secondary_rate(_cfg(eps=None))


# --- quadrature oracle ---------------------------------------------------------

def test_quadrature_exponential_identity():
    om, b, rho = 512000.0, 0.4, 1e13
    pdf = lambda x: om * math.exp(-om * x)
    x0 = om / (b * rho)
    closed = float(-mpmath.e ** x0 * mpmath.ei(-x0) / mpmath.log(2))
    assert quadrature_rate(pdf, b, rho) == pytest.approx(closed, abs=1e-8)


def test_quadrature_concentration_limit():
    # when b*rho/omega is small the mean gain dominates the log argument
    om, b, rho = 1.0, 1e-3, 1.0
    pdf = lambda x: om * math.exp(-om * x)
    got = quadrature_rate(pdf, b, rho)
    assert got == pytest.approx(math.log2(1.0 + b * rho / om), rel=0.01)


def test_quadrature_rejects_zero_density():
    with pytest.raises(ValueError):
        quadrature_rate(lambda x: 0.0, 0.4, 1e12)


# --- cross-cutting invariants ---------------------------------------------------

def test_closed_forms_monotone_in_snr():
    rhos = 10.0 ** np.arange(8, 15)
    for maker, extract in [
        (lambda r: a3_avg_sum_rate(_cfg(2, 2, 2, 512000.0, 8e6, r)), None),
        (lambda r: aia_avg_sum_rate(_cfg(2, 2, 2, 512000.0, 8e6, r, b=0.4)), None),
        (lambda r: pu_avg_secondary_rate(_cfg(4, 2, 2, 512000.0, 8e6, r, eps=31.0)), None),
        (lambda r: su_avg_secondary_rate(_cfg(4, 2, 2, 512000.0, 8e6, r, eps=31.0)), None),
        (lambda r: mcg_avg_secondary_rate(_cfg(4, 2, 2, 512000.0, 8e6, r, eps=31.0)), None),
    ]:
        values = [maker(r).value for r in rhos]
        assert all(b >= a for a, b in zip(values, values[1:])), values


def test_results_reproducible_bit_for_bit():
    cfg = _cfg(3, 2, 2, 512000.0, 8e6, 1e13, b=0.3, eps=7.0)
    assert a3_avg_sum_rate(cfg).value == a3_avg_sum_rate(cfg).value
    assert aia_avg_sum_rate(cfg).value == aia_avg_sum_rate(cfg).value
    assert pu_avg_secondary_rate(cfg).value == pu_avg_secondary_rate(cfg).value
    assert prob_h_ge_g(cfg) == prob_h_ge_g(cfg)


def test_analytic_config_validation():
    with pytest.raises(ValueError):
        AnalyticConfig(0, 2, 2, 1.0, 1.0, 1e12)
    with pytest.raises(ValueError):
        AnalyticConfig(2, 2, 2, -1.0, 1.0, 1e12)
    with pytest.raises(ValueError):
        AnalyticConfig(2, 2, 2, 1.0, 1.0, 1e12, b=1.5)
    with pytest.raises(ValueError):
        AnalyticConfig(2, 2, 2, 1.0, 1.0, 1e12, epsilon=-1.0)
