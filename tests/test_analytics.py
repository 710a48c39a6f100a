import math
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import oracles
from noma_as import (EULER_GAMMA, FadingConfig, figures, mcg_avg_secondary_rate,
                     prob_h_ge_g, a3_avg_sum_rate, aia_avg_sum_rate,
                     pu_avg_secondary_rate, quadrature_rate,
                     sample_channel_batch, su_avg_secondary_rate)
from noma_as import analytics
from noma_as.analytics import _aia_offset, _aia_power_table, _mcg_offset, _prob_h_ge_g
from noma_as.harness import apply_axis, load_validation_grid
from noma_as.selection import METRIC, POLICIES
from oracles import aia_strong_pdf

mpmath.mp.dps = 30

ROOT = Path(__file__).resolve().parent.parent


def _cfg(n=2, m=2, k=2, oh=1.0, og=2.0, rho=1e12):
    """The geometry of rate parameters oh, og and SNR rho, each exactly:
    d**1.0 is d, and 10**(10*log10(rho)/10) is rho for the powers of ten
    used here.  A QoS case's epsilon 31, 7, 3, 1 or 0 is the r_th 5, 3, 2,
    1 or 0 its form is given."""
    return FadingConfig(n, m, k, d1=oh, d2=og, alpha=1.0, ps_dbm=10 * math.log10(rho),
                        sigma2_dbm=0.0)


# each closed form's 80-digit oracle, under the power split b and rate floor
# r_th where it reads them
ORACLES = {"a3": lambda cfg, b, r_th: oracles.a3_rate_mp(cfg),
           "aia": lambda cfg, b, r_th: oracles.aia_rate_mp(cfg, b),
           "pu": lambda cfg, b, r_th: oracles.pu_rate_mp(cfg, r_th),
           "su": lambda cfg, b, r_th: oracles.su_rate_mp(cfg, r_th),
           "mcg": lambda cfg, b, r_th: oracles.mcg_rate_mp(cfg, r_th)}
MODES = {"a3": "fnoma", "aia": "fnoma", "pu": "crnoma", "su": "crnoma", "mcg": "crnoma"}


def _assert_is_oracle(name, fading, b, r_th, where=None):
    """The closed form of `name` at a point is within an ulp of its oracle;
    only the crnoma forms are given the rate floor."""
    got = POLICIES[MODES[name], name].closed_form(fading,
                                                  r_th if MODES[name] == "crnoma" else None)
    want = ORACLES[name](fading, b, r_th)
    assert abs(got - want) <= math.ulp(want), (where, name, fading, got, want)


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
    assert got == pytest.approx(expected, abs=1e-12)
    assert len(analytics._a3_offset(1, 1, 1.0, 1.0).logs) == 1


def test_a3_rate_independent_of_split():
    # the closed forms take no split: a3's value is its oracle, which reads none
    _assert_is_oracle("a3", FadingConfig(n_bs=2, ps_dbm=30.0), None, None)


def test_a3_rate_symmetry_under_population_exchange():
    # swapping (NM, omega_h) with (NK, omega_g) leaves the formula unchanged
    a = a3_avg_sum_rate(_cfg(1, 4, 2, 0.7, 3.0, 1e10))
    b = a3_avg_sum_rate(_cfg(1, 2, 4, 3.0, 0.7, 1e10))
    assert a == pytest.approx(b, rel=1e-12)


def test_a3_rate_vs_quadrature_single_antenna():
    oh, og, rho, b = 1.0, 2.0, 1e12, 0.4
    # density of max(h, g) for one antenna everywhere
    pdf = lambda x: (oh * math.exp(-oh * x) + og * math.exp(-og * x)
                     - (oh + og) * math.exp(-(oh + og) * x))
    numeric = math.log2(1.0 / b) + quadrature_rate(pdf, b, rho)
    closed = a3_avg_sum_rate(_cfg(1, 1, 1, oh, og, rho))
    assert closed == pytest.approx(numeric, abs=1e-6)


def test_a3_rate_rejects_oversized_sums():
    # refused by cost, before any coefficient is built: (100, 2, 2) sums
    # 200 * 200 terms; (20, 2, 2), which N*M <= 30 refused, now answers
    with pytest.raises(ValueError, match="40000 terms, above 32768"):
        a3_avg_sum_rate(_cfg(100, 2, 2))
    _assert_is_oracle("a3", FadingConfig(n_bs=20, ps_dbm=40.0), 0.4, None)


def test_a_sum_that_cancels_past_80_digits_is_refused():
    # pu at (200, 1, 1): 200 alternating binomial terms, whose largest is
    # about 1e59 times the sum
    cfg = FadingConfig(n_bs=200, m_ue1=1, k_ue2=1, ps_dbm=40.0)
    with pytest.raises(ValueError, match="cancels more than 80 digits"):
        pu_avg_secondary_rate(cfg, 5.0)


def test_a_sum_whose_first_guess_is_past_80_digits_is_refused_unsummed(monkeypatch):
    # a3 at 1e14: the first guesses of (44, 2, 2), (46, 2, 2) and (90, 2, 2)
    # ask for 83, 85 and 139 digits; the last two need more than 80 at any
    # |ln rho + S| up to _MAX_VALUE, so neither is summed
    digits, summed = [], analytics._Offset._sum
    monkeypatch.setattr(analytics._Offset, "_sum",
                        lambda self, d: digits.append(d) or summed(self, d))
    analytics._a3_offset.cache_clear()
    for n in (46, 90):
        with pytest.raises(ValueError, match="cancels more than 80 digits"):
            a3_avg_sum_rate(_cfg(n, 2, 2, 80.0 ** 3, 200.0 ** 3, 1e14))
    assert digits == []
    assert a3_avg_sum_rate(_cfg(44, 2, 2, 80.0 ** 3, 200.0 ** 3, 1e14)) == 29.838082283818043
    assert digits == [80]


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
    cfg = FadingConfig(n_bs=2, d1=80.0, d2=200.0)  # omega_h 512000, omega_g 8e6
    h, g = sample_channel_batch(cfg, seed=33, start=0, count=1_000_000)
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
        cfg = _cfg(n, m, k, oh, og, 1e12)
        numeric = math.log2(1.0 / 0.4) + quadrature_rate(
            lambda x: aia_strong_pdf(x, cfg), 0.4, 1e12)
        closed = aia_avg_sum_rate(cfg)
        assert abs(closed - numeric) <= 1e-3


def test_aia_rate_equals_a3_rate_for_single_row():
    cfg = _cfg(1, 2, 2, 1.0, 2.0, 1e12)
    assert aia_avg_sum_rate(cfg) == pytest.approx(a3_avg_sum_rate(cfg), abs=1e-6)


def test_aia_rate_refuses_beyond_the_term_cap_before_its_table(monkeypatch):
    # at (8, 4, 4), where N*M <= 30 refused, the float expansion returned
    # -359.9; the 80-digit oracle gives this value (4 s to check)
    cfg = FadingConfig(n_bs=8, m_ue1=4, k_ue2=4, ps_dbm=40.0)
    assert aia_avg_sum_rate(cfg) == 31.695439524334983

    def refuse(*args):
        raise AssertionError("a coefficient table was built")

    # the table of (13, 4, 4) has up to 49 * 49 entries, each with 4 * 4 terms
    monkeypatch.setattr(analytics, "_aia_power_table", refuse)
    for n, m, k in [(60, 3, 3), (13, 4, 4)]:
        with pytest.raises(ValueError, match="terms, above 32768"):
            aia_avg_sum_rate(_cfg(n, m, k))


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


def test_aia_rate_up_to_two_rows_is_the_80_digit_oracle():
    # figure 1's aia_analytic column rests on this; the float composition
    # sum, which this closed form once was bit for bit, is 1e-12 close
    cfgs = [FadingConfig(n_bs=2, ps_dbm=float(ps)) for ps in range(0, 45, 5)]
    cfgs += [_cfg(n, m, k, oh, og, 1e12) for n in (1, 2) for m in range(1, 4)
             for k in range(1, 4) for oh, og in [(1.0, 2.0), (512000.0, 8e6)]]
    for cfg in cfgs:
        got, want = aia_avg_sum_rate(cfg), oracles.aia_rate_mp(cfg, 0.4)
        assert abs(got - want) <= math.ulp(want), cfg
        assert oracles.aia_rate_from_float_compositions(cfg, 0.4) == pytest.approx(
            want, rel=1e-12, abs=0)


def test_aia_rate_on_figure_two_grid_against_80_digits():
    for n in range(1, 9):
        cfg = FadingConfig(n_bs=n, ps_dbm=10.0)
        exact = oracles.aia_rate_mp(cfg, 0.4)
        assert abs(aia_avg_sum_rate(cfg) - exact) <= math.ulp(exact), n


def test_aia_weights_sum_to_minus_one_so_the_split_cancels():
    # the coefficient of ln(b*rho) in the paper's sum is minus the sum of the
    # weights, exactly 1, so log2(1/b) + log2(b*rho) leaves log2(rho)
    for n, m, k in [(1, 1, 1), (2, 2, 2), (4, 2, 2), (3, 3, 2), (8, 2, 2), (3, 1, 3)]:
        for oh, og in [(512000.0, 8e6), (1.0, 2.0), (0.3, 0.3)]:
            assert sum(_aia_offset(n, m, k, oh, og).logs.values()) == -1, (n, m, k, oh, og)


def test_aia_rate_is_bit_identical_across_the_split():
    # figure 4's aia_analytic column is one constant, which the b-dependent
    # oracle gives at every b of the grid
    axis, grid, [(_, base)] = figures._FIGURES[4]
    values = set()
    for x in grid:
        point = apply_axis(base, axis, x)
        fading, b, r_th = point.fading, point.b, point.r_th
        values.add(POLICIES["fnoma", "aia"].closed_form(fading, r_th))
        _assert_is_oracle("aia", fading, b, r_th)
    assert len(values) == 1


def _analytic_cells():
    """(where, name, fading, b, r_th) of every `_analytic` cell of figures
    1-8 and every point of both validate grids."""
    for figure_id, (axis, grid, groups) in figures._FIGURES.items():
        for x in grid:
            for _, base in groups:
                point = apply_axis(base, axis, x)
                for name in point.policies:
                    policy = POLICIES[point.mode, name]
                    # figure 5's base reads the fairness, so it shows no closed form
                    if policy.closed_form and METRIC[point.mode] in point.reads:
                        yield (figure_id, x), name, point.fading, point.b, point.r_th
    for path in (ROOT / "perfbench" / "validate_grid.txt", ROOT / "scenarios" / "validate_grid.txt"):
        for point in load_validation_grid(path):
            scn = point.scenario
            yield path.name, scn.policies[0], scn.fading, scn.b, scn.r_th


def test_every_figure_and_validate_grid_closed_form_is_its_80_digit_oracle():
    cells = list(_analytic_cells())
    assert len(cells) == 210
    for where, name, fading, b, r_th in cells:
        _assert_is_oracle(name, fading, b, r_th, where)


@pytest.mark.parametrize("dims", [(10, 3, 3), (8, 3, 3), (6, 4, 4), (8, 2, 2)])
def test_closed_forms_at_larger_geometries_are_their_80_digit_oracles(dims):
    # at (10, 3, 3) and 40 dBm the float sums gave a3 0.921 and aia 21.60
    # where the rates are 32.794 and 31.467
    n, m, k = dims
    fading = FadingConfig(n_bs=n, m_ue1=m, k_ue2=k, ps_dbm=40.0)
    for name in ORACLES:
        _assert_is_oracle(name, fading, 0.4, 5.0)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(ORACLES)),
       dims=st.tuples(st.integers(1, 5), st.integers(1, 3), st.integers(1, 3)),
       d1=st.floats(20.0, 400.0), d2=st.floats(20.0, 400.0), ps_dbm=st.floats(20.0, 60.0),
       r_th=st.floats(0.5, 8.0))
def test_an_accepted_closed_form_is_within_an_ulp_of_its_oracle(name, dims, d1, d2, ps_dbm,
                                                                r_th):
    n, m, k = dims
    fading = FadingConfig(n_bs=n, m_ue1=m, k_ue2=k, d1=d1, d2=d2, ps_dbm=ps_dbm)
    try:
        _assert_is_oracle(name, fading, 0.4, r_th)
    except ValueError:
        pass  # refused


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
    cfg = FadingConfig(n_bs=2, d1=100.0, d2=160.0)
    h, g = sample_channel_batch(cfg, seed=17, start=0, count=200_000)
    freq = np.mean(h.max(axis=(1, 2)) >= g.max(axis=(1, 2)))
    p = prob_h_ge_g(cfg)
    se = math.sqrt(p * (1 - p) / 200_000)
    assert abs(freq - p) < 3 * se


def test_prob_sums_once_per_geometry():
    # figure 7's mcg closed form at 9 powers on each of its two placements:
    # its offset, p included, is built once per placement
    _prob_h_ge_g.cache_clear()
    _mcg_offset.cache_clear()
    for d1, d2 in ((80.0, 200.0), (200.0, 80.0)):
        for ps in range(0, 45, 5):
            fading = FadingConfig(n_bs=4, d1=d1, d2=d2, ps_dbm=float(ps))
            mcg_avg_secondary_rate(fading, 2.0)
            uncached = _prob_h_ge_g.__wrapped__(8, 8, fading.omega_h, fading.omega_g)
            assert prob_h_ge_g(fading) == float(uncached)
    info = _prob_h_ge_g.cache_info()
    assert (info.misses, info.hits) == (2, 9 * 2)


# --- QoS-mode average secondary rates ----------------------------------------

def test_secondary_rate_gains_one_bit_per_snr_doubling():
    base = _cfg(4, 2, 2, 512000.0, 8e6, 1e13)
    doubled = replace(base, ps_dbm=base.ps_dbm + 10 * math.log10(2))
    for fn in (pu_avg_secondary_rate, su_avg_secondary_rate):
        assert fn(doubled, 5.0) - fn(base, 5.0) == pytest.approx(1.0, abs=1e-9)


def test_secondary_rate_zero_qos_limit():
    # with no primary floor everything goes to the secondary user: the
    # average approaches E[log2(1 + rho * best-row gain)]
    oh, og, rho = 512000.0, 8e6, 1e13
    cfg = _cfg(4, 2, 2, oh, og, rho)
    closed = pu_avg_secondary_rate(cfg, 0.0)
    pdf = lambda x: 2 * oh * math.exp(-oh * x) * (1 - math.exp(-oh * x))
    numeric = quadrature_rate(pdf, 1.0, rho)
    assert abs(closed - numeric) <= 1e-3


def test_su_equals_pu_in_fully_symmetric_single_row():
    cfg = _cfg(1, 2, 2, 2.0, 2.0, 1e12)
    assert su_avg_secondary_rate(cfg, 2.0) == pu_avg_secondary_rate(cfg, 2.0)


def test_secondary_rate_singular_pair_is_continuous():
    # i*omega_h == eps*j*omega_g for (i=1, j=2): removable singularity
    cfg = _cfg(2, 2, 2, 2.0, 1.0, 1e12)
    val = pu_avg_secondary_rate(cfg, 1.0)
    assert math.isfinite(val)
    nearby = pu_avg_secondary_rate(_cfg(2, 2, 2, 2.0 * (1 + 1e-7), 1.0, 1e12), 1.0)
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
    cfg, r_th = _cfg(n, m, k, *omegas, rho), math.log2(eps + 1)
    if kind == "pu":
        got, sizes = pu_avg_secondary_rate(cfg, r_th), (m, n * k)
    else:
        got, sizes = su_avg_secondary_rate(cfg, r_th), (n * m, k)
    want = oracles.cr_secondary_series_mp(*sizes, cfg, r_th, dps=60)
    assert abs(got - want) <= math.ulp(want)


def test_pu_su_crossing_with_distance():
    # secondary-first wins while UE1 is the near user, primary-first wins
    # once UE1 moves far away
    def rates(d1):
        cfg = _cfg(4, 2, 2, d1 ** 3, 200.0 ** 3, 1e13)
        return pu_avg_secondary_rate(cfg, 5.0), su_avg_secondary_rate(cfg, 5.0)

    pu_near, su_near = rates(80.0)
    pu_far, su_far = rates(320.0)
    assert su_near > pu_near
    assert pu_far > su_far


def test_mcg_mixture_collapses():
    su_like = _cfg(2, 2, 2, 1e-9, 1.0, 1e12)    # UE1 gain dominates
    pu_like = _cfg(2, 2, 2, 1.0, 1e-9, 1e12)    # UE2 gain dominates
    assert mcg_avg_secondary_rate(su_like, 2.0) == pytest.approx(
        su_avg_secondary_rate(su_like, 2.0), rel=1e-9)
    assert mcg_avg_secondary_rate(pu_like, 2.0) == pytest.approx(
        pu_avg_secondary_rate(pu_like, 2.0), rel=1e-9)


def test_mcg_is_between_pu_and_su():
    cfg = _cfg(4, 2, 2, 150.0 ** 3, 200.0 ** 3, 1e13)
    lo = min(pu_avg_secondary_rate(cfg, 5.0), su_avg_secondary_rate(cfg, 5.0))
    hi = max(pu_avg_secondary_rate(cfg, 5.0), su_avg_secondary_rate(cfg, 5.0))
    assert lo <= mcg_avg_secondary_rate(cfg, 5.0) <= hi


@pytest.mark.parametrize("r_th", [None, math.nan, -1.0, 2000.0, math.inf, True])
@pytest.mark.parametrize("name", ["pu", "su", "mcg"])
def test_secondary_rate_refuses_an_unusable_r_th(name, r_th):
    # 2**r_th - 1 must be a number in [0, inf), and a bool is not one, as
    # `Scenario` holds: at 2000.0 and inf exp2 overflows, which must neither
    # warn nor reach the exact arithmetic
    form = getattr(analytics, f"{name}_avg_secondary_rate")
    with pytest.raises(ValueError, match="r_th = "):
        form(FadingConfig(), r_th)


def test_a_policy_closed_form_is_given_r_th_exactly_when_the_point_sets_one():
    # a crnoma point sets its rate floor and an fnoma point none, so an
    # fnoma form given a floor refuses it instead of dropping it
    fading = FadingConfig(n_bs=2, ps_dbm=40.0)
    pu, a3 = POLICIES["crnoma", "pu"].closed_form, POLICIES["fnoma", "a3"].closed_form
    assert pu(fading, 5.0) == pu_avg_secondary_rate(fading, 5.0)
    assert a3(fading, None) == a3_avg_sum_rate(fading)
    with pytest.raises(TypeError):
        a3(fading, 5.0)


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
        (lambda r: aia_avg_sum_rate(_cfg(2, 2, 2, 512000.0, 8e6, r)), None),
        (lambda r: pu_avg_secondary_rate(_cfg(4, 2, 2, 512000.0, 8e6, r), 5.0), None),
        (lambda r: su_avg_secondary_rate(_cfg(4, 2, 2, 512000.0, 8e6, r), 5.0), None),
        (lambda r: mcg_avg_secondary_rate(_cfg(4, 2, 2, 512000.0, 8e6, r), 5.0), None),
    ]:
        values = [maker(r) for r in rhos]
        assert all(b >= a for a, b in zip(values, values[1:])), values


def test_results_reproducible_bit_for_bit():
    cfg = _cfg(3, 2, 2, 512000.0, 8e6, 1e13)
    assert a3_avg_sum_rate(cfg) == a3_avg_sum_rate(cfg)
    assert aia_avg_sum_rate(cfg) == aia_avg_sum_rate(cfg)
    assert pu_avg_secondary_rate(cfg, 3.0) == pu_avg_secondary_rate(cfg, 3.0)
    assert prob_h_ge_g(cfg) == prob_h_ge_g(cfg)
