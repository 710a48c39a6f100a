"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import integrate

import oracles
from noma_as import (FadingConfig, cr_rates,
                     mcg_avg_secondary_rate, prob_h_ge_g,
                     a3_avg_sum_rate, aia_avg_sum_rate,
                     pu_avg_secondary_rate, quadrature_rate, run_point,
                     sample_channel_batch, su_avg_secondary_rate)
from noma_as.selection import (POLICIES, _a3_row, _aia_row, _es_crnoma_triples,
                               _es_fnoma_triples, row_stats)
from oracles import aia_strong_pdf, ref_cr_power_split, row_triple

SEED = 20240501
B = 0.4
TRIALS = 100_000


def _announce(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


# ---------------------------------------------------------------------------


def test_criterion_1_exhaustive_search_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    checked = 0
    for _ in range(10_000):
        n, m, k = rng.integers(1, 5, size=3)
        h, g = oracles.random_instance(rng, n, m, k, omega_h=0.9, omega_g=2.1)

        rows = row_stats(h[None], g[None])
        triple = [int(i[0]) for i in _es_fnoma_triples(h[None], g[None], rows, B, 1e3)[2]]
        (bn, bm, bk), val = oracles.brute_es_fnoma(h, g, B, 1e3)
        assert tuple(triple) == (bn, bm, bk)
        impl_val = oracles.fnoma_objective(h[bn, bm], g[bn, bk], B, 1e3)
        assert abs(impl_val - val) <= 1e-12 * max(1.0, abs(val))

        triple = [int(i[0]) for i in _es_crnoma_triples(h[None], g[None], rows, 1e3, 2.0)[2]]
        (bn, bm, bk), val = oracles.brute_es_crnoma(h, g, 1e3, 2.0)
        assert tuple(triple) == (bn, bm, bk)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    _announce(1, f"both exhaustive searches match brute force on {checked} "
                 f"instances ({elapsed:.1f}s)")


def test_criterion_2_structural_identities():
    rng = np.random.default_rng(SEED + 1)
    per_combo = 157  # 64 size combinations -> ~1e4 instances
    total = 0
    for n, m, k in itertools.product(range(1, 5), repeat=3):
        h = rng.exponential(1.0, (per_combo, n, m))
        g = rng.exponential(0.5, (per_combo, n, k))
        t = np.arange(per_combo)

        an, am, ak = row_triple(h, g, _a3_row)
        gamma_s = np.maximum(h[t, an, am], g[t, an, ak])
        assert np.array_equal(gamma_s, np.maximum(h.max(axis=(1, 2)),
                                                  g.max(axis=(1, 2))))

        wn, wm, wk = row_triple(h, g, _aia_row)
        gamma_w = np.minimum(h[t, wn, wm], g[t, wn, wk])
        expected = np.minimum(h.max(axis=2), g.max(axis=2)).max(axis=1)
        assert np.array_equal(gamma_w, expected)

        # stage-by-stage strong-gain-first reference for the QoS-mode policy:
        # whole-matrix maxima, the winner fixes the BS row, companion is the
        # other matrix's row argmax
        hflat = h.reshape(per_combo, -1).argmax(axis=1)
        gflat = g.reshape(per_combo, -1).argmax(axis=1)
        hwins = h.reshape(per_combo, -1)[t, hflat] >= g.reshape(per_combo, -1)[t, gflat]
        mn = np.where(hwins, hflat // m, gflat // k)
        mm = np.where(hwins, hflat % m, h.argmax(axis=2)[t, mn])
        mk = np.where(hwins, g.argmax(axis=2)[t, mn], gflat % k)
        assert np.array_equal(mn, an)
        assert np.array_equal(mm, am)
        assert np.array_equal(mk, ak)
        total += per_combo
    _announce(2, f"gain identities and triple identity hold on {total} instances")


def test_criterion_3_qos_tightness():
    rng = np.random.default_rng(SEED + 2)
    n = 100_000
    h = 10.0 ** rng.uniform(-8, 2, n)
    g = 10.0 ** rng.uniform(-8, 2, n)
    rho = 10.0 ** rng.uniform(0, 14, n)
    r_th = rng.uniform(0.1, 10.0, n)
    _, b = ref_cr_power_split(h, g, rho, r_th)
    inside = (b > 0.0) & (b < 1.0)
    assert inside.sum() > 10_000
    _, r2 = cr_rates(h, g, rho, r_th)
    worst = np.max(np.abs(r2[inside] - r_th[inside]))
    assert worst <= 1e-9
    _announce(3, f"primary rate pins the floor to {worst:.2e} absolute on "
                 f"{int(inside.sum())} strictly interior splits")


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fnoma_high_snr_reports():
    started = time.perf_counter()
    out = {}
    for ps in (20.0, 30.0, 40.0):
        fading = FadingConfig(n_bs=2, ps_dbm=ps)
        out[ps] = run_point(fading, "fnoma", ("a3", "aia"), TRIALS, SEED, b=B)
    return out, time.perf_counter() - started


def test_criterion_4_strong_first_closed_form(fnoma_high_snr_reports):
    reports, elapsed = fnoma_high_snr_reports
    gaps = []
    for ps, reps in reports.items():
        closed = a3_avg_sum_rate(FadingConfig(n_bs=2, ps_dbm=ps))
        mc = reps["a3"].mean_sum
        gaps.append(abs(closed - mc) / mc)
        assert gaps[-1] <= 0.01, (ps, closed, mc)
    assert elapsed < 60.0, f"criterion 4 sims took {elapsed:.1f}s"
    _announce(4, "strong-first closed form within "
                 f"{100 * max(gaps):.3f}% of simulation at 20/30/40 dBm "
                 f"({elapsed:.1f}s)")


def test_criterion_5_weak_first_closed_form(fnoma_high_snr_reports):
    reports, _ = fnoma_high_snr_reports
    gaps = []
    for ps, reps in reports.items():
        closed = aia_avg_sum_rate(FadingConfig(n_bs=2, ps_dbm=ps))
        mc = reps["aia"].mean_sum
        gaps.append(abs(closed - mc) / mc)
        assert gaps[-1] <= 0.02, (ps, closed, mc)
    cfg = FadingConfig(n_bs=2, ps_dbm=30.0)
    numeric = math.log2(1.0 / B) + quadrature_rate(
        lambda x: aia_strong_pdf(x, cfg), B, cfg.rho)
    quad_gap = abs(aia_avg_sum_rate(cfg) - numeric)
    assert quad_gap <= 1e-3
    _announce(5, f"weak-first closed form within {100 * max(gaps):.3f}% of "
                 f"simulation and {quad_gap:.1e} bits of quadrature")


def test_criterion_6_density_normalization():
    started = time.perf_counter()
    for n, m, k in itertools.product((1, 2, 3), repeat=3):
        cfg = FadingConfig(n, m, k, d1=1.0, d2=2.0, alpha=1.0, ps_dbm=120.0, sigma2_dbm=0.0)
        mass, _ = integrate.quad(lambda x: aia_strong_pdf(x, cfg), 0.0,
                                 np.inf, limit=300)
        assert abs(mass - 1.0) <= 1e-6, (n, m, k, mass)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _announce(6, f"companion-gain density integrates to 1 +- 1e-6 on all 27 "
                 f"configurations ({elapsed:.1f}s)")


def test_criterion_7_crossing_probability():
    configs = [
        FadingConfig(n_bs=2, d1=80.0, d2=200.0),
        FadingConfig(n_bs=1, m_ue1=2, k_ue2=1, d1=120.0, d2=90.0),
        FadingConfig(n_bs=3, m_ue1=1, k_ue2=2, d1=60.0, d2=220.0),
    ]
    for fading in configs:
        p = prob_h_ge_g(fading)
        h, g = sample_channel_batch(fading, SEED + 3, 0, 1_000_000)
        freq = float(np.mean(h.max(axis=(1, 2)) >= g.max(axis=(1, 2))))
        se = math.sqrt(p * (1.0 - p) / 1_000_000)
        assert abs(freq - p) <= 3.0 * se, (fading, p, freq)
    symmetric = FadingConfig(n_bs=2, d1=80.0, d2=80.0)  # omega_h = omega_g = 512000
    assert prob_h_ge_g(symmetric) == 0.5
    _announce(7, "crossing probability matches 1e6-trial frequencies at three "
                 "asymmetric geometries and is exactly 0.5 symmetric")


@pytest.fixture(scope="module")
def qos_distance_sweep():
    grid = (80.0, 150.0, 175.0, 200.0, 225.0, 250.0, 300.0)
    out = {}
    for d1 in grid:
        fading = FadingConfig(n_bs=4, d1=d1, ps_dbm=20.0)
        out[d1] = run_point(fading, "crnoma", ("pu", "su", "mcg"),
                            TRIALS, SEED, r_th=5.0)
    return out


def test_criterion_8_qos_closed_forms_and_crossing(qos_distance_sweep):
    def gap(d1, policy):
        cfg = FadingConfig(n_bs=4, d1=d1, ps_dbm=20.0)
        closed = {"pu": pu_avg_secondary_rate, "su": su_avg_secondary_rate,
                  "mcg": mcg_avg_secondary_rate}[policy](cfg, 5.0)
        mc = qos_distance_sweep[d1][policy].mean_r1
        return abs(closed - mc) / mc

    assert gap(80.0, "su") <= 0.02
    assert gap(80.0, "mcg") <= 0.02
    assert gap(300.0, "pu") <= 0.02
    assert gap(300.0, "mcg") <= 0.02

    window = [d for d in qos_distance_sweep if 150.0 <= d <= 250.0]
    diffs = [qos_distance_sweep[d]["su"].mean_r1 - qos_distance_sweep[d]["pu"].mean_r1
             for d in sorted(window)]
    assert any(a > 0 >= b for a, b in zip(diffs, diffs[1:])), diffs
    _announce(8, "QoS-mode closed forms within 2% at the distance extremes; "
                 "secondary-first and primary-first curves cross inside "
                 "150..250 m")


def test_criterion_9_qualitative_figure_claims():
    # power-split flatness at 10 dBm
    flat_fading = FadingConfig(n_bs=2, ps_dbm=10.0)
    per_policy = {p: [] for p in ("es", "a3", "aia", "random")}
    for b in (0.1, 0.2, 0.3, 0.4, 0.5):
        reps = run_point(flat_fading, "fnoma", tuple(per_policy), TRIALS, SEED, b=b)
        for policy, series in per_policy.items():
            series.append(reps[policy].mean_sum)
    for policy, series in per_policy.items():
        span = (max(series) - min(series)) / np.mean(series)
        assert span <= 0.02, (policy, series)

    # BS-antenna scaling at 10 dBm: strong-first grows, weak-first is flat
    a3_curve, aia_curve = [], []
    for n in range(1, 9):
        reps = run_point(FadingConfig(n_bs=n, ps_dbm=10.0), "fnoma",
                         ("a3", "aia"), TRIALS, SEED, b=B)
        a3_curve.append(reps["a3"].mean_sum)
        aia_curve.append(reps["aia"].mean_sum)
    assert all(b > a for a, b in zip(a3_curve, a3_curve[1:])), a3_curve
    aia_span = (max(aia_curve) - min(aia_curve)) / np.mean(aia_curve)
    assert aia_span <= 0.03, aia_curve

    # fairness ordering on the fairness-figure grid
    fair_fading = FadingConfig(n_bs=4, ps_dbm=20.0)
    for b in (0.1, 0.2, 0.3, 0.4, 0.5):
        reps = run_point(fair_fading, "fnoma", ("a3", "aia"), TRIALS, SEED, b=b)
        diff = reps["aia"].mean_fairness - reps["a3"].mean_fairness
        se = math.hypot(reps["aia"].std_err["fairness"],
                        reps["a3"].std_err["fairness"])
        assert diff >= 3.0 * se, (b, diff, se)

    # non-orthogonal exhaustive search beats the orthogonal baseline
    for ps in range(0, 45, 5):
        fading = FadingConfig(n_bs=2, ps_dbm=float(ps))
        noma = run_point(fading, "fnoma", ("es",), TRIALS, SEED, b=B)
        oma = run_point(fading, "oma", ("oma_es",), TRIALS, SEED)
        assert noma["es"].mean_sum >= oma["oma_es"].mean_sum, ps

    _announce(9, "split-flatness, antenna-scaling, fairness-ordering and "
                 "orthogonal-baseline claims all hold")


def test_criterion_10_complexity_instrumentation():
    unbounded = {key for key, policy in POLICIES.items() if policy.bound is None}
    assert unbounded == {("fnoma", "random"), ("crnoma", "random"), ("oma", "oma_es")}
    for n, m, k in itertools.product(range(1, 9), repeat=3):
        for key, policy in POLICIES.items():
            count = policy.count(n, m, k)
            assert count >= 0, (key, n, m, k)
            if policy.bound is not None:
                limit = policy.bound.limit(n, m, k)
                assert count <= limit, (key, n, m, k)
        assert POLICIES["fnoma", "es"].count(n, m, k) == n * m * k
        assert POLICIES["crnoma", "es"].count(n, m, k) == n * m * k
        assert POLICIES["fnoma", "random"].count(n, m, k) == 0
        assert POLICIES["crnoma", "random"].count(n, m, k) == 0
        assert POLICIES["oma", "oma_es"].count(n, m, k) == (n * m - 1) + (n * k - 1)
    _announce(10, "comparison counts exact for exhaustive search and within "
                  "every advertised bound over all 512 antenna configurations")
