import math
import os
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from noma_as import harness
from noma_as.harness import Run
from noma_as import (ConfigurationError, FadingConfig, PowerSplit, Scenario,
                     ValidationPoint, apply_axis, cr_rates, fnoma_pair_rates,
                     jain_fairness, load_scenario, load_validation_grid,
                     run_point, run_trials, sample_channel_batch, sweep,
                     validate_asymptotics)
from noma_as.selection import POLICIES, _a3_triples, _pu_triples, row_stats


def _fnoma_scn(**kw):
    defaults = dict(fading=FadingConfig(n_bs=2, ps_dbm=30.0), mode="fnoma",
                    policy="a3", split=PowerSplit.from_b(0.4),
                    trials=2000, seed=11)
    defaults.update(kw)
    return Scenario(**defaults)


def _cr_scn(**kw):
    defaults = dict(fading=FadingConfig(n_bs=4, d1=80.0, ps_dbm=20.0),
                    mode="crnoma", policy="pu", r_th=5.0, trials=2000, seed=11)
    defaults.update(kw)
    return Scenario(**defaults)


# --- scenario validation ------------------------------------------------------

def test_mode_policy_compatibility():
    with pytest.raises(ConfigurationError):
        _fnoma_scn(policy="mcg")
    with pytest.raises(ConfigurationError):
        _cr_scn(policy="a3")
    with pytest.raises(ConfigurationError):
        _fnoma_scn(mode="tdma")
    with pytest.raises(ConfigurationError):
        _fnoma_scn(split=None)
    with pytest.raises(ConfigurationError):
        _fnoma_scn(split=PowerSplit.from_b(0.7))  # strong user over-weighted
    with pytest.raises(ConfigurationError):
        _cr_scn(r_th=None)
    with pytest.raises(ConfigurationError):
        _fnoma_scn(trials=0)


@pytest.mark.parametrize("kwargs, key", [
    ({"split": PowerSplit.from_b(0.0)}, "b"),
    ({"trials": 2.5}, "trials"),
    ({"seed": -1}, "seed"),
    ({"seed": 2 ** 64}, "seed"),
    ({"fading": FadingConfig(alpha=300.0)}, "alpha"),
    ({"fading": FadingConfig(ps_dbm=2980.0)}, "ps_dbm"),  # rho overflows
    ({"fading": FadingConfig(ps_dbm=-5000.0)}, "ps_dbm"),  # rho underflows to 0
    ({"fading": FadingConfig(sigma2_dbm=-4000.0)}, "sigma2_dbm"),
    ({"policy": "es", "fading": FadingConfig(d1=1e-100)}, "d1"),  # rho * gain overflows
    ({"fading": FadingConfig(d1=1.0, d2=0.5, alpha=1000.0)}, "d2"),
])
def test_bad_scenario_value_fails_at_construction(kwargs, key):
    with pytest.raises(ConfigurationError, match=rf"\b{key} ="):
        _fnoma_scn(**kwargs)


@pytest.mark.parametrize("kwargs, key", [
    ({"r_th": 1024.0}, "r_th"),  # 2**r_th - 1 overflows
    ({"r_th": math.inf}, "r_th"),
    ({"r_th": 1e-300}, "r_th"),  # 2**r_th - 1 rounds to 0
    ({"policy": "es", "fading": FadingConfig(d1=1e-100, d2=1e-100)}, "d1"),
])
def test_bad_crnoma_value_fails_at_construction(kwargs, key):
    with pytest.raises(ConfigurationError, match=rf"\b{key} ="):
        _cr_scn(**kwargs)


def _log_wide(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pair=st.sampled_from(sorted(POLICIES)), dims=st.tuples(*[st.integers(1, 4)] * 3),
       d1=_log_wide(-120, 120), d2=_log_wide(-120, 120), alpha=_log_wide(-3, 3),
       ps_dbm=st.floats(-4000, 4000), sigma2_dbm=st.floats(-4000, 4000),
       b=st.floats(0.0, 0.5), r_th=st.one_of(st.floats(0.0, 2000.0), st.just(math.inf)),
       trials=st.integers(1, 64), seed=st.integers(0, 2 ** 64 - 1))
@example(pair=("fnoma", "a3"), dims=(2, 2, 2), d1=80.0, d2=200.0, alpha=3.0,
         ps_dbm=2980.0, sigma2_dbm=-110.0, b=0.4, r_th=1.0, trials=64, seed=0)
@example(pair=("fnoma", "a3"), dims=(2, 2, 2), d1=80.0, d2=200.0, alpha=3.0,
         ps_dbm=-5000.0, sigma2_dbm=-110.0, b=0.4, r_th=1.0, trials=64, seed=0)
@example(pair=("crnoma", "pu"), dims=(4, 2, 2), d1=80.0, d2=200.0, alpha=3.0,
         ps_dbm=20.0, sigma2_dbm=-110.0, b=0.4, r_th=1024.0, trials=64, seed=0)
@example(pair=("crnoma", "pu"), dims=(4, 2, 2), d1=80.0, d2=200.0, alpha=3.0,
         ps_dbm=20.0, sigma2_dbm=-110.0, b=0.4, r_th=math.inf, trials=64, seed=0)
@example(pair=("fnoma", "es"), dims=(2, 2, 2), d1=1e-100, d2=200.0, alpha=3.0,
         ps_dbm=30.0, sigma2_dbm=-110.0, b=0.4, r_th=1.0, trials=64, seed=0)
@example(pair=("crnoma", "es"), dims=(4, 2, 2), d1=1e-100, d2=1e-100, alpha=3.0,
         ps_dbm=20.0, sigma2_dbm=-110.0, b=0.4, r_th=5.0, trials=64, seed=0)
def test_any_scenario_is_rejected_when_built_or_reports_finite_numbers(
        pair, dims, d1, d2, alpha, ps_dbm, sigma2_dbm, b, r_th, trials, seed):
    mode, policy = pair
    fading = FadingConfig(n_bs=dims[0], m_ue1=dims[1], k_ue2=dims[2], d1=d1, d2=d2,
                          alpha=alpha, ps_dbm=ps_dbm, sigma2_dbm=sigma2_dbm)
    try:
        scn = Scenario(fading, mode, policy, split=PowerSplit.from_b(b), r_th=r_th,
                       trials=trials, seed=seed)
    except ConfigurationError:
        return
    report = run_trials(scn, workers=1)
    values = [report.mean_r1, report.mean_r2, report.mean_sum, report.mean_fairness,
              *report.std_err.values()]
    assert all(math.isfinite(v) for v in values), report


def test_sweep_rejects_a_bad_point_before_any_point_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(harness._GeometryCache, "simulate",
                        lambda self, task: ran.append(task))
    with pytest.raises(ConfigurationError, match=r"\bps_dbm ="):
        sweep(_fnoma_scn(), "ps_dbm", [10.0, 20.0, 2980.0], workers=1)
    assert ran == []


# --- trial averaging ----------------------------------------------------------

def test_single_trial_equals_direct_computation():
    scn = _fnoma_scn(trials=1, seed=77)
    report = run_trials(scn, workers=1)
    h, g = sample_channel_batch(scn.fading, 77, 0, 1)
    (n,), (m,), (k,) = _a3_triples(row_stats(h, g))
    r1, r2 = fnoma_pair_rates(h[0, n, m], g[0, n, k], scn.split, scn.fading.rho)
    assert report.mean_r1 == r1
    assert report.mean_r2 == r2
    assert report.mean_sum == r1 + r2
    assert report.mean_fairness == jain_fairness(r1, r2)
    assert report.std_err["sum"] == 0.0
    assert report.trials_used == 1


def test_single_trial_crnoma_equals_direct_computation():
    scn = _cr_scn(trials=1, seed=5)
    report = run_trials(scn, workers=1)
    h, g = sample_channel_batch(scn.fading, 5, 0, 1)
    (n,), (m,), (k,) = _pu_triples(row_stats(h, g))
    r1, r2 = cr_rates(h[0, n, m], g[0, n, k], scn.fading.rho, scn.r_th)
    assert report.mean_r1 == r1 and report.mean_r2 == r2


def test_reports_invariant_to_worker_count():
    scn = _fnoma_scn(trials=40_000, seed=3)
    a = run_trials(scn, workers=1)
    b = run_trials(scn, workers=2)
    assert a == b


def test_std_err_scales_like_inverse_sqrt_trials():
    small = run_trials(_fnoma_scn(trials=20_000, seed=9), workers=1)
    large = run_trials(_fnoma_scn(trials=80_000, seed=9), workers=2)
    ratio = small.std_err["sum"] / large.std_err["sum"]
    assert 1.8 < ratio < 2.2


def test_report_sanity():
    rep = run_trials(_cr_scn(trials=5000), workers=1)
    assert 0.5 <= rep.mean_fairness <= 1.0
    assert all(v >= 0.0 for v in rep.std_err.values())
    assert rep.mean_eval_count == (4 * 2 - 1) + (2 - 1)
    assert rep.trials_used == 5000


def test_policies_share_realizations():
    # paired dominance must hold exactly, not just on average
    fading = FadingConfig(n_bs=3, ps_dbm=20.0)
    split = PowerSplit.from_b(0.4)
    rep = run_point(fading, "fnoma", ("es", "a3", "random"), 4000, 21,
                    split=split, workers=1)
    assert rep["es"].mean_sum >= rep["a3"].mean_sum >= rep["random"].mean_sum


def test_fnoma_dominance_across_grid_points():
    split = PowerSplit.from_b(0.4)
    points = [FadingConfig(n_bs=2, ps_dbm=10.0),
              FadingConfig(n_bs=4, ps_dbm=10.0),
              FadingConfig(n_bs=2, d2=300.0, ps_dbm=10.0),
              FadingConfig(n_bs=2, ps_dbm=40.0)]
    for fading in points:
        rep = run_point(fading, "fnoma", ("es", "a3", "aia", "random"),
                        20_000, 13, split=split, workers=1)
        assert rep["es"].mean_sum >= rep["a3"].mean_sum >= rep["random"].mean_sum
        assert rep["es"].mean_sum >= rep["aia"].mean_sum >= rep["random"].mean_sum


def test_crnoma_dominance_across_grid_points():
    for d1, ps in [(80.0, 20.0), (300.0, 20.0), (200.0, 30.0)]:
        fading = FadingConfig(n_bs=4, d1=d1, ps_dbm=ps)
        rep = run_point(fading, "crnoma", ("es", "mcg", "pu", "su", "random"),
                        20_000, 13, r_th=5.0, workers=1)
        slack = 2.0 * rep["mcg"].std_err["r1"]
        assert rep["es"].mean_r1 >= rep["mcg"].mean_r1
        assert rep["mcg"].mean_r1 >= max(rep["pu"].mean_r1, rep["su"].mean_r1) - slack
        for policy in ("es", "mcg", "pu", "su"):
            assert rep[policy].mean_r1 >= rep["random"].mean_r1


def test_workers_env_validation(monkeypatch):
    monkeypatch.setenv("NOMA_SIM_WORKERS", "zero")
    with pytest.raises(ConfigurationError):
        run_trials(_fnoma_scn(trials=10))
    monkeypatch.setenv("NOMA_SIM_WORKERS", "0")
    with pytest.raises(ConfigurationError):
        run_trials(_fnoma_scn(trials=10))
    monkeypatch.setenv("NOMA_SIM_WORKERS", "1")
    run_trials(_fnoma_scn(trials=10))


# --- one run shared by many points ----------------------------------------------

_FNOMA_ALL = ("es", "a3", "aia", "random")
_CR_ALL = ("es", "mcg", "pu", "su", "random")


def _reports(points, trials, workers):
    """run_point at each (fading, mode, policies, seed, split, r_th) point."""
    return [run_point(fading, mode, policies, trials, seed, split=split, r_th=r_th,
                      workers=workers)
            for fading, mode, policies, seed, split, r_th in points]


def test_run_shares_draws_across_points_on_two_workers():
    # two chunks on two worker processes: fnoma powers x splits and the oma
    # point on one geometry, crnoma with d1 and d2 swapped, then the first
    # geometry again.  Each report must equal a one-worker run of its point
    # alone; the low powers make es choose differently at every point.
    geo = FadingConfig(n_bs=2, d1=80.0, d2=200.0)
    swapped = FadingConfig(n_bs=2, d1=200.0, d2=80.0)
    first = [(replace(geo, ps_dbm=ps), "fnoma", _FNOMA_ALL, 5, PowerSplit.from_b(b), None)
             for ps in (-30.0, 0.0) for b in (0.2, 0.4)]
    first.append((replace(geo, ps_dbm=30.0), "oma", ("oma_es",), 5, None, None))
    cr = [(replace(swapped, ps_dbm=ps), "crnoma", _CR_ALL, 5, None, r_th)
          for ps in (10.0, 30.0) for r_th in (1.0, 5.0)]
    fresh = _reports(first + cr, 16385, 1)
    with Run(2, 16385) as run:
        assert run.workers == 2
        assert _reports(first + cr + first, 16385, run) == fresh + fresh[:len(first)]


def test_run_keeps_row_statistics_per_chunk_on_two_workers(monkeypatch):
    # three chunks on two worker processes, so worker 0 holds chunks 0 and 2
    # of each geometry: fnoma powers x splits, then crnoma powers x r_th with
    # d1 and d2 swapped.  References run first, in one chunk, which no cache
    # can share.
    geo = FadingConfig(n_bs=3, d1=80.0, d2=200.0)
    swapped = FadingConfig(n_bs=3, d1=200.0, d2=80.0)
    points = [(replace(geo, ps_dbm=ps), "fnoma", _FNOMA_ALL, 5, PowerSplit.from_b(b), None)
              for ps in (-30.0, 0.0, 30.0) for b in (0.2, 0.5)]
    points += [(replace(swapped, ps_dbm=ps), "crnoma", _CR_ALL, 5, None, r_th)
               for ps in (0.0, 20.0) for r_th in (1.0, 5.0)]
    fresh = _reports(points, 96, 1)
    monkeypatch.setattr(harness, "_CHUNK", 32)
    with Run(2, 96) as run:
        assert run.workers == 2
        assert _reports(points, 96, run) == fresh


def test_run_cache_key_covers_the_geometry_and_the_chunk(monkeypatch):
    # each variant differs from the base geometry in one cache-key field; in
    # four-trial chunks, one process holds chunks of equal size at three t0.
    # References run first, in one chunk, which no cache can share.
    base = FadingConfig(n_bs=2, d1=80.0, d2=200.0, alpha=3.0, ps_dbm=30.0)
    variants = [(replace(base, d1=90.0), 5), (replace(base, d2=150.0), 5),
                (replace(base, alpha=2.5), 5), (base, 6), (replace(base, n_bs=3), 5),
                (replace(base, m_ue1=3), 5), (replace(base, k_ue2=3), 5)]
    split = PowerSplit.from_b(0.4)
    points = []
    for fading, seed in variants:
        points += [(base, "fnoma", _FNOMA_ALL, 5, split, None),
                   (replace(base, ps_dbm=10.0), "fnoma", _FNOMA_ALL, 5, split, None),
                   (fading, "fnoma", _FNOMA_ALL, seed, split, None)]
    fresh = _reports(points, 12, 1)
    monkeypatch.setattr(harness, "_CHUNK", 4)
    with Run(1, 12) as run:
        assert _reports(points, 12, run) == fresh


class _InlinePool:
    """Stands in for the process pool: records its size, runs tasks here."""

    sizes = []

    def __init__(self, max_workers, initializer):
        self.sizes.append(max_workers)
        initializer()

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_run_starts_no_more_workers_than_chunks(monkeypatch):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(harness, "_worker_cache", None)

    def workers_started(fn):
        _InlinePool.sizes.clear()
        fn()
        return sum(_InlinePool.sizes)

    monkeypatch.setenv("NOMA_SIM_WORKERS", "64")
    scn = _fnoma_scn(trials=16385)
    assert workers_started(lambda: run_trials(scn)) == 2
    assert run_trials(scn) == run_trials(scn, workers=1)
    assert workers_started(lambda: run_trials(_fnoma_scn(trials=16384))) == 0
    assert workers_started(lambda: sweep(scn, "ps_dbm", [10.0, 20.0])) == 2
    points = [ValidationPoint(_fnoma_scn(trials=t), 0.05) for t in (10, 2 * 16384 + 1)]
    assert workers_started(lambda: validate_asymptotics(points)) == 3

    monkeypatch.delenv("NOMA_SIM_WORKERS")
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert Run(None, 10 * 16384).workers == 2
    assert Run(None, 16384).workers == 1


# --- sweeps ---------------------------------------------------------------------

def test_sweep_power_monotone_for_every_policy():
    # common random numbers make per-trial rates monotone in power, so the
    # means must be exactly monotone, not just statistically
    for policy in ("es", "a3", "aia", "random"):
        rows = sweep(_fnoma_scn(policy=policy, trials=2000), "ps_dbm",
                     [0.0, 10.0, 20.0, 30.0], workers=1)
        sums = [rep.mean_sum for _, rep in rows]
        assert all(b > a for a, b in zip(sums, sums[1:])), policy


def test_sweep_axis_validation():
    with pytest.raises(ConfigurationError):
        sweep(_fnoma_scn(), "bandwidth", [1.0])
    with pytest.raises(ConfigurationError):
        sweep(_fnoma_scn(), "r_th", [1.0])  # crnoma-only axis
    with pytest.raises(ConfigurationError):
        sweep(_cr_scn(), "b", [0.3])  # fnoma-only axis
    with pytest.raises(ConfigurationError):
        apply_axis(_fnoma_scn(), "n_bs", 2.5)


def test_sweep_applies_values():
    scn = apply_axis(_fnoma_scn(), "n_bs", 5)
    assert scn.fading.n_bs == 5
    scn = apply_axis(_fnoma_scn(), "b", 0.25)
    assert scn.split == PowerSplit.from_b(0.25)
    scn = apply_axis(_cr_scn(), "r_th", 2.0)
    assert scn.r_th == 2.0


def test_sweep_reproducible():
    rows1 = sweep(_fnoma_scn(trials=2000), "d2", [150.0, 250.0], workers=1)
    rows2 = sweep(_fnoma_scn(trials=2000), "d2", [150.0, 250.0], workers=1)
    assert rows1 == rows2


# --- closed-form validation -----------------------------------------------------

def test_validate_asymptotics_passes_at_high_snr():
    points = [
        ValidationPoint(_fnoma_scn(trials=30_000), 0.01),
        ValidationPoint(_fnoma_scn(policy="aia", trials=30_000), 0.02),
        ValidationPoint(_cr_scn(policy="mcg", trials=30_000), 0.02),
    ]
    results = validate_asymptotics(points, workers=1)
    assert [r.status for r in results] == ["pass"] * 3
    for r in results:
        assert r.rel_gap <= r.tolerance


def test_validation_result_carries_the_monte_carlo_error(monkeypatch):
    # a PASS point: the report's standard error, the gap in units of it
    scn = _cr_scn(policy="mcg", trials=20_000)
    report = run_trials(scn, workers=1)
    res = validate_asymptotics([ValidationPoint(scn, 0.02)], workers=1)[0]
    assert res.status == "pass"
    assert res.monte_carlo == report.mean_r1
    assert res.std_err == report.std_err["r1"] > 0
    assert res.sigma_gap == abs(res.closed_form - res.monte_carlo) / res.std_err < 5
    # a fabricated FAIL: a closed form 5% off lies far outside the noise
    policy = POLICIES["crnoma", "mcg"]
    monkeypatch.setitem(POLICIES, ("crnoma", "mcg"), replace(
        policy, closed_form=lambda *args: 1.05 * policy.closed_form(*args)))
    bad = validate_asymptotics([ValidationPoint(scn, 0.02)], workers=1)[0]
    assert bad.status == "fail"
    assert (bad.monte_carlo, bad.std_err) == (res.monte_carlo, res.std_err)
    assert bad.sigma_gap == abs(bad.closed_form - bad.monte_carlo) / bad.std_err > 50


def test_validate_flags_low_snr_as_not_applicable():
    scn = _fnoma_scn(fading=FadingConfig(n_bs=2, ps_dbm=-100.0), trials=5000)
    res = validate_asymptotics([ValidationPoint(scn, 0.01)], workers=1)[0]
    assert res.status == "not-applicable"
    assert res.rel_gap > 0.05  # the closed form is far off here, by design


def test_validate_rejects_policies_without_closed_form():
    with pytest.raises(ConfigurationError):
        validate_asymptotics([ValidationPoint(_fnoma_scn(policy="es"), 0.01)])


# --- scenario files --------------------------------------------------------------

SCENARIO_TEXT = """\
# joint selection, strong-gain-first
mode = fnoma
policy = a3
n_bs = 2
m_ue1 = 2
k_ue2 = 2
d1 = 80
d2 = 200
alpha = 3
ps_dbm = 30
sigma2_dbm = -110
b = 0.4
trials = 500
seed = 42
"""


def test_scenario_file_round_trip(tmp_path):
    path = tmp_path / "scn.txt"
    path.write_text(SCENARIO_TEXT)
    scn = load_scenario(path)
    assert scn.mode == "fnoma" and scn.policy == "a3"
    assert scn.fading == FadingConfig(n_bs=2, ps_dbm=30.0)
    assert scn.split == PowerSplit.from_b(0.4)
    assert scn.trials == 500 and scn.seed == 42


def test_scenario_file_unknown_key(tmp_path):
    path = tmp_path / "scn.txt"
    path.write_text(SCENARIO_TEXT + "bandwidth = 20\n")
    with pytest.raises(ConfigurationError):
        load_scenario(path)


def test_scenario_file_duplicate_key(tmp_path):
    path = tmp_path / "scn.txt"
    path.write_text(SCENARIO_TEXT + "b = 0.3\n")
    with pytest.raises(ConfigurationError):
        load_scenario(path)


def test_scenario_file_missing_required(tmp_path):
    path = tmp_path / "scn.txt"
    path.write_text("mode = fnoma\n")
    with pytest.raises(ConfigurationError):
        load_scenario(path)


GRID_TEXT = """\
mode = fnoma
policy = a3
ps_dbm = 30
b = 0.4
trials = 400
seed = 1
tolerance = 0.05

mode = crnoma
policy = pu
n_bs = 4
d1 = 80
ps_dbm = 20
r_th = 5
trials = 400
seed = 1
"""


def test_validation_grid_parsing(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text(GRID_TEXT)
    points = load_validation_grid(path)
    assert len(points) == 2
    assert points[0].tolerance == 0.05
    assert points[1].tolerance == 0.02  # default
    assert points[1].scenario.policy == "pu"


def test_validation_grid_empty(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("\n\n# nothing here\n")
    with pytest.raises(ConfigurationError):
        load_validation_grid(path)
