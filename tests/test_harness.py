import dataclasses
import inspect
import math
import os
import re
import tracemalloc
import weakref
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracles
from noma_as import channel, figures, harness, selection
from noma_as.harness import Run
from noma_as import (ConfigurationError, FadingConfig, Scenario,
                     ValidationPoint, apply_axis, cr_rates, figure_rows, fnoma_pair_rates,
                     load_scenario, load_validation_grid, run_point,
                     sample_channel_batch, sweep, validate_asymptotics)
from noma_as.rates import _jain
from noma_as.selection import METRIC, POLICIES, _a3_row, _pu_row, row_stats
from oracles import row_triple


def _fnoma_scn(**kw):
    defaults = dict(fading=FadingConfig(n_bs=2, ps_dbm=30.0), mode="fnoma",
                    policies=("a3",), b=0.4,
                    trials=2000, seed=11)
    defaults.update(kw)
    return Scenario(**defaults)


def _cr_scn(**kw):
    defaults = dict(fading=FadingConfig(n_bs=4, d1=80.0, ps_dbm=20.0),
                    mode="crnoma", policies=("pu",), r_th=5.0, trials=2000, seed=11)
    defaults.update(kw)
    return Scenario(**defaults)


def _one_report(scn, workers=None):
    """The report of the one policy of `scn`, run alone."""
    return run_point(**vars(scn), workers=workers)[scn.policies[0]]


# --- scenario validation ------------------------------------------------------

def test_mode_policy_compatibility():
    with pytest.raises(ConfigurationError):
        _fnoma_scn(policies=("mcg",))
    with pytest.raises(ConfigurationError):
        _cr_scn(policies=("a3",))
    with pytest.raises(ConfigurationError):
        _fnoma_scn(mode="tdma")
    with pytest.raises(ConfigurationError):
        _fnoma_scn(b=None)
    with pytest.raises(ConfigurationError):
        _fnoma_scn(b=0.7)  # strong user over-weighted
    with pytest.raises(ConfigurationError):
        _cr_scn(r_th=None)
    with pytest.raises(ConfigurationError):
        _fnoma_scn(trials=0)


def _built(kwargs):
    """kwargs with its "fading" entry, a dict of keywords, built into a
    FadingConfig; built in the test, as one refused at collection would stop
    the collection of the whole module."""
    return {**kwargs, "fading": FadingConfig(**kwargs["fading"])} if "fading" in kwargs else kwargs


@pytest.mark.parametrize("kwargs, key", [
    ({"b": 0.0}, "b"),
    ({"trials": 2.5}, "trials"),
    ({"seed": -1}, "seed"),
    ({"seed": 2 ** 64}, "seed"),
    ({"fading": {"alpha": 300.0}}, "alpha"),
    ({"fading": {"ps_dbm": 2980.0}}, "ps_dbm"),  # rho overflows
    ({"fading": {"ps_dbm": -5000.0}}, "ps_dbm"),  # rho underflows to 0
    ({"fading": {"sigma2_dbm": -4000.0}}, "sigma2_dbm"),
    ({"policies": ("es",), "fading": {"d1": 1e-100}}, "d1"),  # rho * gain overflows
    ({"fading": {"d1": 1.0, "d2": 0.5, "alpha": 1000.0}}, "d2"),
    ({"trials": True}, "trials"),
    ({"seed": False}, "seed"),
    ({"b": 0.7}, "b"),  # strong user over-weighted
    ({"b": math.nan}, "b"),
    ({"policies": "a3"}, "policies"),
    ({"policies": ["a3"]}, "policies"),
    ({"reads": ["mean_r1"]}, "reads"),
    ({"policies": ()}, "policies"),
    ({"policies": ("a3", "a3")}, "policies"),  # one report would hide a second run
    ({"policies": (["a3"],)}, "policies"),
    ({"reads": (["mean_r1"],)}, "reads"),
])
def test_bad_scenario_value_fails_at_construction(kwargs, key):
    with pytest.raises(ConfigurationError, match=rf"\b{key} =") as err:
        _fnoma_scn(**_built(kwargs))
    assert key in err.value.keys


@pytest.mark.parametrize("kwargs, key", [
    ({"r_th": 1024.0}, "r_th"),  # 2**r_th - 1 overflows
    ({"r_th": math.inf}, "r_th"),
    ({"r_th": 1e-300}, "r_th"),  # 2**r_th - 1 rounds to 0
    ({"policies": ("es",), "fading": {"d1": 1e-100, "d2": 1e-100}}, "d1"),
])
def test_bad_crnoma_value_fails_at_construction(kwargs, key):
    with pytest.raises(ConfigurationError, match=rf"\b{key} ="):
        _cr_scn(**_built(kwargs))


@pytest.mark.parametrize("mode, policy, kwargs, key", [
    ("oma", "oma_es", {"b": 0.4}, "b"),
    ("crnoma", "pu", {"b": 0.4, "r_th": 5.0}, "b"),
    ("fnoma", "a3", {"b": 0.4, "r_th": 5.0}, "r_th"),
    ("oma", "oma_es", {"r_th": 5.0}, "r_th"),
])
def test_a_scenario_refuses_a_parameter_its_mode_does_not_read(mode, policy, kwargs, key):
    reader = {"b": "fnoma", "r_th": "crnoma"}[key]
    need = rf"^{key} = {kwargs[key]}: only {reader} scenarios read {key}$"
    with pytest.raises(ConfigurationError, match=need) as err:
        Scenario(FadingConfig(), mode, (policy,), **kwargs)
    assert err.value.keys == (key,)


@pytest.mark.parametrize("mode, policy, key", [("fnoma", "a3", "b"), ("crnoma", "pu", "r_th")])
def test_a_scenario_needs_the_parameter_its_mode_reads(mode, policy, key):
    need = rf"^{mode} scenarios need .* \(key {key}\)$"
    with pytest.raises(ConfigurationError, match=need) as err:
        Scenario(FadingConfig(), mode, (policy,))
    assert err.value.keys == (key,)


@pytest.mark.parametrize("build, key", [
    (lambda: _fnoma_scn(b="0.4"), "b"),
    (lambda: _fnoma_scn(b=True), "b"),
    (lambda: _cr_scn(r_th="5"), "r_th"),
    *[(lambda key=key: FadingConfig(**{key: "80"}), key)
      for key in ("d1", "d2", "alpha", "ps_dbm", "sigma2_dbm")],
])
def test_a_value_that_is_not_a_real_number_is_refused(build, key):
    with pytest.raises(ConfigurationError, match=rf"^{key} = ") as err:
        build()
    assert err.value.keys == (key,)


@pytest.mark.parametrize("build, key", [
    (lambda: FadingConfig(d1=10 ** 400), "d1"),
    (lambda: FadingConfig(d2=10 ** 400), "d2"),
    (lambda: FadingConfig(ps_dbm=10 ** 400), "ps_dbm"),
    (lambda: FadingConfig(sigma2_dbm=10 ** 400), "sigma2_dbm"),
    (lambda: Scenario(FadingConfig(), "crnoma", ("mcg",), r_th=10 ** 400), "r_th"),
    (lambda: ValidationPoint(_fnoma_scn(), "0.05"), "tolerance"),
    (lambda: ValidationPoint(_fnoma_scn(), None), "tolerance"),
    (lambda: ValidationPoint(_fnoma_scn(), True), "tolerance"),
], ids=["d1 10**400", "d2 10**400", "ps_dbm 10**400", "sigma2_dbm 10**400", "r_th 10**400",
        "tolerance '0.05'", "tolerance None", "tolerance True"])
def test_a_value_its_check_cannot_evaluate_is_refused_by_its_key(build, key):
    # an int beyond float range overflows math.isfinite and has no numpy
    # exp2; a tolerance of another type has no order with 0, or is a bool
    with pytest.raises(ConfigurationError, match=rf"^{key} = ") as err:
        build()
    assert err.value.keys == (key,)


@pytest.mark.parametrize("kwargs, key", [({"policies": "a3"}, "policies"),
                                         ({"reads": "mean_sum"}, "reads")],
                         ids=["policies 'a3'", "reads 'mean_sum'"])
def test_run_point_refuses_a_str_of_names_by_its_key(monkeypatch, kwargs, key):
    # a str is not split into one name per character
    ran = _record_tasks(monkeypatch)
    args = {"policies": ["a3"], "reads": ["mean_sum"], **kwargs}
    with pytest.raises(ConfigurationError, match=rf"^{key} = {kwargs[key]!r}: ") as err:
        run_point(FadingConfig(), "fnoma", trials=100, seed=1, b=0.4, workers=1, **args)
    assert err.value.keys == (key,)
    assert ran == []
    monkeypatch.undo()
    listed = run_point(FadingConfig(), "fnoma", ["a3"], 100, 1, b=0.4, reads=["mean_sum"],
                       workers=1)
    assert list(listed) == ["a3"] and listed["a3"].mean_r1 is None


@pytest.mark.parametrize("policies", [(), ("a3", "a3")])
def test_run_point_refuses_no_or_repeated_policies_before_any_leaf(monkeypatch, policies):
    ran = _record_tasks(monkeypatch)
    with pytest.raises(ConfigurationError, match=r"^policies = ") as err:
        run_point(FadingConfig(), "fnoma", policies, 100, 1, b=0.4, workers=2)
    assert err.value.keys == ("policies",)
    assert ran == []


@given(dims=st.tuples(st.integers(1, 5000), st.integers(1, 64), st.integers(1, 64)),
       trials=st.integers(1, 2 ** 40))
@example(dims=(1024, 2, 2), trials=2 ** 30)
@example(dims=(1025, 2, 2), trials=1)
@example(dims=(1, 2047, 2047), trials=1)
@example(dims=(1, 2, 2), trials=2 ** 30 + 1)
def test_a_scenario_builds_only_within_the_leaf_budget_and_the_trial_cap(dims, trials):
    # construction only: a rejected scenario plans no leaf and draws nothing
    n, m, k = dims
    within = (n * (m + k) * harness._CHUNK * 8 <= harness._LEAF_DRAW_BYTES
              and trials <= harness._MAX_TRIALS)
    try:
        _fnoma_scn(fading=FadingConfig(n_bs=n, m_ue1=m, k_ue2=k), trials=trials)
    except ConfigurationError as exc:
        assert not within
        assert exc.keys == (("trials",) if trials > harness._MAX_TRIALS
                            else ("n_bs", "m_ue1", "k_ue2"))
    else:
        assert within


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
    try:  # the fading refuses a geometry that cannot run, the scenario the rest
        fading = FadingConfig(n_bs=dims[0], m_ue1=dims[1], k_ue2=dims[2], d1=d1, d2=d2,
                              alpha=alpha, ps_dbm=ps_dbm, sigma2_dbm=sigma2_dbm)
        scn = Scenario(fading, mode, (policy,), b=b if mode == "fnoma" else None,
                       r_th=r_th if mode == "crnoma" else None, trials=trials, seed=seed)
    except ConfigurationError:
        return
    report = _one_report(scn, workers=1)
    values = [report.mean_r1, report.mean_r2, report.mean_sum, report.mean_fairness,
              *report.std_err.values()]
    assert all(math.isfinite(v) for v in values), report


def _record_tasks(monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "_simulate_leaf", ran.append)
    return ran


def test_sweep_rejects_a_bad_point_before_any_point_runs(monkeypatch):
    ran = _record_tasks(monkeypatch)
    with pytest.raises(ConfigurationError, match=r"\bps_dbm ="):
        sweep(_fnoma_scn(), "ps_dbm", [10.0, 20.0, 2980.0], workers=1)
    # a point is checked when it is built, before any run holds it or any task
    good = _fnoma_scn()
    with pytest.raises(ConfigurationError, match=r"^b = 0.6: "):
        Run(1, [good, replace(good, policies=("es", "a3"), b=0.6)])
    assert ran == []


# --- trial averaging ----------------------------------------------------------

def test_single_trial_equals_direct_computation():
    scn = _fnoma_scn(trials=1, seed=77)
    report = _one_report(scn, workers=1)
    h, g = sample_channel_batch(scn.fading, 77, 0, 1)
    (n,), (m,), (k,) = row_triple(h, g, _a3_row)
    r1, r2 = fnoma_pair_rates(h[0, n, m], g[0, n, k], scn.b, scn.fading.rho)
    assert report.mean_r1 == r1
    assert report.mean_r2 == r2
    assert report.mean_sum == r1 + r2
    assert report.mean_fairness == _jain(r1, r2, r1 + r2)
    assert report.std_err["sum"] == 0.0


def test_single_trial_crnoma_equals_direct_computation():
    scn = _cr_scn(trials=1, seed=5)
    report = _one_report(scn, workers=1)
    h, g = sample_channel_batch(scn.fading, 5, 0, 1)
    (n,), (m,), (k,) = row_triple(h, g, _pu_row)
    r1, r2 = cr_rates(h[0, n, m], g[0, n, k], scn.fading.rho, scn.r_th)
    assert report.mean_r1 == r1 and report.mean_r2 == r2


def test_reports_invariant_to_worker_count(monkeypatch):
    _usable_cpus(monkeypatch, 2)
    scn = _fnoma_scn(trials=40_000, seed=3)
    a = _one_report(scn, workers=1)
    b = _one_report(scn, workers=2)
    assert a == b


def test_std_err_scales_like_inverse_sqrt_trials(monkeypatch):
    _usable_cpus(monkeypatch, 2)
    small = _one_report(_fnoma_scn(trials=20_000, seed=9), workers=1)
    large = _one_report(_fnoma_scn(trials=80_000, seed=9), workers=2)
    ratio = small.std_err["sum"] / large.std_err["sum"]
    assert 1.8 < ratio < 2.2


def test_report_sanity():
    rep = _one_report(_cr_scn(trials=5000), workers=1)
    assert 0.5 <= rep.mean_fairness <= 1.0
    assert all(v >= 0.0 for v in rep.std_err.values())
    assert POLICIES["crnoma", "pu"].count(4, 2, 2) == (4 * 2 - 1) + (2 - 1)


def test_policies_share_realizations():
    # paired dominance must hold exactly, not just on average
    fading = FadingConfig(n_bs=3, ps_dbm=20.0)
    rep = run_point(fading, "fnoma", ("es", "a3", "random"), 4000, 21,
                    b=0.4, workers=1)
    assert rep["es"].mean_sum >= rep["a3"].mean_sum >= rep["random"].mean_sum


def test_fnoma_dominance_across_grid_points():
    points = [FadingConfig(n_bs=2, ps_dbm=10.0),
              FadingConfig(n_bs=4, ps_dbm=10.0),
              FadingConfig(n_bs=2, d2=300.0, ps_dbm=10.0),
              FadingConfig(n_bs=2, ps_dbm=40.0)]
    for fading in points:
        rep = run_point(fading, "fnoma", ("es", "a3", "aia", "random"),
                        20_000, 13, b=0.4, workers=1)
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
        _one_report(_fnoma_scn(trials=10))
    monkeypatch.setenv("NOMA_SIM_WORKERS", "0")
    with pytest.raises(ConfigurationError):
        _one_report(_fnoma_scn(trials=10))
    _usable_cpus(monkeypatch, 2)
    for env in ("3", "1.5", ""):
        monkeypatch.setenv("NOMA_SIM_WORKERS", env)
        with pytest.raises(ConfigurationError, match=rf"^NOMA_SIM_WORKERS = '{env}': "
                                                     rf"need an integer from 1 to 2, "):
            _one_report(_fnoma_scn(trials=10))
    monkeypatch.setenv("NOMA_SIM_WORKERS", "1")
    _one_report(_fnoma_scn(trials=10))


# --- the reduction: leaf moments merged along numpy's pairwise tree ----------------

@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10 ** 6), seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, seed=0)
@example(n=129, seed=0)
@example(n=16384, seed=0)
@example(n=16385, seed=0)
@example(n=32776, seed=0)
@example(n=10 ** 6, seed=0)
def test_merged_leaves_sum_like_numpy_bit_for_bit(n, seed):
    # guards the leaf tree against a numpy whose pairwise sum splits otherwise
    rng = np.random.default_rng(seed)
    r1 = rng.exponential(size=n) * 10.0 ** rng.uniform(-6, 6, n)
    r2 = rng.exponential(size=n) * 10.0 ** rng.uniform(-6, 6, n)
    leaves = ([harness._make_report(r1[t0:t0 + count], r2[t0:t0 + count],
                                    harness.QUANTITIES)[:, None]]
              for t0, count in harness._leaves(0, n))
    [(sums, m2)] = harness._merged(n, leaves)
    for i, x in enumerate((r1, r2, r1 + r2, _jain(r1, r2, r1 + r2))):
        assert sums[0, i] == np.add.reduce(x)
        assert sums[0, i] / n == x.mean()
        if n > 1:
            assert m2[0, i] / (n - 1) == pytest.approx(x.var(ddof=1), rel=1e-12, abs=0)


@pytest.mark.parametrize("trials", [1, 129, 16384, 16385, 32776, 100_000])
@pytest.mark.parametrize("mode", ["fnoma", "crnoma"])
def test_run_point_matches_numpy_over_the_per_trial_arrays(mode, trials):
    fading = FadingConfig(n_bs=2, d1=80.0, ps_dbm=20.0)
    b, r_th = (0.4, None) if mode == "fnoma" else (None, 2.0)
    policies = _FNOMA_ALL if mode == "fnoma" else _CR_ALL
    reports = run_point(fading, mode, policies, trials, 7, b=b, r_th=r_th, workers=1)
    for policy, report in reports.items():
        r1, r2 = oracles.per_trial_rates(fading, mode, policy, trials, 7, b, r_th)
        for key, x in (("r1", r1), ("r2", r2), ("sum", r1 + r2),
                       ("fairness", _jain(r1, r2, r1 + r2))):
            assert getattr(report, f"mean_{key}") == x.mean()
            se = x.std(ddof=1) / math.sqrt(trials) if trials > 1 else 0.0
            assert report.std_err[key] == pytest.approx(se, rel=1e-12, abs=0)


_FNOMA_ALL = ("es", "a3", "aia", "random")
_CR_ALL = ("es", "mcg", "pu", "su", "random")
_MODE_POINTS = {"fnoma": (_FNOMA_ALL, 0.4, None),
                "crnoma": (_CR_ALL, None, 5.0), "oma": (("oma_es",), None, None)}


@pytest.mark.parametrize("mode", sorted(_MODE_POINTS))
def test_a_point_computes_only_the_means_it_reads(mode, monkeypatch):
    # three leaves: each mean read equals that of a run reading all four,
    # bit for bit, and the others are None and absent from std_err.  es
    # reading only its metric takes the search's optimum and builds no grid.
    monkeypatch.setattr(harness, "_CHUNK", 256)
    fading = FadingConfig(n_bs=3, d1=200.0, d2=80.0, ps_dbm=20.0)
    policies, b, r_th = _MODE_POINTS[mode]
    full = run_point(fading, mode, policies, 520, 4, b, r_th, workers=1)
    assert all(None not in (r.mean_r1, r.mean_r2, r.mean_sum, r.mean_fairness)
               and list(r.std_err) == ["r1", "r2", "sum", "fairness"] for r in full.values())
    gathered = []
    row_of = selection._row_of
    monkeypatch.setattr(selection, "_row_of", lambda *args: gathered.append(1) or row_of(*args))
    for reads in [(q,) for q in harness.QUANTITIES] + [("mean_fairness", "mean_r1")]:
        gathered.clear()
        reports = run_point(fading, mode, policies, 520, 4, b, r_th, reads, workers=1)
        for policy, report in reports.items():
            assert [getattr(report, q) for q in harness.QUANTITIES] == [
                getattr(full[policy], q) if q in reads else None for q in harness.QUANTITIES]
            keys = [q.removeprefix("mean_") for q in reads]
            assert report.std_err == {key: full[policy].std_err[key] for key in keys}
            assert list(report.std_err) == keys
        es_metric = METRIC[mode] if mode != "oma" else None
        assert (gathered == []) == (mode == "oma" or reads == (es_metric,))


@pytest.mark.parametrize("reads", [(), ("mean_r1", "mean_r1"), ("r1",), ("trials_used",)])
def test_a_point_must_read_distinct_means(reads):
    with pytest.raises(ConfigurationError, match="reads"):
        Scenario(FadingConfig(), "oma", ("oma_es",), 10, 1, reads=reads)


def test_run_point_takes_the_fields_of_a_scenario_and_workers():
    # so `run_point(**vars(scn), workers=...)` runs the scenario scn; where
    # run_point has a default, it is the field's
    fields = {f.name: f.default for f in dataclasses.fields(Scenario)}
    parameters = inspect.signature(run_point).parameters
    assert list(parameters) == [*fields, "workers"]
    assert all(p.default == fields[name] for name, p in parameters.items()
               if name != "workers" and p.default is not p.empty)


def test_the_parent_holds_no_per_trial_array(monkeypatch):
    # per-trial arrays of r1 and r2 for 2**17 trials x 5 policies are 10 MiB
    _usable_cpus(monkeypatch, 2)
    fading = FadingConfig(n_bs=2, d1=80.0, ps_dbm=20.0)
    run_point(fading, "crnoma", _CR_ALL, 16385, 3, r_th=2.0, workers=2)  # imports
    tracemalloc.start()
    try:
        reports = run_point(fading, "crnoma", _CR_ALL, 2 ** 17, 3, r_th=2.0, workers=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(reports) == list(_CR_ALL)
    assert peak < 2 ** 20


# --- one run shared by many points ----------------------------------------------

def _reports(points, workers):
    return [run_point(**vars(point), workers=workers) for point in points]


def test_run_shares_draws_across_points_on_two_workers(monkeypatch):
    # two leaves on two worker processes: fnoma powers x splits and the oma
    # point on one geometry, crnoma with d1 and d2 swapped, then the first
    # geometry's points again.  Each report must equal a one-worker run of
    # its point alone; the low powers make es choose differently at every
    # point.
    geo = FadingConfig(n_bs=2, d1=80.0, d2=200.0)
    swapped = FadingConfig(n_bs=2, d1=200.0, d2=80.0)
    first = [Scenario(replace(geo, ps_dbm=ps), "fnoma", _FNOMA_ALL, 16385, 5, b)
             for ps in (-30.0, 0.0) for b in (0.2, 0.4)]
    first.append(Scenario(replace(geo, ps_dbm=30.0), "oma", ("oma_es",), 16385, 5))
    cr = [Scenario(replace(swapped, ps_dbm=ps), "crnoma", _CR_ALL, 16385, 5, r_th=r_th)
          for ps in (10.0, 30.0) for r_th in (1.0, 5.0)]
    fresh = _reports(first + cr, 1)
    _usable_cpus(monkeypatch, 2)
    run = Run(2, first + cr + first)
    assert run.workers == 2
    assert _reports(first + cr + first, run) == fresh + fresh[:len(first)]
    with pytest.raises(ValueError, match="not a point of this run"):
        run_point(**vars(replace(first[0], seed=6)), workers=run)


def _means(reports):
    return [{p: (r.mean_r1, r.mean_r2, r.mean_sum, r.mean_fairness) for p, r in rep.items()}
            for rep in reports]


def test_run_keeps_row_statistics_per_chunk_on_two_workers(monkeypatch):
    # three leaves of each geometry on two worker processes: fnoma powers x
    # splits, then crnoma powers x r_th with d1 and d2 swapped.  References
    # run each point alone with the same leaves; their means must also equal
    # those of one leaf, which no sharing across leaves can give.
    geo = FadingConfig(n_bs=3, d1=80.0, d2=200.0)
    swapped = FadingConfig(n_bs=3, d1=200.0, d2=80.0)
    points = [Scenario(replace(geo, ps_dbm=ps), "fnoma", _FNOMA_ALL, 520, 5, b)
              for ps in (-30.0, 0.0, 30.0) for b in (0.2, 0.5)]
    points += [Scenario(replace(swapped, ps_dbm=ps), "crnoma", _CR_ALL, 520, 5, r_th=r_th)
               for ps in (0.0, 20.0) for r_th in (1.0, 5.0)]
    one_leaf = _reports(points, 1)
    monkeypatch.setattr(harness, "_CHUNK", 256)
    assert list(harness._leaves(0, 520)) == [(0, 256), (256, 128), (384, 136)]
    fresh = _reports(points, 1)
    _usable_cpus(monkeypatch, 2)
    run = Run(2, points)
    assert run.workers == 2
    shared = _reports(points, run)
    assert shared == fresh
    assert _means(shared) == _means(one_leaf)


@pytest.mark.parametrize("chunk", [8192, 256])
def test_leaf_count_is_the_number_of_leaves(monkeypatch, chunk):
    # a run's workers are capped at the leaf count of its largest point,
    # counted no further than the workers asked for
    monkeypatch.setattr(harness, "_CHUNK", chunk)
    _usable_cpus(monkeypatch, 64)
    sizes = [1, 2, 1000, 2 ** 20 - 1, 2 ** 20, 2 ** 20 + 1, 10 ** 6]
    sizes += [q * chunk + r for q in (1, 2, 3, 4, 5, 7, 8, 9, 16, 33) for r in (-1, 0, 1)]
    for n in sizes:
        scn, leaves = _fnoma_scn(trials=n), len(list(harness._leaves(0, n)))
        for workers in (1, 2, 64):
            assert Run(workers, [scn]).workers == min(workers, leaves), (n, workers)
    assert Run(64, [_fnoma_scn(trials=2 ** 30)]).workers == 64


def test_run_groups_points_by_geometry_trials_and_seed(monkeypatch):
    # each variant differs from the base point in one of d1, d2, alpha, seed,
    # n_bs, m_ue1, k_ue2 and trials, and samples its own leaves (the n_bs = 3
    # variant computes the unit draws that the base point reads a prefix
    # of); a point at another ps_dbm or sigma2_dbm shares the base point's
    # draws.  References run each point alone with the same 128-trial
    # leaves; their means must also equal those of one leaf.
    base = FadingConfig(n_bs=2, d1=80.0, d2=200.0, alpha=3.0, ps_dbm=30.0)
    same = [Scenario(f, "fnoma", _FNOMA_ALL, 512, 5, 0.4)
            for f in (base, replace(base, ps_dbm=10.0), replace(base, sigma2_dbm=-100.0))]
    variants = [Scenario(f, "fnoma", _FNOMA_ALL, trials, seed, 0.4)
                for f, seed, trials in ((replace(base, d1=90.0), 5, 512),
                                        (replace(base, d2=150.0), 5, 512),
                                        (replace(base, alpha=2.5), 5, 512), (base, 6, 512),
                                        (replace(base, n_bs=3), 5, 512),
                                        (replace(base, m_ue1=3), 5, 512),
                                        (replace(base, k_ue2=3), 5, 512), (base, 5, 256))]
    points = same + variants
    one_leaf = _reports(points, 1)
    monkeypatch.setattr(harness, "_CHUNK", 128)
    assert list(harness._leaves(0, 512)) == [(t0, 128) for t0 in (0, 128, 256, 384)]
    fresh = _reports(points, 1)
    sampled = []

    def geometry(fading):
        return fading.n_bs, fading.m_ue1, fading.k_ue2, fading.d1, fading.d2, fading.alpha

    def sample(fading, seed, start, count, draws=None):
        sampled.append((geometry(fading), seed, start, count))
        return sample_channel_batch(fading, seed, start, count, draws=draws)

    monkeypatch.setattr(harness, "sample_channel_batch", sample)
    run = Run(1, points)
    shared = _reports(points, run)
    assert sorted(sampled) == sorted((geometry(p.fading), p.seed, t0, count)
                                     for p in [same[0]] + variants
                                     for t0, count in harness._leaves(0, p.trials))
    assert shared == fresh
    assert _means(shared) == _means(one_leaf)


def test_run_holds_one_leaf_at_a_time_in_process(monkeypatch):
    # figure 7 in four leaves at one worker, both placements of a leaf
    # sampled together: when a leaf is sampled, the gains of every earlier
    # leaf are gone, and the unit draws handed over, if any, are the leaf's own
    monkeypatch.setattr(harness, "_CHUNK", 128)
    assert len(list(harness._leaves(0, 512))) == 4
    earlier = []

    def sample(fading, seed, start, count, draws=None):
        assert [t0 for t0, ref in earlier if t0 != start and ref() is not None] == []
        if draws is not None:
            own = channel._unit_draws(seed, len(draws), start, count)
            assert draws.tobytes() == own.tobytes()
            handed.append(start)
        h, g = sample_channel_batch(fading, seed, start, count, draws=draws)
        earlier.extend((start, weakref.ref(x)) for x in (h, g))
        return h, g

    handed = []
    monkeypatch.setattr(harness, "sample_channel_batch", sample)
    axis, rows = figure_rows(7, 512, 1, workers=1)
    assert len(earlier) == 2 * 2 * 4 and len(rows) == 9
    assert handed == [t0 for t0, _ in harness._leaves(0, 512) for _ in range(2)]


def test_run_draws_figure_7_once_per_leaf_for_both_placements(monkeypatch):
    # the two placements differ only in d1 and d2, so the unit draws of each
    # of the two leaves are computed once, not once per placement; every
    # report equals that of a run of its point alone, and a run of one
    # geometry hands the sampler no unit draws
    monkeypatch.setattr(harness, "_CHUNK", 128)
    axis, grid, groups = figures._FIGURES[7]
    points = [Scenario(apply_axis(base, axis, ps).fading, "crnoma", _CR_ALL, 256, 2, r_th=5.0)
              for ps in grid for _, base in groups]
    fresh = _reports(points, 1)
    computed, handed = [], []
    unit_draws = channel._unit_draws

    def count(*args):
        computed.append(args)
        return unit_draws(*args)

    def sample(fading, seed, start, count, draws=None):
        handed.append(draws)
        return sample_channel_batch(fading, seed, start, count, draws=draws)

    monkeypatch.setattr(channel, "_unit_draws", count, raising=False)
    run = Run(1, points)
    assert _reports(points, run) == fresh
    assert len(computed) == 2
    monkeypatch.setattr(harness, "sample_channel_batch", sample)
    run_point(**vars(points[0]), workers=1)
    assert handed == [None, None]


def test_run_draws_figure_2_once_per_leaf_for_every_bs_antenna_count(monkeypatch):
    # figure 2's eight antenna counts share M, K, the trials and the seed,
    # so each of the three leaves of 2 * _CHUNK + 1 trials computes the unit
    # draws of N = 8 once, and every smaller N reads a prefix of them; every
    # report equals that of a run of its point alone, at one and two workers
    trials = 2 * harness._CHUNK + 1
    axis, grid, groups = figures._FIGURES[2]
    points = [replace(apply_axis(base, axis, n), trials=trials, seed=3)
              for n in grid for _, base in groups]
    fresh = _reports(points, 1)
    computed = []
    unit_draws = channel._unit_draws

    def count(*args):
        computed.append(args[1:])
        return unit_draws(*args)

    monkeypatch.setattr(channel, "_unit_draws", count)
    _usable_cpus(monkeypatch, 2)
    for workers in (1, 2):
        run = Run(workers, points)
        assert run.workers == workers
        assert _reports(points, run) == fresh
        if workers == 1:
            assert computed == [(8 * 4, t0, n) for t0, n in harness._leaves(0, trials)]
            assert len(computed) == 3


def test_run_draws_random_once_per_leaf_for_both_modes(monkeypatch):
    # random's choice reads only N and the shape group, so an fnoma and a
    # crnoma point of one geometry share each leaf's draw; every report
    # equals that of a run of its point alone
    monkeypatch.setattr(harness, "_CHUNK", 128)
    fading = FadingConfig(n_bs=3, d1=80.0, ps_dbm=20.0)
    points = [Scenario(fading, "fnoma", ("random",), 256, 5, b=0.3),
              Scenario(replace(fading, ps_dbm=30.0), "crnoma", ("random",), 256, 5, r_th=2.0)]
    fresh = _reports(points, 1)
    drawn = []
    random_triples = selection._random_triples

    def count(*args):
        drawn.append(args[4:])  # (start, count)
        return random_triples(*args)

    monkeypatch.setattr(selection, "_random_triples", count)
    assert _reports(points, Run(1, points)) == fresh
    assert drawn == list(harness._leaves(0, 256)) == [(0, 128), (128, 128)]


_GRID = Path(__file__).resolve().parent.parent / "perfbench" / "validate_grid.txt"


def _leaf_peaks(monkeypatch, run):
    """What each leaf task of `run()`, run in this process under
    tracemalloc, allocates above what it started with."""
    peaks = []
    simulate = harness._simulate_leaf

    def traced(task):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        moments = simulate(task)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return moments

    monkeypatch.setattr(harness, "_simulate_leaf", traced)
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
    return peaks


# Bounds in MiB, above each figure's measured peak (figure 2 6.69, 3 2.57,
# 6 4.01, 7 4.01); those of figures 2, 3 and 6 sit below the peak a task
# reaches when it holds two geometries' arrays at once (7.57, 3.07, 5.01).
@pytest.mark.parametrize("figure_id, bound_mib", [
    (7, 5), (2, 7.25), (1, 2.5), (3, 2.8), (4, 2.5), (5, 2.75), (6, 4.5), (8, 4.5)])
def test_a_leaf_task_peaks_under_its_memory_bound(figure_id, bound_mib, monkeypatch):
    # figures 2 and 7 in four leaves, the others in one full leaf, which
    # peaks as high; every figure point shares one shape group, so one task
    # per leaf
    trials = 4 * harness._CHUNK if figure_id in (2, 7) else harness._CHUNK
    peaks = _leaf_peaks(monkeypatch, lambda: figure_rows(figure_id, trials, 1, workers=1))
    assert max(peaks) < bound_mib * 2 ** 20
    assert len(peaks) == len(list(harness._leaves(0, trials)))


def test_a_validation_leaf_task_peaks_under_its_memory_bound(monkeypatch):
    # the benchmark's validation grid in one full leaf, three geometries of
    # one shape group: 3.20 MiB measured, 4.19 MiB when a task holds two
    # geometries' arrays at once
    points = [ValidationPoint(replace(p.scenario, trials=harness._CHUNK), p.tolerance)
              for p in load_validation_grid(_GRID)]
    peaks = _leaf_peaks(monkeypatch, lambda: validate_asymptotics(points, workers=1))
    assert len(peaks) == 1 and peaks[0] < 3.6 * 2 ** 20


def test_run_writes_the_same_bits_at_one_two_and_three_workers(monkeypatch):
    # two geometries, three modes, two seeds, three leaves per point
    geo = FadingConfig(n_bs=2, d1=80.0, d2=200.0)
    swapped = FadingConfig(n_bs=3, d1=200.0, d2=80.0)
    points = []
    for seed in (5, 6):
        points += [Scenario(replace(geo, ps_dbm=ps), "fnoma", _FNOMA_ALL, 520, seed, 0.4)
                   for ps in (0.0, 30.0)]
        points.append(Scenario(replace(geo, ps_dbm=30.0), "oma", ("oma_es",), 520, seed))
        points += [Scenario(replace(swapped, ps_dbm=ps), "crnoma", _CR_ALL, 520, seed,
                         r_th=r_th) for ps in (10.0, 30.0) for r_th in (1.0, 5.0)]
    monkeypatch.setattr(harness, "_CHUNK", 256)
    assert len(list(harness._leaves(0, 520))) == 3
    printed = []
    _usable_cpus(monkeypatch, 2)
    for workers in (1, 2, 3):
        if workers == 3:  # more than this host may have: three CPUs and a pool in process
            _usable_cpus(monkeypatch, 3)
            monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool)
        run = Run(workers, points)
        assert run.workers == workers
        printed.append(repr(_reports(points, run)))
    assert printed[0] == printed[1] == printed[2]


@pytest.mark.parametrize("figure_id, mode, policies", [
    (1, "fnoma", ("a3", "aia", "es", "random")),
    (7, "crnoma", ("mcg", "pu", "es", "random")),
])
def test_a_figure_column_is_the_sweep_of_its_policy(figure_id, mode, policies):
    # a sweep of one policy of a column group's base over the figure's grid,
    # reading every mean as a scenario file's point does, takes the rate
    # formula at its gains, where the figure reads the search's optimum and
    # candidates; the mean the column shows has the same bits
    trials = 2 * harness._CHUNK + 1
    axis, grid, groups = figures._FIGURES[figure_id]
    _, rows = figure_rows(figure_id, trials, 3, workers=1)
    swept = 0
    for suffix, base in groups:
        if base.mode != mode:
            continue
        for name in policies:
            policy = POLICIES[mode, name]
            column = policy.column + ("_sim" if policy.closed_form else "") + suffix
            scn = Scenario(base.fading, mode, (name,), trials, 3, base.b, base.r_th)
            reports = sweep(scn, axis, grid, workers=1)
            assert ([getattr(report, METRIC[mode]) for _, report in reports]
                    == [cols[column] for _, cols in rows]), column
            swept += 1
    assert swept == len(policies) * (2 if figure_id == 7 else 1)


@pytest.mark.parametrize("figure_id", sorted(figures._FIGURES))
def test_figures_read_their_columns_only_and_write_the_same_bytes(figure_id, tmp_path,
                                                                  monkeypatch):
    # each figure point reads the one mean its columns show; its CSV is the
    # one a run reading all four means writes, at one and two workers; the
    # exhaustive searches take their optimum without building a grid, and
    # the rate formulas see only the random policy's gains (figure 5 reads
    # the fairness, so its a3 and aia gains meet the formula)
    _usable_cpus(monkeypatch, 2)
    gathered, drawn, rated = [], [], []
    row_of = selection._row_of
    monkeypatch.setattr(selection, "_row_of", lambda *args: gathered.append(1) or row_of(*args))
    triple_gains = selection._triple_gains
    monkeypatch.setattr(selection, "_triple_gains",
                        lambda *args: drawn.append(triple_gains(*args)) or drawn[-1])
    for name in ("fnoma_pair_rates", "cr_rates"):
        rate = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda h, *args, rate=rate: rated.append(h) or rate(h, *args))
    sweep_run = figures.sweep_run
    for trials in (300, 16385):
        monkeypatch.setattr(figures, "sweep_run", lambda bases, *args: sweep_run(
            [replace(base, reads=harness.QUANTITIES) for base in bases], *args))
        figures.reproduce_figure(figure_id, trials, 1, tmp_path / "all.csv", workers=1)
        searched = len(gathered)
        assert (searched > 0) == (figure_id != 5)  # figure 5 runs no exhaustive search
        monkeypatch.setattr(figures, "sweep_run", sweep_run)
        drawn.clear()
        rated.clear()
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}.csv"
            figures.reproduce_figure(figure_id, trials, 1, out, workers=workers)
            assert out.read_bytes() == (tmp_path / "all.csv").read_bytes()
        assert len(gathered) == searched
        gathered.clear()
        assert rated  # the one-worker run calls them in this process
        from_random = [any(h is gains[0] for gains in drawn) for h in rated]
        assert all(from_random) if figure_id != 5 else not any(from_random)


class _InlinePool:
    """Stands in for the process pool: records its size, runs tasks here."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def submit(self, fn, task):
        future = Future()
        future.set_result(fn(task))
        return future


def _usable_cpus(monkeypatch, n):
    """Make this process see n CPUs it may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def test_run_starts_no_more_workers_than_chunks(monkeypatch):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool)
    _usable_cpus(monkeypatch, 64)

    def pools_started(fn):
        _InlinePool.sizes.clear()
        fn()
        return list(_InlinePool.sizes)

    chunk = harness._CHUNK
    monkeypatch.setenv("NOMA_SIM_WORKERS", "64")
    scn = _fnoma_scn(trials=chunk + 1)
    assert pools_started(lambda: _one_report(scn)) == [2]
    assert _one_report(scn) == _one_report(scn, workers=1)
    assert pools_started(lambda: _one_report(_fnoma_scn(trials=chunk))) == []
    assert pools_started(lambda: sweep(scn, "ps_dbm", [10.0, 20.0])) == [2]
    points = [ValidationPoint(_fnoma_scn(trials=t), 0.05) for t in (10, 2 * chunk + 1)]
    assert pools_started(lambda: validate_asymptotics(points)) == [3]

    monkeypatch.delenv("NOMA_SIM_WORKERS")
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert Run(None, [_fnoma_scn(trials=10 * chunk)]).workers == 2
    assert Run(None, [_fnoma_scn(trials=chunk)]).workers == 1


def test_run_refuses_a_worker_count_the_host_cannot_run(monkeypatch):
    # when the run is built, before any draw, naming the count and the
    # usable CPUs; without sched_getaffinity the CPU count is the bound
    ran = _record_tasks(monkeypatch)
    _usable_cpus(monkeypatch, 2)
    points = [_fnoma_scn(trials=4 * harness._CHUNK)]
    for workers in (2.5, True, 3, 0, "2"):
        with pytest.raises(ConfigurationError, match=rf"^workers = {re.escape(repr(workers))}: "
                                                     rf"need an integer from 1 to 2, "):
            Run(workers, points)
    assert Run(2, points).workers == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert Run(3, points).workers == 3
    with pytest.raises(ConfigurationError, match=r"^workers = 4: need an integer from 1 to 3, "):
        Run(4, points)
    assert ran == []


def _zero_moments(task):
    """Stands in for `_simulate_leaf`: zero moments of each point's shape."""
    return [np.zeros((2, len(point.policies), len(point.reads)))
            for _, points in task[3] for point in points]


def test_a_run_simulates_nothing_until_a_point_is_read_and_each_leaf_once(monkeypatch):
    # building a run, a sweep or a figure plans its tasks and runs none; the
    # first read of a point runs every leaf task of every shape group (here
    # two, one per seed), and no read runs one again
    tasks = []
    monkeypatch.setattr(harness, "_simulate_leaf",
                        lambda task: tasks.append(task[:3]) or _zero_moments(task))
    trials = 2 * harness._CHUNK + 1
    bases = [_fnoma_scn(trials=trials), _cr_scn(trials=trials, seed=12)]
    Run(1, bases)
    swept = harness.sweep_run(bases, "ps_dbm", [10.0, 20.0], workers=1)
    figures._figure_run(7, trials, 1, 1)
    assert tasks == []
    assert len(list(swept)) == 2
    leaves = [(seed, t0, n) for seed in (11, 12) for t0, n in harness._leaves(0, trials)]
    assert sorted(tasks) == leaves
    tasks.clear()
    run = Run(1, bases)
    first = [run_point(**vars(p), workers=run) for p in bases]
    assert sorted(tasks) == leaves
    tasks.clear()
    assert [run_point(**vars(p), workers=run) for p in bases] == first
    assert tasks == []


@pytest.mark.parametrize("workers", [1, 2])
def test_the_parent_holds_as_much_at_any_trial_count(monkeypatch, workers):
    # figure 7 with its leaves stubbed: the parent's peak at 2**22 trials
    # (512 leaves) is within 0.5 MiB of its peak at 2**16 (8 leaves)
    monkeypatch.setattr(harness, "_simulate_leaf", _zero_moments)
    _usable_cpus(monkeypatch, 2)
    peaks = []
    for trials in (2 ** 16, 2 ** 16, 2 ** 22):  # the first run fills the caches
        tracemalloc.start()
        try:
            figure_rows(7, trials, 1, workers=workers)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] - peaks[1] < 0.5 * 2 ** 20, peaks


# --- sweeps ---------------------------------------------------------------------

def test_sweep_power_monotone_for_every_policy():
    # common random numbers make per-trial rates monotone in power, so the
    # means must be exactly monotone, not just statistically
    for policy in ("es", "a3", "aia", "random"):
        rows = sweep(_fnoma_scn(policies=(policy,), trials=2000), "ps_dbm",
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
    for value in (2.5, math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigurationError, match=r"\bn_bs\b") as info:
            apply_axis(_fnoma_scn(), "n_bs", value)
        assert info.value.keys == ("n_bs",)
    for axis, value in (("n_bs", 0), ("d1", math.nan), ("d2", -4.0), ("ps_dbm", math.inf),
                        ("d1", math.inf), ("d2", math.inf)):
        with pytest.raises(ConfigurationError, match=rf"^{axis} = ") as info:
            apply_axis(_fnoma_scn(), axis, value)
        assert info.value.keys == (axis,)


def test_sweep_applies_values():
    scn = apply_axis(_fnoma_scn(), "n_bs", 5)
    assert scn.fading.n_bs == 5
    scn = apply_axis(_fnoma_scn(), "b", 0.25)
    assert scn.b == 0.25
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
        ValidationPoint(_fnoma_scn(policies=("aia",), trials=30_000), 0.02),
        ValidationPoint(_cr_scn(policies=("mcg",), trials=30_000), 0.02),
    ]
    results = validate_asymptotics(points, workers=1)
    assert [r.status for r in results] == ["pass"] * 3
    for point, r in zip(points, results):
        assert r.rel_gap <= point.tolerance


def test_validation_result_carries_the_monte_carlo_error(monkeypatch):
    # a PASS point: the report's standard error, the gap in units of it
    scn = _cr_scn(policies=("mcg",), trials=20_000)
    report = _one_report(scn, workers=1)
    point = ValidationPoint(scn, 0.02)
    res = validate_asymptotics([point], workers=1)[0]
    assert res.status == "pass"
    assert res.monte_carlo == report.mean_r1
    assert res.std_err == report.std_err["r1"] > 0
    assert res.sigma_gap == abs(point.closed_form - res.monte_carlo) / res.std_err < 5
    # a fabricated FAIL: a closed form 5% off lies far outside the noise
    policy = POLICIES["crnoma", "mcg"]
    monkeypatch.setitem(POLICIES, ("crnoma", "mcg"), replace(
        policy, closed_form=lambda *args: 1.05 * policy.closed_form(*args)))
    bad_point = ValidationPoint(scn, 0.02)
    bad = validate_asymptotics([bad_point], workers=1)[0]
    assert bad.status == "fail"
    assert (bad.monte_carlo, bad.std_err) == (res.monte_carlo, res.std_err)
    assert bad.sigma_gap == abs(bad_point.closed_form - bad.monte_carlo) / bad.std_err > 50


def test_a_validation_result_holds_only_what_its_run_measured():
    # the scenario, tolerance and closed form are read from the point
    assert [f.name for f in dataclasses.fields(harness.ValidationResult)] == [
        "monte_carlo", "rel_gap", "status", "std_err", "sigma_gap"]


@pytest.mark.parametrize("scn", [_fnoma_scn(policies=("aia",)), _cr_scn(policies=("mcg",))])
def test_a_validation_point_holds_its_closed_form_from_when_it_is_built(scn):
    closed_form = POLICIES[scn.mode, scn.policies[0]].closed_form(scn.fading, scn.r_th)
    assert ValidationPoint(scn, 0.02).closed_form == closed_form


@pytest.mark.parametrize("tolerance", [math.nan, -0.5, 0.0, math.inf, -math.inf])
def test_validation_point_rejects_a_tolerance_that_is_not_finite_and_positive(tolerance):
    with pytest.raises(ConfigurationError, match=rf"^tolerance = {tolerance}: ") as info:
        ValidationPoint(_fnoma_scn(), tolerance)
    assert info.value.keys == ("tolerance",)


def test_validate_flags_low_snr_as_not_applicable():
    scn = _fnoma_scn(fading=FadingConfig(n_bs=2, ps_dbm=-100.0), trials=5000)
    res = validate_asymptotics([ValidationPoint(scn, 0.01)], workers=1)[0]
    assert res.status == "not-applicable"
    assert res.rel_gap > 0.05  # the closed form is far off here, by design


def test_a_sweep_or_validation_point_runs_one_policy(monkeypatch):
    ran = _record_tasks(monkeypatch)
    two = _fnoma_scn(policies=("a3", "aia"))
    with pytest.raises(ConfigurationError, match=r"^policies = \('a3', 'aia'\): ") as info:
        ValidationPoint(two, 0.02)
    assert info.value.keys == ("policies",)
    with pytest.raises(ConfigurationError, match=r"^policies = \('a3', 'aia'\): "):
        sweep(two, "ps_dbm", [10.0], workers=1)
    assert ran == []


def test_validate_rejects_policies_without_closed_form():
    with pytest.raises(ConfigurationError):
        validate_asymptotics([ValidationPoint(_fnoma_scn(policies=("es",)), 0.01)])


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
    assert scn.mode == "fnoma" and scn.policies == ("a3",)
    assert scn.fading == FadingConfig(n_bs=2, ps_dbm=30.0)
    assert scn.b == 0.4
    assert scn.trials == 500 and scn.seed == 42


@pytest.mark.parametrize("key, line", [("d1", 7), ("d2", 8), ("alpha", 9)])
def test_scenario_file_names_the_line_of_an_infinite_distance_or_exponent(tmp_path, key,
                                                                          line):
    path = tmp_path / "scn.txt"
    text = "".join(f"{key} = inf\n" if raw.startswith(f"{key} =") else raw
                   for raw in SCENARIO_TEXT.splitlines(keepends=True))
    path.write_text(text)
    with pytest.raises(ConfigurationError) as info:
        load_scenario(path)
    assert str(info.value).startswith(f"{path}:{line}: {key} = inf: ")
    assert info.value.keys == (key,)


@pytest.mark.parametrize("key, value, line", [("d1", "1e-200", 7), ("d2", "1e200", 8),
                                             ("alpha", "300", 9)])
def test_scenario_file_names_the_line_of_a_path_loss_out_of_float_range(tmp_path, key, value,
                                                                        line):
    # one distance's d**alpha out of range names that distance; both, the
    # exponent and then the distances
    path = tmp_path / "scn.txt"
    text = "".join(f"{key} = {value}\n" if raw.startswith(f"{key} =") else raw
                   for raw in SCENARIO_TEXT.splitlines(keepends=True))
    path.write_text(text)
    with pytest.raises(ConfigurationError) as info:
        load_scenario(path)
    named = "d1**alpha or d2**alpha" if key == "alpha" else f"{key}**alpha"
    assert str(info.value).startswith(f"{path}:{line}: {key} = ")
    assert str(info.value).endswith(f": path loss {named} is out of float range")
    assert info.value.keys == ((key, "alpha") if key != "alpha" else ("alpha", "d1", "d2"))


def test_scenario_file_without_alpha_names_the_d1_line_when_both_path_losses_leave_range(
        tmp_path):
    path = tmp_path / "scn.txt"
    text = "".join(raw for raw in SCENARIO_TEXT.splitlines(keepends=True)
                   if not raw.startswith("alpha ="))
    path.write_text(text.replace("d1 = 80", "d1 = 1e-200").replace("d2 = 200", "d2 = 1e200"))
    with pytest.raises(ConfigurationError) as info:
        load_scenario(path)
    assert str(info.value) == (f"{path}:7: alpha = 3.0, d1 = 1e-200, d2 = 1e+200: path loss "
                               f"d1**alpha or d2**alpha is out of float range")
    assert info.value.keys == ("alpha", "d1", "d2")


def test_the_key_table_is_the_fading_and_scenario_fields_and_the_tolerance():
    fading = {f.name for f in dataclasses.fields(FadingConfig) if f.init}
    assert set(harness._KEYS) == fading | {"mode", "policy", "b", "r_th", "trials", "seed",
                                           "tolerance"}


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
    assert points[1].scenario.policies == ("pu",)


def test_validation_grid_refuses_a_closed_form_before_any_point_runs(tmp_path,
                                                                     monkeypatch):
    # the second block's a3 closed form sums 200 * 200 terms, above the cap
    ran = _record_tasks(monkeypatch)
    path = tmp_path / "grid.txt"
    path.write_text(GRID_TEXT.split("\n\n")[0] + "\n\n\nmode = fnoma\npolicy = a3\n"
                    "n_bs = 100\nps_dbm = 30\nb = 0.4\ntrials = 400\n")
    with pytest.raises(ConfigurationError) as info:
        validate_asymptotics(load_validation_grid(path), workers=1)
    assert str(info.value).startswith(f"{path}:12: n_bs = 100, m_ue1 = 2, k_ue2 = 2: ")
    assert info.value.keys == ("n_bs", "m_ue1", "k_ue2")
    assert ran == []


def test_validation_grid_names_the_policy_line_of_a_policy_without_a_closed_form(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text(GRID_TEXT.replace("policy = pu\n", "") + "policy = random\n")
    with pytest.raises(ConfigurationError) as info:
        load_validation_grid(path)
    assert str(info.value) == f"{path}:16: no closed form for policy 'random' in mode 'crnoma'"
    assert info.value.keys == ("policy", "mode")


def test_validation_grid_rejects_a_bad_tolerance(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text(GRID_TEXT.replace("tolerance = 0.05", "tolerance = -0.5"))
    with pytest.raises(ConfigurationError) as info:
        load_validation_grid(path)
    assert str(info.value).startswith(f"{path}:7: tolerance = -0.5: ")
    assert info.value.keys == ("tolerance",)


def test_validation_grid_empty(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("\n\n# nothing here\n")
    with pytest.raises(ConfigurationError):
        load_validation_grid(path)


@pytest.mark.parametrize("text, line", [
    (GRID_TEXT + "bandwidth = 20\n", 17),                        # the unknown key
    (GRID_TEXT.replace("mode = crnoma\n", ""), 9),               # the block's first line
    (GRID_TEXT.replace("b = 0.4\n", ""), 1),                     # no key b to name
    (GRID_TEXT.replace("policy = pu", "policy = a3"), 10),       # the policy
    (GRID_TEXT.replace("n_bs = 4", "n_bs = 2.5") + "bandwidth = 20\n", 17),  # unknown first
], ids=["unknown key", "missing mode", "fnoma without b", "mode and policy",
        "unknown key and bad value"])
def test_every_file_error_names_its_line(tmp_path, text, line):
    path = tmp_path / "grid.txt"
    path.write_text(text)
    with pytest.raises(ConfigurationError) as info:
        load_validation_grid(path)
    assert str(info.value).startswith(f"{path}:{line}: ")


def test_a_byte_order_mark_is_not_part_of_the_first_key(tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(SCENARIO_TEXT)
    marked.write_bytes(b"\xef\xbb\xbf" + SCENARIO_TEXT.encode())
    assert load_scenario(marked) == load_scenario(plain)
    assert load_validation_grid(marked) == load_validation_grid(plain)
    rows = SCENARIO_TEXT.encode().splitlines(True)
    rows[3] = b"ps_dbm = 3\xff0\n"
    marked.write_bytes(b"\xef\xbb\xbf" + b"".join(rows))
    with pytest.raises(ConfigurationError) as info:
        load_scenario(marked)
    assert str(info.value).startswith(f"{marked}:4: byte 0xff is not UTF-8 text")


# per key, values that pass its checks and values that do not; antenna counts
# stay small, so every closed form a grid block asks for is cheap
_FILE_VALUES = {
    "mode": ([], ["noma"]), "policy": ([], ["best"]),
    "n_bs": (["1", "2", "3"], ["0", "2.5"]), "m_ue1": (["1", "2"], ["-1"]),
    "k_ue2": (["1", "2"], ["0"]), "d1": (["80", "200"], ["0"]), "d2": (["200", "80"], ["inf"]),
    "alpha": (["3", "2"], ["x"]), "ps_dbm": (["20", "40"], ["nan"]),
    "sigma2_dbm": (["-110"], ["-4000"]), "b": (["0.4", "0.2"], ["7"]),
    "r_th": (["1", "5"], ["inf"]), "trials": (["100"], ["0", "1e5"]),
    "seed": (["1"], ["-1"]), "tolerance": (["0.05"], ["-0.5"]),
}


@st.composite
def _file_lines(draw):
    """The lines of a scenario or grid file: a (mode, policy) pair, the key
    its mode needs and other keys, each set at most once and mostly to a
    good value, in any order; then a few blank, comment-only, unknown-key,
    repeated-key or '='-less lines put in anywhere."""
    mode, policy = draw(st.sampled_from(sorted(POLICIES)))
    likely = {"mode", "policy", {"fnoma": "b", "crnoma": "r_th"}.get(mode)}
    lines = []
    for key, (good, bad) in _FILE_VALUES.items():
        if draw(st.integers(0, 9)) >= (9 if key in likely else 4):
            continue
        good = good or [{"mode": mode, "policy": policy}[key]]
        value = draw(st.sampled_from(bad if draw(st.integers(0, 19)) == 0 else good))
        lines.append(f"{key} = {value}" + draw(st.sampled_from(["", "  # why"])))
    lines = draw(st.permutations(lines))
    extra = ["", "  ", "# a comment", "no equals sign", "bandwidth = 20", "seed = 2"]
    for line in draw(st.lists(st.sampled_from(extra), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return lines


@settings(max_examples=150, deadline=None)
@given(lines=_file_lines(), newline=st.sampled_from(["\n", "\r\n"]), mark=st.booleans())
def test_a_file_loads_or_its_error_names_one_of_its_lines(tmp_path_factory, lines, newline,
                                                          mark):
    content = [line for line in lines if line.split("#", 1)[0].strip()]
    assume(content)
    path = tmp_path_factory.getbasetemp() / "file.txt"
    path.write_bytes(b"\xef\xbb\xbf" * mark + (newline.join(lines) + newline).encode())
    outcomes = []
    for load in (load_scenario, load_validation_grid):
        try:
            outcomes.append(load(path))
        except ConfigurationError as exc:
            where, _, number = str(exc).partition(": ")[0].rpartition(":")
            assert where == str(path) and 1 <= int(number) <= len(lines), str(exc)
            outcomes.append(str(exc))
    # a one-block text without a tolerance is the same scenario to both loaders
    if len(content) == len(lines) and not any(line.startswith("tolerance") for line in lines):
        scenario, grid = outcomes
        if isinstance(grid, list):
            assert grid[0].scenario == scenario
        elif isinstance(scenario, str):
            assert grid == scenario
