"""Monte Carlo experiment engine: scenarios, trial averaging, sweeps, and
closed-form-vs-simulation validation.

Reproducibility model: trial t of a scenario draws its channels from the
(seed, t) substream, so the set of realizations is fixed by the scenario
alone.  Workers receive disjoint trial chunks of a fixed size, per-trial
metrics are reassembled in trial order, and the reduction is numpy's
pairwise sum over that one array; reports are therefore bit-identical for
any worker count.  Policies evaluated at the same (seed, trials) point see
the same realizations, which makes dominance comparisons between policies
exact per realization rather than statistical.

A figure, sweep or validation run shares one `Run` across its points.  The
run's workers live as long as the run, and chunk i of every point goes to
worker i mod W, so each worker sees the same chunks of a geometry again.
A worker keeps one geometry, keyed by (seed, N, M, K, d1, d2, alpha), and
per chunk (t0, count) three things that ignore rho, split and r_th: the
sampled gains, their row statistics (`selection.row_stats`: the per-row
maxima and argmaxes that every kernel but random reads), and the chosen
gains of every policy whose choice reads only those (`Policy.gains_only`).
A later point on that geometry reruns only the exhaustive searches, from
the cached row statistics, and the rate formulas.  A reused array is the
array a fresh draw or selection would have produced, and it meets the same
rate formulas and the same reduction, so no bit of any report moves.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .channel import FadingConfig, largest_gain, sample_channel_batch
from .rates import (PowerSplit, cr_rates, fnoma_pair_rates, jain_fairness, oma_pair_rates,
                    qos_epsilon)
from .selection import POLICIES, row_stats

_CHUNK = 16384
ASYMPTOTIC_MIN_RHO = 1e8  # below this the high-SNR closed forms are not claimed


class ConfigurationError(ValueError):
    """Invalid scenario, axis, or file input (CLI exit code 1).

    `keys` are the scenario keys whose values the message names, if any; a
    scenario file reports the line of the first one it sets.
    """

    def __init__(self, message, keys=()):
        super().__init__(message)
        self.keys = keys


@dataclass(frozen=True)
class Scenario:
    """One fully specified simulation: fading statistics, access mode,
    selection policy, policy parameters, trial count and seed."""

    fading: FadingConfig
    mode: str
    policy: str
    split: PowerSplit | None = None
    r_th: float | None = None
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if (self.mode, self.policy) not in POLICIES:
            raise ConfigurationError(f"(mode, policy) = {(self.mode, self.policy)} is "
                                     f"not one of {list(POLICIES)}")
        if self.mode == "fnoma":
            if self.split is None:
                raise ConfigurationError("fnoma scenarios need a power split (key b)")
            if not (self.split.b > 0 and self.split.a >= self.split.b):
                raise ConfigurationError(f"b = {self.split.b}: fnoma needs 0 < b <= 0.5",
                                         ("b",))
        if self.mode == "crnoma":
            if self.r_th is None:
                raise ConfigurationError("crnoma scenarios need a rate floor (key r_th)")
            with np.errstate(over="ignore"):
                eps = qos_epsilon(self.r_th) if self.r_th > 0 else 0.0
            if not 0 < eps < math.inf:
                raise ConfigurationError(f"r_th = {self.r_th}: crnoma needs 2**r_th - 1 "
                                         f"positive and finite", ("r_th",))
        if not isinstance(self.trials, numbers.Integral) or self.trials < 1:
            raise ConfigurationError(f"trials = {self.trials!r}: need an integer >= 1",
                                     ("trials",))
        if not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed < 2 ** 64:
            raise ConfigurationError(f"seed = {self.seed!r}: need an integer in [0, 2**64)",
                                     ("seed",))
        fading = self.fading
        try:
            omegas = (fading.omega_h, fading.omega_g)
        except OverflowError:
            omegas = (math.inf,)
        if not all(0 < w < math.inf for w in omegas):
            raise ConfigurationError(f"alpha = {fading.alpha}: path loss "
                                     f"d1**alpha or d2**alpha is out of float range",
                                     ("alpha",))
        try:
            rho = fading.rho
        except OverflowError:
            rho = math.inf
        if not 0 < rho < math.inf:
            keys = ("ps_dbm", "sigma2_dbm")  # the larger magnitude first
            raise ConfigurationError(
                f"ps_dbm = {fading.ps_dbm}, sigma2_dbm = {fading.sigma2_dbm}: the SNR "
                f"10**((ps_dbm - sigma2_dbm)/10) is out of float range",
                sorted(keys, key=lambda k: -abs(getattr(fading, k))))
        for key, d, omega in (("d1", fading.d1, omegas[0]), ("d2", fading.d2, omegas[1])):
            if not rho * largest_gain(omega) < math.inf:
                raise ConfigurationError(
                    f"{key} = {d}, alpha = {fading.alpha}: the largest gain a draw can "
                    f"give, {largest_gain(1.0):.6g} / {key}**alpha, times the SNR "
                    f"{rho:.6g} overflows", (key, "alpha"))


@dataclass(frozen=True)
class RateReport:
    """Averages over the trials of one (scenario, policy) point."""

    mean_r1: float
    mean_r2: float
    mean_sum: float
    mean_fairness: float
    std_err: dict
    trials_used: int
    mean_eval_count: float


# The selection of each (mode, policy), looked up here at call time: the
# benchmark's tracer (perfbench/trace.py) wraps entries of this dict.
_TRIPLES = {key: policy.select for key, policy in POLICIES.items()}


class _GeometryCache:
    """The chunks of one geometry that one worker has seen: their sampled
    gains, row statistics and the chosen gains of every `gains_only`
    policy."""

    def __init__(self):
        self.key = None
        self.chunks = {}  # (t0, count) -> (h, g, rows, {(mode, policy): (h_sel, g_sel)})

    def simulate(self, task):
        """Per-trial (r1, r2) arrays of each policy over one chunk of trials."""
        fading, mode, policies, split, r_th, seed, t0, count = task
        key = (seed, fading.n_bs, fading.m_ue1, fading.k_ue2,
               fading.d1, fading.d2, fading.alpha)
        if key != self.key:
            self.key, self.chunks = key, {}
        if (t0, count) not in self.chunks:
            h, g = sample_channel_batch(fading, seed, t0, count)
            self.chunks[t0, count] = h, g, row_stats(h, g), {}
        h, g, rows, chosen = self.chunks[t0, count]
        rho = fading.rho
        out = {}
        for policy in policies:
            gains = chosen.get((mode, policy))
            if gains is None:
                gains = _TRIPLES[mode, policy](h, g, rows=rows, rho=rho, split=split,
                                               r_th=r_th, seed=seed, t0=t0)
                if POLICIES[mode, policy].gains_only:
                    chosen[mode, policy] = gains
            h_sel, g_sel = gains
            if mode == "fnoma":
                out[policy] = fnoma_pair_rates(h_sel, g_sel, split, rho)
            elif mode == "oma":
                out[policy] = oma_pair_rates(h_sel, g_sel, rho)
            else:
                out[policy] = cr_rates(h_sel, g_sel, rho, r_th)
        return t0, out


_worker_cache = None  # set in each worker process only, when it starts


def _start_worker():
    global _worker_cache
    _worker_cache = _GeometryCache()


def _simulate_in_worker(task):
    return _worker_cache.simulate(task)


def _resolve_workers(workers):
    if workers is not None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        return workers
    env = os.environ.get("NOMA_SIM_WORKERS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ConfigurationError(
                f"NOMA_SIM_WORKERS must be a positive integer, got {env!r}") from None
        if value < 1:
            raise ConfigurationError(
                f"NOMA_SIM_WORKERS must be a positive integer, got {env!r}")
        return value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Run:
    """The workers of one figure, sweep or validation run.

    `workers` (None: NOMA_SIM_WORKERS, else the usable CPUs) is capped at
    the chunk count of the run's largest point, `max_trials`.  With one
    worker the chunks run in this process against the run's own cache;
    otherwise each worker is a one-process pool, started at the first
    point, and chunk i of every point goes to worker i mod W, so a worker
    sees the same chunks of each geometry again.  Use as a context manager.
    """

    def __init__(self, workers, max_trials):
        self.workers = min(_resolve_workers(workers), -(-max_trials // _CHUNK))
        self._cache = _GeometryCache() if self.workers == 1 else None
        self._pools = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for pool in self._pools:
            pool.shutdown(cancel_futures=True)
        self._pools = []

    def simulate(self, tasks):
        """The chunk results of `tasks`, in order, each dropped once consumed."""
        if self._cache is not None:
            for task in tasks:
                yield self._cache.simulate(task)
            return
        if not self._pools:
            self._pools = [ProcessPoolExecutor(max_workers=1, initializer=_start_worker)
                           for _ in range(self.workers)]
        futures = [self._pools[i % self.workers].submit(_simulate_in_worker, task)
                   for i, task in enumerate(tasks)]
        futures.reverse()
        while futures:
            yield futures.pop().result()


def _std_err(x):
    if x.size < 2:
        return 0.0
    return float(x.std(ddof=1) / math.sqrt(x.size))


def _make_report(r1, r2, eval_count):
    rsum = r1 + r2
    fair = jain_fairness(r1, r2)
    return RateReport(
        mean_r1=float(r1.mean()),
        mean_r2=float(r2.mean()),
        mean_sum=float(rsum.mean()),
        mean_fairness=float(fair.mean()),
        std_err={"r1": _std_err(r1), "r2": _std_err(r2),
                 "sum": _std_err(rsum), "fairness": _std_err(fair)},
        trials_used=int(r1.size),
        mean_eval_count=float(eval_count),
    )


def run_point(fading, mode, policies, trials, seed, split=None, r_th=None,
              workers=None):
    """Evaluate several policies on the same `trials` realizations.

    Returns {policy: RateReport}.  All policies share the channel draws, so
    cross-policy comparisons at one point are paired.  `workers` is a `Run`
    shared with other points, or a worker count for a run of this point only.
    """
    for policy in policies:
        Scenario(fading, mode, policy, split=split, r_th=r_th,
                 trials=trials, seed=seed)  # validates the combination
    tasks = [(fading, mode, tuple(policies), split, r_th, seed, t0,
              min(_CHUNK, trials - t0)) for t0 in range(0, trials, _CHUNK)]
    acc = {p: (np.empty(trials), np.empty(trials)) for p in policies}
    own = nullcontext(workers) if isinstance(workers, Run) else Run(workers, trials)
    with own as run:
        for t0, chunk_out in run.simulate(tasks):
            for policy, (r1, r2) in chunk_out.items():
                acc[policy][0][t0:t0 + r1.size] = r1
                acc[policy][1][t0:t0 + r2.size] = r2

    n, m, k = fading.n_bs, fading.m_ue1, fading.k_ue2
    return {p: _make_report(acc[p][0], acc[p][1], POLICIES[mode, p].count(n, m, k))
            for p in policies}


def run_trials(scn: Scenario, workers=None) -> RateReport:
    """Average instantaneous rates of one policy over scn.trials draws."""
    return run_point(scn.fading, scn.mode, (scn.policy,), scn.trials, scn.seed,
                     split=scn.split, r_th=scn.r_th, workers=workers)[scn.policy]


# ---------------------------------------------------------------------------
# parameter sweeps

_SWEEP_AXES = ("ps_dbm", "n_bs", "d1", "d2", "b", "r_th")


def apply_axis(scn: Scenario, axis: str, value) -> Scenario:
    """Scenario with one swept parameter replaced."""
    if axis in ("ps_dbm", "d1", "d2"):
        return replace(scn, fading=replace(scn.fading, **{axis: float(value)}))
    if axis == "n_bs":
        if int(value) != value:
            raise ConfigurationError(f"n_bs must be an integer, got {value}")
        return replace(scn, fading=replace(scn.fading, n_bs=int(value)))
    if axis == "b":
        if scn.mode != "fnoma":
            raise ConfigurationError("axis b applies to fnoma scenarios only")
        return replace(scn, split=PowerSplit.from_b(float(value)))
    if axis == "r_th":
        if scn.mode != "crnoma":
            raise ConfigurationError("axis r_th applies to crnoma scenarios only")
        return replace(scn, r_th=float(value))
    raise ConfigurationError(f"unknown sweep axis {axis!r} (choose from {_SWEEP_AXES})")


def sweep(base: Scenario, axis: str, values, workers=None):
    """One report per swept value, same seed at every point so the whole
    curve rides on common random numbers."""
    points = [apply_axis(base, axis, v) for v in values]
    with Run(workers, base.trials) as run:
        return [(v, run_trials(p, workers=run)) for v, p in zip(values, points)]


# ---------------------------------------------------------------------------
# closed-form vs Monte Carlo validation


@dataclass(frozen=True)
class ValidationPoint:
    scenario: Scenario
    tolerance: float  # relative gap allowed

    def __post_init__(self):
        scn = self.scenario
        if POLICIES[scn.mode, scn.policy].closed_form is None:
            raise ConfigurationError(
                f"no closed form for policy {scn.policy!r} in mode {scn.mode!r}")


@dataclass(frozen=True)
class ValidationResult:
    """One point's closed form against its Monte Carlo estimate.

    std_err is the estimate's standard error and sigma_gap the gap
    |closed_form - monte_carlo| in units of it: a gap of a few sigma is
    sampling noise, a gap of hundreds a wrong formula or a bias the
    tolerance does not cover.
    """

    scenario: Scenario
    closed_form: float
    monte_carlo: float
    rel_gap: float
    tolerance: float
    status: str  # "pass" | "fail" | "not-applicable"
    std_err: float
    sigma_gap: float


def validate_asymptotics(points, workers=None):
    """Relative gap between each point's closed form and its Monte Carlo
    estimate, judged against the point's tolerance.

    Points whose SNR sits below the asymptotic validity domain are reported
    with their (typically large) gap but flagged not-applicable rather than
    failed.
    """
    results = []
    with Run(workers, max((p.scenario.trials for p in points), default=1)) as run:
        for point in points:
            scn = point.scenario
            policy = POLICIES[scn.mode, scn.policy]
            closed = policy.closed_form(scn.fading, scn.split, scn.r_th)
            report = run_trials(scn, workers=run)
            mc = getattr(report, policy.metric)
            se = report.std_err[policy.metric.removeprefix("mean_")]
            gap = abs(closed - mc) / abs(mc) if mc != 0 else math.inf
            if scn.fading.rho < ASYMPTOTIC_MIN_RHO:
                status = "not-applicable"
            elif gap <= point.tolerance:
                status = "pass"
            else:
                status = "fail"
            sigmas = abs(closed - mc) / se if se > 0 else (0.0 if closed == mc else math.inf)
            results.append(ValidationResult(scn, closed, mc, gap, point.tolerance, status,
                                            se, sigmas))
    return results


# ---------------------------------------------------------------------------
# scenario files: `key = value` lines, keys matching the scenario fields
# (fading parameters flattened; `b` sets the fnoma power split)

_FADING_INT_KEYS = ("n_bs", "m_ue1", "k_ue2")
_FADING_FLOAT_KEYS = ("d1", "d2", "alpha", "ps_dbm", "sigma2_dbm")


def _parse_kv_lines(lines, path, start_line=0):
    """{key: (value, "path:line")} for the `key = value` lines."""
    kv = {}
    for offset, raw in enumerate(lines):
        where = f"{path}:{start_line + offset + 1}"
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{where}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in kv:
            raise ConfigurationError(f"{where}: duplicate key {key!r}")
        kv[key] = (value.strip(), where)
    return kv


def _scenario_from_mapping(kv: dict, path, allow_tolerance=False):
    lines = {key: where for key, (_, where) in kv.items()}
    kv = dict(kv)

    def take(key, parse, default=None):
        if key not in kv:
            return default
        value, where = kv.pop(key)
        try:
            return parse(value)
        except ValueError:
            raise ConfigurationError(
                f"{where}: {key} = {value!r} is not a valid {parse.__name__}") from None

    tolerance = take("tolerance", float) if allow_tolerance else None
    fading_kwargs = {key: take(key, int) for key in _FADING_INT_KEYS if key in kv}
    fading_kwargs.update({key: take(key, float) for key in _FADING_FLOAT_KEYS if key in kv})
    for key in ("mode", "policy"):
        if key not in kv:
            raise ConfigurationError(f"{path}: missing required key {key!r}")
    mode, policy = take("mode", str), take("policy", str)
    b, r_th = take("b", float), take("r_th", float)
    trials, seed = take("trials", int, 100_000), take("seed", int, 0)
    if kv:
        raise ConfigurationError(f"{path}: unknown keys {sorted(kv)}")
    try:
        split = None if b is None else PowerSplit.from_b(b)
        scn = Scenario(FadingConfig(**fading_kwargs), mode, policy,
                       split=split, r_th=r_th, trials=trials, seed=seed)
    except ConfigurationError as exc:
        where = next((lines[k] for k in exc.keys if k in lines), path)
        raise ConfigurationError(f"{where}: {exc}", exc.keys) from None
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    return scn, tolerance


def load_scenario(path) -> Scenario:
    """Parse one scenario from a key/value text file."""
    with open(path, encoding="utf-8") as f:
        kv = _parse_kv_lines(f.readlines(), path)
    scn, _ = _scenario_from_mapping(kv, path)
    return scn


def load_validation_grid(path):
    """Parse a validation grid: scenario blocks separated by blank lines,
    each optionally carrying its own relative `tolerance` (default 2%)."""
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    blocks = []
    current = []
    current_start = 0
    for idx, raw in enumerate(lines):
        if raw.split("#", 1)[0].strip():
            if not current:
                current_start = idx
            current.append(raw)
        elif current:
            blocks.append((current_start, current))
            current = []
    if current:
        blocks.append((current_start, current))
    if not blocks:
        raise ConfigurationError(f"{path}: no scenario blocks found")
    points = []
    for start, block in blocks:
        kv = _parse_kv_lines(block, path, start_line=start)
        scn, tol = _scenario_from_mapping(kv, path, allow_tolerance=True)
        try:
            points.append(ValidationPoint(scn, 0.02 if tol is None else tol))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}:{start + 1}: {exc}") from None
    return points
