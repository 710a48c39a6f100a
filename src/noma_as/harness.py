"""Monte Carlo experiment engine: scenarios, trial averaging, sweeps, and
closed-form-vs-simulation validation.

Reproducibility: trial t of a scenario draws its channels from the (seed,
t) substream, so policies at the same (seed, trials) point see the same
realizations and compare per realization.  A point's trials split into
leaves (`_leaves`) along the tree of numpy's pairwise sum.  Whoever
simulates a leaf reduces it to the sum and the M2 (sum of squared
deviations about the leaf mean) of each mean its point reads; the parent
merges the leaves along the same tree (`_merged`): sums left + right, M2 by
the pairwise update of Chan, Golub and LeVeque (1979).  So every mean has
the bits of `np.add.reduce` over the whole per-trial array, for any worker
count, and no per-trial array leaves the worker.

A point names the `RateReport` means it reads (`Point.reads`), and a leaf
computes only those, each reduced on its own.  Where a point reads only the
metric an exhaustive search among its policies maximizes, the search's
row-max candidates (`Policy.optimum`) are the per-trial values: the search
reports their optimum and a row-max policy (`Policy.row`) the candidate of
its row, bit for bit the rate formula at their gains, which neither meets.

A figure, sweep or validation builds one `Run` from all its points and
groups them by what their draws depend on: the user antenna counts M and K,
the trial count and the seed.  The draws of N BS antennas are the first
N*(M+K) of any larger N's, so N is not part of the key.  One task
(`_simulate_leaf`) is one leaf of one such shape group.  It runs each
geometry (N, d1, d2, alpha) of the group in turn, largest N first.  A task
of more than one geometry computes the leaf's unit-rate exponentials once,
for its largest N (`channel._unit_draws`), and passes them to the sampler
of every geometry, which rescales them or a prefix of them.  A task holds
its draws and one geometry's arrays at a time (`_simulate_geometry`): that
geometry's gains, their row maxima (`selection.row_stats`) and each choice
that does not read rho, b or r_th (`Policy.depends`), made once with its
gains; random's reads only N and the shape group and is drawn once per
leaf and N.  Then each point of the geometry runs its searches, rate
formulas and reduction on the arrays a fresh draw and selection would have
produced, so no bit of any report moves.
"""

from __future__ import annotations

import io
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import channel
from .channel import ConfigurationError, FadingConfig, _is_int, sample_channel_batch
from .rates import _jain, cr_rates, fnoma_pair_rates, oma_pair_rates, qos_epsilon
from .selection import POLICIES, row_stats

# Largest leaf.  numpy's pairwise sum splits only above 128, so >= 128.  A
# task holds a leaf's draws for its group's largest N and one geometry's
# arrays at a time, which sets a worker's peak memory.
_CHUNK = 8192
# Most bytes of unit draws a leaf may hold, N*(M+K)*_CHUNK*8: N*(M+K) <= 4096.
_LEAF_DRAW_BYTES = 2 ** 28
# Most trials of one scenario: 131072 leaves, which `Run.__enter__` lists in
# 0.1 s on a 2-CPU virtual machine; `Run.__init__` only counts them.
_MAX_TRIALS = 2 ** 30
ASYMPTOTIC_MIN_RHO = 1e8  # below this the high-SNR closed forms are not claimed


@dataclass(frozen=True)
class Scenario:
    """One fully specified simulation: fading statistics, access mode,
    selection policy, policy parameters (the fnoma power split b, the strong
    user's share, and the crnoma rate floor r_th), trial count and seed.
    The fading checks its own values when built; a scenario checks what it
    adds."""

    fading: FadingConfig
    mode: str
    policy: str
    b: float | None = None
    r_th: float | None = None
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if (self.mode, self.policy) not in POLICIES:
            raise ConfigurationError(f"(mode, policy) = {(self.mode, self.policy)} is "
                                     f"not one of {list(POLICIES)}")
        if self.b is not None and not 0.0 <= self.b <= 1.0:
            raise ConfigurationError(f"b = {self.b}: need 0 <= b <= 1", ("b",))
        if self.mode == "fnoma":
            if self.b is None:
                raise ConfigurationError("fnoma scenarios need a power split (key b)")
            if not 0.0 < self.b <= 0.5:
                raise ConfigurationError(f"b = {self.b}: fnoma needs 0 < b <= 0.5", ("b",))
        if self.mode == "crnoma":
            if self.r_th is None:
                raise ConfigurationError("crnoma scenarios need a rate floor (key r_th)")
            with np.errstate(over="ignore"):
                eps = qos_epsilon(self.r_th) if self.r_th > 0 else 0.0
            if not 0 < eps < math.inf:
                raise ConfigurationError(f"r_th = {self.r_th}: crnoma needs 2**r_th - 1 "
                                         f"positive and finite", ("r_th",))
        if not _is_int(self.trials) or not 1 <= self.trials <= _MAX_TRIALS:
            raise ConfigurationError(f"trials = {self.trials!r}: need an integer in "
                                     f"[1, {_MAX_TRIALS}]", ("trials",))
        if not _is_int(self.seed) or not 0 <= self.seed < 2 ** 64:
            raise ConfigurationError(f"seed = {self.seed!r}: need an integer in [0, 2**64)",
                                     ("seed",))
        n, m, k = self.fading.n_bs, self.fading.m_ue1, self.fading.k_ue2
        if n * (m + k) * _CHUNK * 8 > _LEAF_DRAW_BYTES:
            raise ConfigurationError(
                f"n_bs = {n}, m_ue1 = {m}, k_ue2 = {k}: {n * (m + k)} draws per trial, "
                f"above the {_LEAF_DRAW_BYTES // (_CHUNK * 8)} whose {_CHUNK}-trial leaf "
                f"fits in {_LEAF_DRAW_BYTES >> 20} MiB", ("n_bs", "m_ue1", "k_ue2"))


@dataclass(frozen=True)
class RateReport:
    """Averages over the trials of one (scenario, policy) point.

    A mean its point does not read (`Point.reads`) is None, and its key is
    absent from std_err.
    """

    mean_r1: float | None
    mean_r2: float | None
    mean_sum: float | None
    mean_fairness: float | None
    std_err: dict
    trials_used: int
    mean_eval_count: float


# The means a RateReport can carry: of r1, r2, r1 + r2 and the Jain fairness.
QUANTITIES = ("mean_r1", "mean_r2", "mean_sum", "mean_fairness")


# The choice of each (mode, policy) (`Policy.choose`), looked up here at
# call time.  The benchmark's tracer (perfbench/trace.py) wraps entries of
# this dict.
_TRIPLES = {key: policy.choose for key, policy in POLICIES.items()}


class Point(NamedTuple):
    """The arguments of one `run_point` call, which a `Run` is built from.

    reads names the `RateReport` means the caller reads, from `QUANTITIES`;
    only those are computed and reduced.
    """

    fading: FadingConfig
    mode: str
    policies: tuple
    trials: int
    seed: int
    b: float | None = None
    r_th: float | None = None
    reads: tuple = QUANTITIES


def _point(scn: Scenario, reads=QUANTITIES) -> Point:
    return Point(scn.fading, scn.mode, (scn.policy,), scn.trials, scn.seed, scn.b, scn.r_th,
                 reads)


def _simulate_leaf(task):
    """Moments of one leaf of one shape group (see the module docstring),
    per point of the group in the task's order: `_make_report` of each
    policy stacked on axis 1, so moments[0] are the sums and moments[1] the
    M2."""
    seed, t0, count, geometries = task
    first = geometries[0][0]  # the largest N, whose unit draws every geometry shares
    draws = (channel._unit_draws(seed, first.n_bs * (first.m_ue1 + first.k_ue2), t0, count)
             if len(geometries) > 1 else None)
    drawn = {}  # (mode, policy, N) -> its "shape" choice
    return [moments for geometry, points in geometries
            for moments in _simulate_geometry(geometry, points, seed, t0, count, draws, drawn)]


def _simulate_geometry(geometry, points, seed, t0, count, draws, drawn):
    """Moments of each point of one geometry of a leaf.  The geometry's
    gains, row maxima and choices live for this call only, so they are
    freed before the next geometry is sampled."""
    h, g = sample_channel_batch(geometry, seed, t0, count, draws=draws)
    rows, chosen = row_stats(h, g), {}
    return [_simulate_point(h, g, rows, point, seed, t0, chosen, drawn) for point in points]


def _simulate_point(h, g, rows, point, seed, t0, chosen, drawn):
    """`_make_report` of each policy of one point, stacked on axis 1, from
    the gains of its geometry and their row maxima.  `drawn` keeps the
    leaf's "shape" choices, `chosen` the geometry's other choices that do
    not read the point, each with its gains once taken."""
    mode, reads = point.mode, point.reads
    kwargs = dict(rows=rows, rho=point.fading.rho, b=point.b, r_th=point.r_th,
                  seed=seed, t0=t0)
    policies = [POLICIES[mode, name] for name in point.policies]
    search = next((p for p in policies if p.optimum and reads == (p.metric,)), None)
    if search is not None:
        candidates, top = search.optimum(h, g, **kwargs)
    reports = []
    for name, policy in zip(point.policies, policies):
        key = mode, name
        if policy is search:
            reports.append(_make_report(top, None, reads))
            continue
        made = chosen.get(key)
        if made is None:
            shape = *key, h.shape[1]
            if policy.depends == "shape" and shape not in drawn:
                drawn[shape] = _TRIPLES[key](h, g, **kwargs)
            made = [drawn[shape] if policy.depends == "shape"
                    else _TRIPLES[key](h, g, **kwargs), None]
            if policy.depends != "point":
                chosen[key] = made
        choice, gains = made
        if search is not None and policy.row:
            reports.append(_make_report(np.take(candidates, choice), None, reads))
            continue
        if gains is None:
            gains = made[1] = policy.gains(choice, h, g, rows)
        h_sel, g_sel = gains
        if mode == "fnoma":
            r1, r2 = fnoma_pair_rates(h_sel, g_sel, point.b, point.fading.rho)
        elif mode == "oma":
            r1, r2 = oma_pair_rates(h_sel, g_sel, point.fading.rho)
        else:
            r1, r2 = cr_rates(h_sel, g_sel, point.fading.rho, point.r_th)
        reports.append(_make_report(r1, r2, reads))
    return np.stack(reports, axis=1)


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
            value = 0
        if value < 1:
            raise ConfigurationError(
                f"NOMA_SIM_WORKERS must be a positive integer, got {env!r}")
        return value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Run:
    """The simulation of every point of one figure, sweep or validation.

    `points` are the `Point`s that `run_point` will be asked for; each
    (point, policy) is checked as a `Scenario` here, before any work.
    Entering the run simulates every leaf of every shape group (see the
    module docstring).  `workers` (None: NOMA_SIM_WORKERS, else the usable
    CPUs) is capped at the leaf count of the largest point.  With one worker
    the tasks run in this process, one after another; otherwise on one
    process pool of that many workers.  Use as a context manager.
    """

    def __init__(self, workers, points):
        points = list(dict.fromkeys(points))
        for point in points:
            reads = point.reads
            if not reads or len(set(reads)) < len(reads) or not set(reads) <= set(QUANTITIES):
                raise ConfigurationError(f"reads = {reads!r}: need distinct names from "
                                         f"{QUANTITIES}")
            for policy in point.policies:
                Scenario(point.fading, point.mode, policy, b=point.b, r_th=point.r_th,
                         trials=point.trials, seed=point.seed)
        self.workers = min(_resolve_workers(workers),
                           max((_leaf_count(p.trials) for p in points), default=1))
        self._groups = {}  # (M, K, trials, seed) -> {geometry: [point, ...]}
        for point in sorted(points, key=lambda p: -p.fading.n_bs):
            fading = point.fading
            shape = (fading.m_ue1, fading.k_ue2, point.trials, point.seed)
            geometry = replace(fading, ps_dbm=0.0, sigma2_dbm=0.0)
            self._groups.setdefault(shape, {}).setdefault(geometry, []).append(point)
        self._leaf = {}  # point -> {t0: moments of that leaf}

    def __enter__(self):
        tasks = [(seed, t0, count, tuple((geometry, tuple(group))
                                         for geometry, group in geometries.items()))
                 for (*_, trials, seed), geometries in self._groups.items()
                 for t0, count in _leaves(0, trials)]
        if self.workers == 1:
            results = map(_simulate_leaf, tasks)
        else:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                results = list(pool.map(_simulate_leaf, tasks))
        for (_, t0, _, geometries), moments in zip(tasks, results):
            points = [point for _, group in geometries for point in group]
            for point, leaf in zip(points, moments, strict=True):
                self._leaf.setdefault(point, {})[t0] = leaf
        return self

    def __exit__(self, *exc):
        pass


def _half(n):
    """Size of the first part when numpy's pairwise sum splits n > 128 items."""
    return n // 2 - (n // 2) % 8


def _leaves(t0, n):
    """The (t0, count) leaves of trials t0 .. t0 + n - 1, in trial order: the
    pieces of numpy's pairwise-sum tree, split until at most `_CHUNK`."""
    if n <= _CHUNK:
        return [(t0, n)]
    half = _half(n)
    return _leaves(t0, half) + _leaves(t0 + half, n - half)


def _leaf_count(n):
    """len(_leaves(t0, n)), counted over the few sizes of each tree level."""
    @lru_cache(maxsize=None)
    def count(n):
        return 1 if n <= _CHUNK else count(_half(n)) + count(n - _half(n))
    return count(n)


def _merged(t0, n, leaf):
    """(sums, M2) of trials t0 .. t0 + n - 1, merged along the tree of
    `_leaves` from leaf[t0] = (sums, M2) of each leaf.

    Sums add left + right, as numpy's pairwise sum does; M2 merges by the
    pairwise update of Chan, Golub and LeVeque (1979).
    """
    if n <= _CHUNK:
        return leaf[t0]
    half = _half(n)
    (sa, qa), (sb, qb) = _merged(t0, half, leaf), _merged(t0 + half, n - half, leaf)
    delta = sb / (n - half) - sa / half
    return sa + sb, qa + qb + delta * delta * (half * (n - half) / n)


def _make_report(r1, r2, reads):
    """Moments of one leaf: row 0 the sums, row 1 the M2 about the leaf
    mean, of each quantity `reads` names (r1, r2, r1 + r2 or the Jain
    fairness of the rates r1 and r2), in its order.  With r2 None, r1 is
    already the per-trial value of the one quantity read, as a policy's
    `optimum` gives it."""
    if r2 is None:
        values = [r1]
    else:
        per_trial = {"mean_r1": r1, "mean_r2": r2}
        if "mean_sum" in reads or "mean_fairness" in reads:
            per_trial["mean_sum"] = both = r1 + r2
            if "mean_fairness" in reads:
                per_trial["mean_fairness"] = _jain(r1, r2, both)
        values = [per_trial[q] for q in reads]
    out = np.empty((2, len(values)))
    for i, x in enumerate(values):
        total = np.add.reduce(x)
        dev = np.subtract(x, total / x.size)
        out[:, i] = total, np.add.reduce(np.multiply(dev, dev, out=dev))
    return out


def _report(trials, sums, m2, eval_count, reads):
    mean = dict(zip(reads, map(float, sums / trials)))
    se = np.sqrt(m2 / (trials - 1)) / math.sqrt(trials) if trials > 1 else np.zeros(len(reads))
    return RateReport(
        **{q: mean.get(q) for q in QUANTITIES},
        std_err={q.removeprefix("mean_"): float(v) for q, v in zip(reads, se)},
        trials_used=trials,
        mean_eval_count=float(eval_count),
    )


def run_point(fading, mode, policies, trials, seed, b=None, r_th=None,
              reads=QUANTITIES, workers=None):
    """Evaluate several policies on the same `trials` realizations.

    Returns {policy: RateReport}.  All policies share the channel draws, so
    cross-policy comparisons at one point are paired.  `reads` names the
    means computed (see `Point`).  `workers` is a `Run` built with this
    point among others, or a worker count for a run of this point only.
    """
    point = Point(fading, mode, tuple(policies), trials, seed, b, r_th, tuple(reads))
    own = nullcontext(workers) if isinstance(workers, Run) else Run(workers, [point])
    with own as run:
        leaf = run._leaf.get(point)
        if leaf is None:
            raise ValueError(f"{point} is not a point of this run")
        sums, m2 = _merged(0, trials, leaf)
    n, m, k = fading.n_bs, fading.m_ue1, fading.k_ue2
    return {p: _report(trials, sums[i], m2[i], POLICIES[mode, p].count(n, m, k), point.reads)
            for i, p in enumerate(policies)}


def run_trials(scn: Scenario, workers=None) -> RateReport:
    """Average instantaneous rates of one policy over scn.trials draws."""
    return run_point(*_point(scn), workers=workers)[scn.policy]


# ---------------------------------------------------------------------------
# parameter sweeps

_SWEEP_AXES = ("ps_dbm", "n_bs", "d1", "d2", "b", "r_th")


def apply_axis(scn: Scenario, axis: str, value) -> Scenario:
    """Scenario with one swept parameter replaced."""
    if axis in ("ps_dbm", "d1", "d2"):
        return replace(scn, fading=replace(scn.fading, **{axis: float(value)}))
    if axis == "n_bs":
        if not (math.isfinite(value) and int(value) == value):
            raise ConfigurationError(f"n_bs must be an integer, got {value}", ("n_bs",))
        return replace(scn, fading=replace(scn.fading, n_bs=int(value)))
    if axis == "b":
        if scn.mode != "fnoma":
            raise ConfigurationError("axis b applies to fnoma scenarios only")
        return replace(scn, b=float(value))
    if axis == "r_th":
        if scn.mode != "crnoma":
            raise ConfigurationError("axis r_th applies to crnoma scenarios only")
        return replace(scn, r_th=float(value))
    raise ConfigurationError(f"unknown sweep axis {axis!r} (choose from {_SWEEP_AXES})")


def sweep(base: Scenario, axis: str, values, workers=None):
    """One report per swept value, same seed at every point so the whole
    curve rides on common random numbers."""
    return sweep_run(base, axis, values, workers)()


def sweep_run(base: Scenario, axis: str, values, workers=None):
    """`sweep`'s points, checked as one `Run`, and a function that runs
    them and returns the sweep's reports, so a caller can open its output
    in between."""
    points = [apply_axis(base, axis, v) for v in values]
    checked = Run(workers, map(_point, points))

    def reports():
        with checked as run:
            return [(v, run_trials(p, workers=run)) for v, p in zip(values, points)]
    return reports


# ---------------------------------------------------------------------------
# closed-form vs Monte Carlo validation


@dataclass(frozen=True)
class ValidationPoint:
    """A scenario whose closed form is checked against its simulation.

    The tolerance and the closed form are checked when the point is built,
    so a bad tolerance or a closed form that refuses the antenna counts
    fails before any point of a run starts.
    """

    scenario: Scenario
    tolerance: float  # relative gap allowed
    _closed_form: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ConfigurationError(f"tolerance = {self.tolerance}: need a finite "
                                     f"relative gap > 0", ("tolerance",))
        scn = self.scenario
        closed_form = POLICIES[scn.mode, scn.policy].closed_form
        if closed_form is None:
            raise ConfigurationError(
                f"no closed form for policy {scn.policy!r} in mode {scn.mode!r}")
        fading = scn.fading
        try:
            value = closed_form(fading, scn.r_th)
        except ValueError as exc:
            raise ConfigurationError(
                f"n_bs = {fading.n_bs}, m_ue1 = {fading.m_ue1}, k_ue2 = {fading.k_ue2}: "
                f"the {scn.policy} closed form refuses these antenna counts: {exc}",
                ("n_bs", "m_ue1", "k_ue2")) from None
        object.__setattr__(self, "_closed_form", value)


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
    simulated = [_point(p.scenario, (POLICIES[p.scenario.mode, p.scenario.policy].metric,))
                 for p in points]
    with Run(workers, simulated) as run:
        for point, sim in zip(points, simulated):
            scn = point.scenario
            policy = POLICIES[scn.mode, scn.policy]
            closed = point._closed_form
            report = run_point(*sim, workers=run)[scn.policy]
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
# (fading parameters flattened)

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
        scn = Scenario(FadingConfig(**fading_kwargs), mode, policy,
                       b=b, r_th=r_th, trials=trials, seed=seed)
    except ConfigurationError as exc:
        where = next((lines[k] for k in exc.keys if k in lines), path)
        raise ConfigurationError(f"{where}: {exc}", exc.keys) from None
    return scn, tolerance


def _read_lines(path):
    """The lines of a UTF-8 text file, newlines read as text mode reads
    them; an undecodable byte fails naming its path:line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigurationError(f"{path}:{line}: byte 0x{data[exc.start]:02x} is not "
                                 f"UTF-8 text ({exc.reason})") from None
    return io.StringIO(text, newline=None).readlines()


def load_scenario(path) -> Scenario:
    """Parse one scenario from a key/value text file."""
    kv = _parse_kv_lines(_read_lines(path), path)
    scn, _ = _scenario_from_mapping(kv, path)
    return scn


def load_validation_grid(path):
    """Parse a validation grid: scenario blocks separated by blank lines,
    each optionally carrying its own relative `tolerance` (default 2%)."""
    lines = _read_lines(path)
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
            where = kv["tolerance"][1] if "tolerance" in exc.keys else f"{path}:{start + 1}"
            raise ConfigurationError(f"{where}: {exc}", exc.keys) from None
    return points
