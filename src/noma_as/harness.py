"""Monte Carlo experiment engine: scenarios, trial averaging, sweeps, and
closed-form-vs-simulation validation.

Reproducibility: trial t of a scenario draws its channels from the (seed,
t) substream, so policies at the same (seed, trials) point see the same
realizations and compare per realization.  A point's trials split into
leaves (`_leaves`) along the tree of numpy's pairwise sum.  Whoever
simulates a leaf reduces it to the sum and the M2 (sum of squared
deviations about the leaf mean) of each mean its point reads; the parent
merges the leaves along the same tree as they arrive, in trial order
(`_merged`): sums left + right, M2 by the pairwise update of Chan, Golub and
LeVeque (1979).  So every mean has the bits of `np.add.reduce` over the
whole per-trial array, for any worker count, no per-trial array leaves the
worker, and the parent holds the moments of one leaf per tree level.  On W
workers at most 2W tasks are submitted and not yet read.

A point names the `RateReport` means it reads (`Scenario.reads`), and a leaf
computes only those, each reduced on its own.  Where a point reads only its
mode's metric (`selection.METRIC`), which its exhaustive search maximizes,
the search's row-max candidates (`Policy.optimum`) are the per-trial
values: the search reports their optimum and a row-max policy
(`Policy.row`) the candidate of its row, bit for bit the rate formula at
their gains, which neither meets.

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
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import channel
from .channel import (ConfigurationError, FadingConfig, _check, _is_int, _is_real,
                      sample_channel_batch)
from .rates import _jain, cr_rates, fnoma_pair_rates, oma_pair_rates, qos_epsilon
from .selection import METRIC, POLICIES, row_stats

# Largest leaf.  numpy's pairwise sum splits only above 128, so >= 128.  A
# task holds a leaf's draws for its group's largest N and one geometry's
# arrays at a time, which sets a worker's peak memory.
_CHUNK = 8192
# Most bytes of unit draws a leaf may hold, N*(M+K)*_CHUNK*8: N*(M+K) <= 4096.
_LEAF_DRAW_BYTES = 2 ** 28
# Most trials of one scenario: 131072 leaves, which `_leaves` yields one at
# a time as `Run._moments` makes its tasks; `Run.__init__` only counts them,
# up to the worker count.
_MAX_TRIALS = 2 ** 30
ASYMPTOTIC_MIN_RHO = 1e8  # below this the high-SNR closed forms are not claimed
# The means a RateReport can carry: of r1, r2, r1 + r2 and the Jain fairness.
QUANTITIES = ("mean_r1", "mean_r2", "mean_sum", "mean_fairness")


@dataclass(frozen=True)
class Scenario:
    """One fully specified simulated point: fading statistics, access mode,
    the selection policies run on its shared draws, trial count and seed,
    the one policy parameter its mode reads (fnoma's power split b, the
    strong user's share, or crnoma's rate floor r_th; the other is None, and
    oma reads neither) and the `RateReport` means its caller reads, from
    `QUANTITIES`; only those are computed and reduced.  Its fields are
    `run_point`'s parameters before `workers`.  The fading checks its own
    values when built; a scenario checks what it adds."""

    fading: FadingConfig
    mode: str
    policies: tuple
    trials: int = 100_000
    seed: int = 0
    b: float | None = None
    r_th: float | None = None
    reads: tuple = QUANTITIES

    def __post_init__(self):
        # a `Run` keys its points by value, a str would read as one name per
        # character, and a point computes each name it is given
        _check(self, (
            (("policies", "reads"), lambda v: isinstance(v, tuple) and v
             and all(isinstance(n, str) for n in v) and len(set(v)) == len(v),
             "need a tuple of one or more distinct names"),
            (("reads",), lambda v: set(v) <= set(QUANTITIES), f"need names from {QUANTITIES}")))
        for policy in self.policies:
            if (self.mode, policy) not in POLICIES:
                raise ConfigurationError(f"(mode, policy) = {(self.mode, policy)} is "
                                         f"not one of {list(POLICIES)}", ("policy", "mode"))
        # a mode reads b (fnoma) or r_th (crnoma), and only that mode sets it
        for key, mode, need in (("b", "fnoma", "a power split"),
                                ("r_th", "crnoma", "a rate floor")):
            value = getattr(self, key)
            if value is None and self.mode == mode:
                raise ConfigurationError(f"{mode} scenarios need {need} (key {key})", (key,))
            if value is not None and self.mode != mode:
                raise ConfigurationError(f"{key} = {value!r}: only {mode} scenarios read {key}",
                                         (key,))
        with np.errstate(over="ignore"):  # 2**r_th - 1 overflows to inf, which is refused
            _check(self, (
                (("b",) if self.mode == "fnoma" else (),
                 lambda v: _is_real(v) and 0.0 < v <= 0.5, "fnoma needs 0 < b <= 0.5"),
                (("r_th",) if self.mode == "crnoma" else (),
                 lambda v: _is_real(v) and 0 < qos_epsilon(v) < math.inf,
                 "crnoma needs 2**r_th - 1 positive and finite"),
                (("trials",), lambda v: _is_int(v) and 1 <= v <= _MAX_TRIALS,
                 f"need an integer in [1, {_MAX_TRIALS}]"),
                (("seed",), lambda v: _is_int(v) and 0 <= v < 2 ** 64,
                 "need an integer in [0, 2**64)")))
        n, m, k = self.fading.n_bs, self.fading.m_ue1, self.fading.k_ue2
        if n * (m + k) * _CHUNK * 8 > _LEAF_DRAW_BYTES:
            raise ConfigurationError(
                f"n_bs = {n}, m_ue1 = {m}, k_ue2 = {k}: {n * (m + k)} draws per trial, "
                f"above the {_LEAF_DRAW_BYTES // (_CHUNK * 8)} whose {_CHUNK}-trial leaf "
                f"fits in {_LEAF_DRAW_BYTES >> 20} MiB", ("n_bs", "m_ue1", "k_ue2"))


@dataclass(frozen=True)
class RateReport:
    """Averages over the trials of one (scenario, policy) point.

    A mean its point does not read (`Scenario.reads`) is None, and its key
    is absent from std_err.
    """

    mean_r1: float | None
    mean_r2: float | None
    mean_sum: float | None
    mean_fairness: float | None
    std_err: dict
    trials_used: int
    mean_eval_count: float


# The choice of each (mode, policy) (`Policy.choose`), looked up here at
# call time.  The benchmark's tracer (perfbench/trace.py) wraps entries of
# this dict.
_TRIPLES = {key: policy.choose for key, policy in POLICIES.items()}


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
    search = next((p for p in policies if p.optimum and reads == (METRIC[mode],)), None)
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
    """`workers`, else NOMA_SIM_WORKERS, else the usable CPUs; refuses a
    count that is not an integer from 1 to the usable CPUs."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    source = f"workers = {workers!r}"
    if workers is None:
        env = os.environ.get("NOMA_SIM_WORKERS")
        if env is None:
            return cpus
        source = f"NOMA_SIM_WORKERS = {env!r}"
        try:
            workers = int(env)
        except ValueError:
            workers = None
    if not _is_int(workers) or not 1 <= workers <= cpus:
        raise ConfigurationError(f"{source}: need an integer from 1 to {cpus}, the CPUs "
                                 f"this process may run on")
    return workers


def _in_order(pool, tasks, window):
    """`_simulate_leaf` of each task on `pool`, yielded in task order, with
    at most `window` tasks submitted and not yet read."""
    pending = []
    for task in tasks:
        pending.append(pool.submit(_simulate_leaf, task))
        if len(pending) == window:
            yield pending.pop(0).result()
    for future in pending:
        yield future.result()


class Run:
    """The simulation of every point of one figure, sweep or validation.

    `points` are the `Scenario`s that `run_point` will be asked for, each
    checked when it was built; building the run checks the worker count and
    plans the tasks, and runs none.  The first read of a point simulates
    every leaf of every shape group and merges each point's leaves as they
    arrive (see the module docstring); later reads run nothing.
    `workers` (None: NOMA_SIM_WORKERS, else the usable CPUs; at most the
    usable CPUs) is capped at the leaf count of the largest point.  With one
    worker the tasks run in this process, one after another; otherwise on
    one process pool of that many workers.
    """

    def __init__(self, workers, points):
        points = list(dict.fromkeys(points))
        cap = _resolve_workers(workers)
        self.workers = max((len(list(itertools.islice(_leaves(0, trials), cap)))
                            for trials in {p.trials for p in points}), default=1)
        groups = {}  # (M, K, trials, seed) -> {geometry: [point, ...]}
        for point in sorted(points, key=lambda p: -p.fading.n_bs):
            fading = point.fading
            shape = (fading.m_ue1, fading.k_ue2, point.trials, point.seed)
            geometry = replace(fading, ps_dbm=0.0, sigma2_dbm=0.0)
            groups.setdefault(shape, {}).setdefault(geometry, []).append(point)
        self._groups = [(trials, seed, tuple((geometry, tuple(group))
                                             for geometry, group in geometries.items()))
                        for (*_, trials, seed), geometries in groups.items()]

    @cached_property
    def _moments(self):
        """point -> (sums, M2) of all its trials, simulated on first read."""
        moments = {}
        tasks = ((seed, t0, count, geometries) for trials, seed, geometries in self._groups
                 for t0, count in _leaves(0, trials))
        with (nullcontext() if self.workers == 1
              else ProcessPoolExecutor(max_workers=self.workers)) as pool:
            results = (map(_simulate_leaf, tasks) if pool is None
                       else _in_order(pool, tasks, 2 * self.workers))
            for trials, _, geometries in self._groups:
                points = [point for _, group in geometries for point in group]
                moments.update(zip(points, _merged(trials, results), strict=True))
        return moments


def _half(n):
    """Size of the first part when numpy's pairwise sum splits n > 128 items."""
    return n // 2 - (n // 2) % 8


def _leaves(t0, n):
    """Yields the (t0, count) leaves of trials t0 .. t0 + n - 1, in trial
    order: the pieces of numpy's pairwise-sum tree, split until at most
    `_CHUNK`."""
    if n <= _CHUNK:
        yield t0, n
        return
    half = _half(n)
    yield from _leaves(t0, half)
    yield from _leaves(t0 + half, n - half)


def _merged(n, leaves):
    """(sums, M2) of each point of a shape group over its n trials, merged
    along the tree of `_leaves` from `leaves`, an iterator of each leaf's
    moments per point, in trial order (`_simulate_leaf`'s results).

    Sums add left + right, as numpy's pairwise sum does; M2 merges by the
    pairwise update of Chan, Golub and LeVeque (1979).
    """
    if n <= _CHUNK:
        return next(leaves)
    half = _half(n)
    merged = []
    for (sa, qa), (sb, qb) in zip(_merged(half, leaves), _merged(n - half, leaves)):
        delta = sb / (n - half) - sa / half
        merged.append((sa + sb, qa + qb + delta * delta * (half * (n - half) / n)))
    return merged


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
    cross-policy comparisons at one point are paired.  The other arguments
    are the fields of the point's `Scenario`, checked here.  `workers` is a
    `Run` built with this point among others, which simulates all its points
    on the first read of any, or a worker count for a run of this point
    only.
    """
    # a str is passed on whole, for the `Scenario` to refuse, not split into characters
    policies, reads = (v if isinstance(v, str) else tuple(v) for v in (policies, reads))
    point = Scenario(fading, mode, policies, trials, seed, b, r_th, reads)
    run = workers if isinstance(workers, Run) else Run(workers, [point])
    moments = run._moments.get(point)
    if moments is None:
        raise ValueError(f"{point} is not a point of this run")
    sums, m2 = moments
    n, m, k = fading.n_bs, fading.m_ue1, fading.k_ue2
    return {p: _report(trials, sums[i], m2[i], POLICIES[mode, p].count(n, m, k), point.reads)
            for i, p in enumerate(policies)}


# ---------------------------------------------------------------------------
# parameter sweeps

SWEEP_AXES = ("ps_dbm", "n_bs", "d1", "d2", "b", "r_th")


def apply_axis(scn: Scenario, axis: str, value) -> Scenario:
    """Scenario with one swept parameter replaced, an integral float n_bs as
    an int; the scenario and its fading check the value when built."""
    if axis not in SWEEP_AXES:
        raise ConfigurationError(f"unknown sweep axis {axis!r} (choose from {SWEEP_AXES})")
    if axis == "n_bs" and isinstance(value, float) and value.is_integer():
        value = int(value)
    if axis in ("b", "r_th"):
        return replace(scn, **{axis: value})
    return replace(scn, fading=replace(scn.fading, **{axis: value}))


def _policy(scn: Scenario) -> str:
    """The one policy of a swept or validated scenario."""
    if len(scn.policies) != 1:
        raise ConfigurationError(f"policies = {scn.policies!r}: need exactly one policy",
                                 ("policies",))
    return scn.policies[0]


def sweep(base: Scenario, axis: str, values, workers=None):
    """One report of its one policy per swept value, same seed at every
    point so the whole curve rides on common random numbers."""
    policy = _policy(base)
    return [(v, r[policy]) for v, [(_, r)] in sweep_run([base], axis, values, workers)]


def sweep_run(bases, axis: str, values, workers=None):
    """Each base `Scenario` at each swept value, built by `apply_axis` and
    checked as one `Run` when called, and a generator of (value, [(point,
    {policy: RateReport}) per base]) that runs them when first read, so a
    caller can open its output in between.  `sweep` is this of one base,
    and a figure (`figures`) of its column groups' bases."""
    plan = [(v, [apply_axis(base, axis, v) for base in bases]) for v in values]
    run = Run(workers, [point for _, points in plan for point in points])
    return ((v, [(p, run_point(**vars(p), workers=run)) for p in points]) for v, points in plan)


# ---------------------------------------------------------------------------
# closed-form vs Monte Carlo validation


@dataclass(frozen=True)
class ValidationPoint:
    """A scenario whose closed form is checked against its simulation.

    The scenario runs one policy.  Its tolerance and closed form are checked
    when the point is built, so a bad tolerance or a closed form that
    refuses the antenna counts fails before any point of a run starts.
    """

    scenario: Scenario
    tolerance: float  # relative gap allowed
    _closed_form: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check(self, ((("tolerance",), lambda v: _is_real(v) and 0 < v < math.inf,
                       "need a finite relative gap > 0"),))
        scn = self.scenario
        policy = _policy(scn)
        closed_form = POLICIES[scn.mode, policy].closed_form
        if closed_form is None:
            raise ConfigurationError(
                f"no closed form for policy {policy!r} in mode {scn.mode!r}")
        fading = scn.fading
        try:
            value = closed_form(fading, scn.r_th)
        except ValueError as exc:
            raise ConfigurationError(
                f"n_bs = {fading.n_bs}, m_ue1 = {fading.m_ue1}, k_ue2 = {fading.k_ue2}: "
                f"the {policy} closed form refuses these antenna counts: {exc}",
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
    scenarios = [p.scenario for p in points]
    simulated = [replace(s, reads=(METRIC[s.mode],)) for s in scenarios]
    run = Run(workers, simulated)
    for point, sim in zip(points, simulated):
        scn = point.scenario
        closed = point._closed_form
        (report,) = run_point(**vars(sim), workers=run).values()
        (metric,) = sim.reads
        mc = getattr(report, metric)
        se = report.std_err[metric.removeprefix("mean_")]
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
# scenario files and validation grids: `key = value` lines, keys matching the
# scenario fields (fading parameters flattened).  A scenario file is one block
# (`_blocks`' runs joined); a grid's blocks are split by blank or comment-only
# lines.  Every error of a file with a key line names a path:line.

# The keys a block may set, each with the parser of its value text: the
# `FadingConfig` fields, the `Scenario`'s with its one policy, and a grid
# block's tolerance.
_KEYS = {"n_bs": int, "m_ue1": int, "k_ue2": int, "d1": float, "d2": float, "alpha": float,
         "ps_dbm": float, "sigma2_dbm": float, "mode": str, "policy": str, "b": float,
         "r_th": float, "trials": int, "seed": int, "tolerance": float}


def _blocks(path):
    """The runs of lines of a UTF-8 text file that are neither blank nor
    comment-only, newlines read as text mode reads them and a leading
    byte-order mark dropped.  Each line is (its text before any '#',
    stripped; the line; "path:line").  An undecodable byte fails naming its
    path:line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object is data without its mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigurationError(f"{path}:{line}: byte 0x{exc.object[exc.start]:02x} is not "
                                 f"UTF-8 text ({exc.reason})") from None
    lines = [(raw.split("#", 1)[0].strip(), raw, f"{path}:{number}")
             for number, raw in enumerate(io.StringIO(text, newline=None).readlines(), 1)]
    return [list(run) for kept, run in itertools.groupby(lines, key=lambda line: line[0] != "")
            if kept]


def _scenario(block, path, grid=False):
    """The `Scenario` of one block of `_blocks`' lines, or with `grid` its
    `ValidationPoint`, whose `tolerance` key defaults to 2%.

    A block is read in one pass, and its first error, in this order, is the
    one raised: a line without '=' or a repeated key, in line order; keys
    not in `_KEYS` (`tolerance` outside a grid); a missing `mode`, then
    `policy`; a value its parser refuses, in line order; then the checks of
    `FadingConfig`, `Scenario` and `ValidationPoint`.  An error names the
    line of the first key it is about that the block sets, else the block's
    first line."""
    kv, lines = {}, {}  # key -> its value text, key -> its "path:line"
    for text, raw, where in block:
        if "=" not in text:
            raise ConfigurationError(f"{where}: expected 'key = value', got {raw!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key in kv:
            raise ConfigurationError(f"{where}: duplicate key {key!r}")
        kv[key], lines[key] = value.strip(), where
    first = block[0][2] if block else path
    unknown = [key for key in kv if key not in _KEYS or (key == "tolerance" and not grid)]
    if unknown:
        raise ConfigurationError(f"{lines[unknown[0]]}: unknown keys {sorted(unknown)}")
    for key in ("mode", "policy"):
        if key not in kv:
            raise ConfigurationError(f"{first}: missing required key {key!r}")
    values = {}
    for key, value in kv.items():
        try:
            values[key] = _KEYS[key](value)
        except ValueError:
            raise ConfigurationError(f"{lines[key]}: {key} = {value!r} is not a valid "
                                     f"{_KEYS[key].__name__}") from None
    mode, policy = values.pop("mode"), values.pop("policy")
    tolerance = values.pop("tolerance", 0.02)
    fading = {f.name: values.pop(f.name) for f in fields(FadingConfig) if f.name in values}
    try:
        scn = Scenario(FadingConfig(**fading), mode, (policy,), **values)
        return ValidationPoint(scn, tolerance) if grid else scn
    except ConfigurationError as exc:
        where = next((lines[k] for k in exc.keys if k in lines), first)
        raise ConfigurationError(f"{where}: {exc}", exc.keys) from None


def load_scenario(path) -> Scenario:
    """Parse one scenario from a key/value text file."""
    return _scenario([line for block in _blocks(path) for line in block], path)


def load_validation_grid(path):
    """Parse a validation grid: scenario blocks separated by blank or
    comment-only lines, each optionally carrying its own relative
    `tolerance` (default 2%)."""
    blocks = _blocks(path)
    if not blocks:
        raise ConfigurationError(f"{path}: no scenario blocks found")
    return [_scenario(block, path, grid=True) for block in blocks]
