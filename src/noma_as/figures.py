"""Figure-reproduction sweeps: fixed parameter grids per figure id, one CSV
per figure with the sweep axis in the first column.

A figure is a sweep: each of its column groups is a base `Scenario`, and
`harness.sweep_run` builds every group's point at each x with `apply_axis`,
the rule `noma-as sweep` varies a point by, and runs them all as one `Run`.

The source material tabulates no y-values, so the grids here only pin the
x-axes and scenario constants; downstream checks rest on orderings,
monotonicity, flatness and crossings of the emitted curves.  Simulated and
closed-form curves carry `_sim` / `_analytic` suffixes where both exist.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from dataclasses import replace

# The figures call neither run_point nor the closed forms by these names;
# they stay bound here because the benchmark's tracer (perfbench/trace.py)
# wraps them on this module too.
from .analytics import (a3_avg_sum_rate, aia_avg_sum_rate,  # noqa: F401
                        mcg_avg_secondary_rate, pu_avg_secondary_rate,
                        su_avg_secondary_rate)
from .channel import FadingConfig
from .harness import ConfigurationError, Scenario, run_point, sweep_run  # noqa: F401
from .selection import METRIC, POLICIES

_PS_GRID = tuple(range(0, 45, 5))
_B_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)
_D1_GRID = (50.0, 80.0, 100.0, 150.0, 175.0, 200.0, 225.0, 250.0, 300.0, 350.0, 400.0)
_D2_GRID = tuple(float(d) for d in range(100, 425, 50))
_N_GRID = tuple(range(1, 9))
_RTH_GRID = tuple(float(r) for r in range(1, 9))


def _base(mode, fading, b=None, r_th=None):
    """A column group's base: every policy of the mode, reading the metric
    its columns show."""
    policies = tuple(p for m, p in POLICIES if m == mode)
    return Scenario(fading, mode, policies, b=b, r_th=r_th, reads=(METRIC[mode],))


def _columns(base, point, reports):
    """One column per policy, or a `_sim`/`_analytic` pair where the policy
    has a closed form; a base that reads only the mean Jain fairness
    (figure 5) has one `jain_` column per policy."""
    if base.reads == ("mean_fairness",):
        return {f"jain_{name}": reports[name].mean_fairness for name in point.policies}
    cols = {}
    for name in point.policies:
        policy = POLICIES[point.mode, name]
        value = getattr(reports[name], METRIC[point.mode])
        if policy.closed_form is None:
            cols[policy.column] = value
        else:
            cols[f"{policy.column}_sim"] = value
            cols[f"{policy.column}_analytic"] = policy.closed_form(point.fading, point.r_th)
    return cols


def _with_oma(fading):
    """Column groups of fnoma at b = 0.4 and of oma, unsuffixed, on the
    same draws."""
    return [("", _base("fnoma", fading, b=0.4)), ("", _base("oma", fading))]


# UE1 nearer the BS, then UE2 nearer, told apart by column-name suffixes
_TWO_PLACEMENTS = [(suffix, _base("crnoma", FadingConfig(n_bs=4, d1=d1, d2=d2, ps_dbm=20.0),
                                  r_th=5.0))
                   for suffix, d1, d2 in (("_ue1near", 80.0, 200.0), ("_ue2near", 200.0, 80.0))]

# figure id -> (axis, grid, [(suffix, base)]): each base is swept over the
# grid on shared draws, and its columns are named with its suffix
_FIGURES = {
    1: ("ps_dbm", _PS_GRID, _with_oma(FadingConfig(n_bs=2))),
    2: ("n_bs", _N_GRID, _with_oma(FadingConfig(ps_dbm=10.0))),
    3: ("d2", _D2_GRID, _with_oma(FadingConfig(n_bs=2, ps_dbm=10.0))),
    4: ("b", _B_GRID, [("", _base("fnoma", FadingConfig(n_bs=2, ps_dbm=10.0), b=0.4))]),
    5: ("b", _B_GRID, [("", Scenario(FadingConfig(n_bs=4, ps_dbm=20.0), "fnoma", ("a3", "aia"),
                                     b=0.4, reads=("mean_fairness",)))]),
    6: ("d1", _D1_GRID, [("", _base("crnoma", FadingConfig(n_bs=4, ps_dbm=20.0), r_th=5.0))]),
    7: ("ps_dbm", _PS_GRID, _TWO_PLACEMENTS),
    8: ("r_th", _RTH_GRID, _TWO_PLACEMENTS),
}


def _figure_run(figure_id: int, trials: int, seed: int, workers):
    """(axis name, a generator of (x, {column: value})) of one figure id:
    its points are checked as one `Run` when called, and run when the
    generator is first read."""
    if figure_id not in _FIGURES:
        raise ConfigurationError(f"figure id must be in 1..8, got {figure_id}")
    axis, grid, groups = _FIGURES[figure_id]
    swept = sweep_run([replace(base, trials=trials, seed=seed) for _, base in groups],
                      axis, grid, workers)
    return axis, ((x, {f"{name}{suffix}": value
                       for (suffix, base), (point, reports) in zip(groups, points)
                       for name, value in _columns(base, point, reports).items()})
                  for x, points in swept)


def figure_rows(figure_id: int, trials: int, seed: int, workers=None):
    """(axis name, [(x, {column: value})]) for one figure id; all its points
    share one `Run`."""
    axis, rows = _figure_run(figure_id, trials, seed, workers)
    return axis, list(rows)


def _fmt(v) -> str:
    return format(float(v), ".17g")


@contextmanager
def open_csv(path):
    """A text file for `write_csv` (UTF-8, LF line endings) whose rows
    replace `path` when the block ends.  Entering refuses a path that
    `open(path, "w")` refuses, with that error, and leaves the target as it
    was.  The rows go to a new file beside the target, created as that open
    creates a file (mode 0o666 less the umask), which replaces the target
    at the end; on any exception, KeyboardInterrupt included, the new file
    is removed instead.  An existing target that is not a regular file (a
    directory, /dev/null, a pipe) is opened with `open(path, "w")`."""
    path = os.fspath(path)
    existed = os.path.exists(path)
    if existed and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as f:
            yield f
        return
    # refused as open(path, "w") refuses it, but neither truncated nor left
    os.close(os.open(path, os.O_WRONLY | os.O_CREAT))
    target = os.path.realpath(path)  # a symlink stays and its file is replaced
    if not existed:
        os.unlink(target)
    for serial in itertools.count():
        tmp = f"{target}.{os.getpid()}-{serial}.tmp"
        try:
            f = open(tmp, "x", encoding="utf-8", newline="")
            break
        except FileExistsError:
            continue
    try:
        with f:
            yield f
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(f, header, rows):
    """Comma-separated rows of 17 significant digits, written to the text
    file f."""
    f.write(",".join(header) + "\n")
    for row in rows:
        f.write(",".join(_fmt(v) for v in row) + "\n")


def reproduce_figure(figure_id: int, trials: int, seed: int, out_path,
                     workers=None):
    """Run one figure's full sweep and write its CSV; returns (axis name,
    [(x, {column: value})]).  The output is opened (`open_csv`) once the
    figure's points are checked and before the rows are first read, which
    runs every trial, so a path that cannot be written fails first, and a
    run that fails leaves the file as it was."""
    axis, rows = _figure_run(figure_id, trials, seed, workers)
    with open_csv(out_path) as f:
        rows = list(rows)
        columns = list(rows[0][1].keys())
        write_csv(f, [axis] + columns, [[x] + [cols[c] for c in columns] for x, cols in rows])
    return axis, rows
