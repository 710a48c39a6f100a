"""Figure-reproduction sweeps: fixed parameter grids per figure id, one CSV
per figure with the sweep axis in the first column.

The source material tabulates no y-values, so the grids here only pin the
x-axes and scenario constants; downstream checks rest on orderings,
monotonicity, flatness and crossings of the emitted curves.  Simulated and
closed-form curves carry `_sim` / `_analytic` suffixes where both exist.
"""

from __future__ import annotations

# The closed forms run through POLICIES; their names stay bound here because
# the benchmark's tracer (perfbench/trace.py) wraps them on this module too.
from .analytics import (a3_avg_sum_rate, aia_avg_sum_rate,  # noqa: F401
                        mcg_avg_secondary_rate, pu_avg_secondary_rate,
                        su_avg_secondary_rate)
from .channel import FadingConfig
from .harness import ConfigurationError, Run, Scenario, run_point
from .selection import POLICIES

_PS_GRID = tuple(range(0, 45, 5))
_B_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)
_D1_GRID = (50.0, 80.0, 100.0, 150.0, 175.0, 200.0, 225.0, 250.0, 300.0, 350.0, 400.0)
_D2_GRID = tuple(float(d) for d in range(100, 425, 50))
_N_GRID = tuple(range(1, 9))
_RTH_GRID = tuple(float(r) for r in range(1, 9))

FIGURE_IDS = tuple(range(1, 9))


def _point(entry, fading, b, r_th, trials, seed):
    """The `Scenario` of a column group's mode entry: every policy of the
    mode, reading the metric its columns show, or for "jain" (figure 5) the
    fnoma policies a3 and aia, reading their mean Jain fairness.  A group's
    b is its fnoma entry's only, as figures 1-3 run oma beside fnoma."""
    if entry == "jain":
        return Scenario(fading, "fnoma", ("a3", "aia"), trials, seed, b, r_th,
                        ("mean_fairness",))
    policies = tuple(p for m, p in POLICIES if m == entry)
    reads = tuple(dict.fromkeys(POLICIES[entry, p].metric for p in policies))
    return Scenario(fading, entry, policies, trials, seed, b if entry == "fnoma" else None,
                    r_th, reads)


def _columns(entry, point, reports):
    """One column per policy, or a `_sim`/`_analytic` pair where the policy
    has a closed form; "jain" columns hold the mean Jain fairness."""
    if entry == "jain":
        return {f"jain_{name}": reports[name].mean_fairness for name in point.policies}
    cols = {}
    for name in point.policies:
        policy = POLICIES[point.mode, name]
        value = getattr(reports[name], policy.metric)
        if policy.closed_form is None:
            cols[policy.column] = value
        else:
            cols[f"{policy.column}_sim"] = value
            cols[f"{policy.column}_analytic"] = policy.closed_form(point.fading, point.r_th)
    return cols


def _two_placements(ps_dbm, r_th):
    """Column groups with UE1 nearer the BS, then UE2 nearer, told apart by
    column-name suffixes."""
    return [(suffix, ("crnoma",), FadingConfig(n_bs=4, d1=d1, d2=d2, ps_dbm=ps_dbm), None, r_th)
            for suffix, d1, d2 in (("_ue1near", 80.0, 200.0), ("_ue2near", 200.0, 80.0))]


# figure id -> (axis, grid, x -> [(suffix, mode entries, fading, b, r_th)]):
# each column group runs every mode entry on shared draws and names its
# columns with the group's suffix
_FIGURES = {
    1: ("ps_dbm", _PS_GRID, lambda ps: [
        ("", ("fnoma", "oma"), FadingConfig(n_bs=2, ps_dbm=float(ps)), 0.4, None)]),
    2: ("n_bs", _N_GRID, lambda n: [
        ("", ("fnoma", "oma"), FadingConfig(n_bs=n, ps_dbm=10.0), 0.4, None)]),
    3: ("d2", _D2_GRID, lambda d2: [
        ("", ("fnoma", "oma"), FadingConfig(n_bs=2, d2=d2, ps_dbm=10.0), 0.4, None)]),
    4: ("b", _B_GRID, lambda b: [
        ("", ("fnoma",), FadingConfig(n_bs=2, ps_dbm=10.0), b, None)]),
    5: ("b", _B_GRID, lambda b: [
        ("", ("jain",), FadingConfig(n_bs=4, ps_dbm=20.0), b, None)]),
    6: ("d1", _D1_GRID, lambda d1: [
        ("", ("crnoma",), FadingConfig(n_bs=4, d1=d1, ps_dbm=20.0), None, 5.0)]),
    7: ("ps_dbm", _PS_GRID, lambda ps: _two_placements(float(ps), 5.0)),
    8: ("r_th", _RTH_GRID, lambda r_th: _two_placements(20.0, float(r_th))),
}


def _figure_run(figure_id: int, trials: int, seed: int, workers):
    """One figure id's points, checked as one `Run`, and a function that
    runs them and returns (axis name, [(x, {column: value})])."""
    if figure_id not in _FIGURES:
        raise ConfigurationError(f"figure id must be in 1..8, got {figure_id}")
    axis, grid, column_groups = _FIGURES[figure_id]
    plan = [(x, [(suffix, entry, _point(entry, fading, b, r_th, trials, seed))
                 for suffix, entries, fading, b, r_th in column_groups(x)
                 for entry in entries])
            for x in grid]
    checked = Run(workers, [point for _, groups in plan for _, _, point in groups])

    def rows():
        out = []
        with checked as run:
            for x, groups in plan:
                cols = {}
                for suffix, entry, point in groups:
                    reports = run_point(**vars(point), workers=run)
                    cols.update({f"{name}{suffix}": value
                                 for name, value in _columns(entry, point, reports).items()})
                out.append((x, cols))
        return axis, out
    return rows


def figure_rows(figure_id: int, trials: int, seed: int, workers=None):
    """(axis name, [(x, {column: value})]) for one figure id; all its points
    share one `Run`."""
    return _figure_run(figure_id, trials, seed, workers)()


def _fmt(v) -> str:
    return format(float(v), ".17g")


def open_csv(path):
    """`path` opened for `write_csv`: UTF-8, LF line endings."""
    return open(path, "w", encoding="utf-8", newline="")


def write_csv(f, header, rows):
    """Comma-separated rows of 17 significant digits, written to the text
    file f."""
    f.write(",".join(header) + "\n")
    for row in rows:
        f.write(",".join(_fmt(v) for v in row) + "\n")


def reproduce_figure(figure_id: int, trials: int, seed: int, out_path,
                     workers=None):
    """Run one figure's full sweep and write its CSV; returns the rows.  The
    file is opened once the figure's points are checked and before any trial
    runs, so a path that cannot be written fails first."""
    run = _figure_run(figure_id, trials, seed, workers)
    with open_csv(out_path) as f:
        axis, rows = run()
        columns = list(rows[0][1].keys())
        write_csv(f, [axis] + columns, [[x] + [cols[c] for c in columns] for x, cols in rows])
    return axis, rows
