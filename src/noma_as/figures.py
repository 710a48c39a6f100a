"""Figure-reproduction sweeps: fixed parameter grids per figure id, one CSV
per figure with the sweep axis in the first column.

The source material tabulates no y-values, so the grids here only pin the
x-axes and scenario constants; downstream checks rest on orderings,
monotonicity, flatness and crossings of the emitted curves.  Simulated and
closed-form curves carry `_sim` / `_analytic` suffixes where both exist.
"""

from __future__ import annotations

from dataclasses import replace

# The closed forms run through POLICIES; their names stay bound here because
# the benchmark's tracer (perfbench/trace.py) wraps them on this module too.
from .analytics import (a3_avg_sum_rate, aia_avg_sum_rate,  # noqa: F401
                        mcg_avg_secondary_rate, pu_avg_secondary_rate,
                        su_avg_secondary_rate)
from .channel import FadingConfig
from .harness import ConfigurationError, Run, run_point
from .rates import PowerSplit
from .selection import POLICIES

_PS_GRID = tuple(range(0, 45, 5))
_B_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)
_D1_GRID = (50.0, 80.0, 100.0, 150.0, 175.0, 200.0, 225.0, 250.0, 300.0, 350.0, 400.0)
_D2_GRID = tuple(float(d) for d in range(100, 425, 50))
_N_GRID = tuple(range(1, 9))
_RTH_GRID = tuple(float(r) for r in range(1, 9))

FIGURE_IDS = tuple(range(1, 9))


def _columns(modes, fading, trials, seed, workers, split=None, r_th=None):
    """Every policy of each mode on shared draws, one column per policy, or
    a `_sim`/`_analytic` pair where the policy has a closed form."""
    cols = {}
    for mode in modes:
        names = tuple(p for m, p in POLICIES if m == mode)
        rep = run_point(fading, mode, names, trials, seed, split=split,
                        r_th=r_th, workers=workers)
        for name in names:
            policy = POLICIES[mode, name]
            value = getattr(rep[name], policy.metric)
            if policy.closed_form is None:
                cols[policy.column] = value
            else:
                cols[f"{policy.column}_sim"] = value
                cols[f"{policy.column}_analytic"] = policy.closed_form(fading, split, r_th)
    return cols


def _fig1(trials, seed, workers):
    split = PowerSplit.from_b(0.4)
    rows = [(ps, _columns(("fnoma", "oma"), FadingConfig(n_bs=2, ps_dbm=float(ps)),
                          trials, seed, workers, split=split))
            for ps in _PS_GRID]
    return "ps_dbm", rows


def _fig2(trials, seed, workers):
    split = PowerSplit.from_b(0.4)
    rows = [(n, _columns(("fnoma", "oma"), FadingConfig(n_bs=n, ps_dbm=10.0),
                         trials, seed, workers, split=split))
            for n in _N_GRID]
    return "n_bs", rows


def _fig3(trials, seed, workers):
    split = PowerSplit.from_b(0.4)
    rows = [(d2, _columns(("fnoma", "oma"), FadingConfig(n_bs=2, d2=d2, ps_dbm=10.0),
                          trials, seed, workers, split=split))
            for d2 in _D2_GRID]
    return "d2", rows


def _fig4(trials, seed, workers):
    fading = FadingConfig(n_bs=2, ps_dbm=10.0)
    rows = [(b, _columns(("fnoma",), fading, trials, seed, workers,
                         split=PowerSplit.from_b(b)))
            for b in _B_GRID]
    return "b", rows


def _fig5(trials, seed, workers):
    fading = FadingConfig(n_bs=4, ps_dbm=20.0)
    rows = []
    for b in _B_GRID:
        rep = run_point(fading, "fnoma", ("a3", "aia"), trials, seed,
                        split=PowerSplit.from_b(b), workers=workers)
        rows.append((b, {"jain_a3": rep["a3"].mean_fairness,
                         "jain_aia": rep["aia"].mean_fairness}))
    return "b", rows


def _fig6(trials, seed, workers):
    rows = [(d1, _columns(("crnoma",), FadingConfig(n_bs=4, d1=d1, ps_dbm=20.0),
                          trials, seed, workers, r_th=5.0))
            for d1 in _D1_GRID]
    return "d1", rows


def _two_placements(build, xs):
    """Rows with UE1 nearer the BS, then UE2 nearer, as column-name suffixes.
    Every point of one placement runs before the other's, so each geometry
    is sampled and selected once."""
    near = [build(x, FadingConfig(n_bs=4, d1=80.0, d2=200.0, ps_dbm=20.0)) for x in xs]
    far = [build(x, FadingConfig(n_bs=4, d1=200.0, d2=80.0, ps_dbm=20.0)) for x in xs]
    rows = []
    for x, near_cols, far_cols in zip(xs, near, far):
        cols = {f"{name}_ue1near": val for name, val in near_cols.items()}
        cols.update({f"{name}_ue2near": val for name, val in far_cols.items()})
        rows.append((x, cols))
    return rows


def _fig7(trials, seed, workers):
    def build(ps, fading):
        return _columns(("crnoma",), replace(fading, ps_dbm=float(ps)),
                        trials, seed, workers, r_th=5.0)

    return "ps_dbm", _two_placements(build, _PS_GRID)


def _fig8(trials, seed, workers):
    def build(r_th, fading):
        return _columns(("crnoma",), fading, trials, seed, workers, r_th=float(r_th))

    return "r_th", _two_placements(build, _RTH_GRID)


_BUILDERS = {1: _fig1, 2: _fig2, 3: _fig3, 4: _fig4,
             5: _fig5, 6: _fig6, 7: _fig7, 8: _fig8}


def figure_rows(figure_id: int, trials: int, seed: int, workers=None):
    """(axis name, [(x, {column: value})]) for one figure id; all its points
    share one `Run`."""
    if figure_id not in _BUILDERS:
        raise ConfigurationError(f"figure id must be in 1..8, got {figure_id}")
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    with Run(workers, trials) as run:
        return _BUILDERS[figure_id](trials, seed, run)


def _fmt(v) -> str:
    return format(float(v), ".17g")


def write_csv(path, header, rows):
    """Comma-separated, UTF-8, LF line endings, 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def reproduce_figure(figure_id: int, trials: int, seed: int, out_path,
                     workers=None):
    """Run one figure's full sweep and write its CSV; returns the rows."""
    axis, rows = figure_rows(figure_id, trials, seed, workers)
    columns = list(rows[0][1].keys())
    header = [axis] + columns
    table = [[x] + [cols[c] for c in columns] for x, cols in rows]
    write_csv(out_path, header, table)
    return axis, rows
