"""The benchmark's tracer (perfbench/trace.py) wraps kernels, rate formulas
and closed forms on their modules after import.  A layer the program reaches
through a reference taken at import time escapes its span; these runs catch
that in seconds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from noma_as import harness

TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


@pytest.mark.parametrize("figure_id, spans", [
    (1, ["selection.es_fnoma", "selection.a3", "selection.aia", "selection.random",
         "selection.oma", "rates.fnoma_pair_rates", "rates.oma_pair_rates",
         "analytics.closed_form"]),
    (7, ["selection.es_crnoma", "selection.mcg", "selection.pu", "selection.su",
         "selection.random", "rates.cr_rates", "analytics.closed_form"]),
])
def test_traced_figure_reaches_every_layer(tmp_path, figure_id, spans):
    proc = subprocess.run(
        [sys.executable, str(TRACE), "--pass", "traced", "--", "figure",
         "--id", str(figure_id), "--trials", "64", "--seed", "1", "--out", "f.csv"],
        cwd=tmp_path, env={**os.environ, "NOMA_SIM_WORKERS": "1"},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    layers = result["layers"]
    traced = [name for name in layers
              if name.startswith(("selection.", "rates.", "analytics.closed_form"))]
    assert sorted(traced) == sorted(spans)
    assert all(layers[name]["calls"] > 0 for name in spans)
    assert layers["harness.run_point"]["trials"] > 0


def test_traced_validate_reaches_run_point(tmp_path):
    (tmp_path / "grid.txt").write_text(
        "mode = fnoma\npolicy = a3\nps_dbm = 30\nb = 0.4\ntrials = 200\ntolerance = 1\n\n"
        "mode = crnoma\npolicy = mcg\nn_bs = 4\nps_dbm = 20\nr_th = 5\ntrials = 200\n"
        "tolerance = 1\n")
    proc = subprocess.run(
        [sys.executable, str(TRACE), "--pass", "traced", "--", "validate", "--grid",
         "grid.txt"],
        cwd=tmp_path, env={**os.environ, "NOMA_SIM_WORKERS": "1"},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    assert result["layers"]["harness.run_point"]["trials"] == 2 * 200


def _figure7_pass(tmp_path, mode, workers, trials):
    proc = subprocess.run(
        [sys.executable, str(TRACE), "--pass", mode, "--", "figure", "--id", "7",
         "--trials", str(trials), "--seed", "1", "--out", "f.csv"],
        cwd=tmp_path, env={**os.environ, "NOMA_SIM_WORKERS": str(workers)},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    return result


def test_figure7_samples_and_selects_once_per_placement(tmp_path):
    # two placements, each one geometry over the nine powers: one draw per
    # trial and placement, one random-policy choice per trial for both, and
    # one pool for the whole figure
    trials = 16385
    pooled = _figure7_pass(tmp_path, "plain", 2, trials)
    assert pooled["pools_started"] == 1
    layers = _figure7_pass(tmp_path, "traced", 1, trials)["layers"]
    assert layers["channel.sample"]["trials"] == 2 * trials
    assert layers["selection.random"]["trials"] == trials


def test_figure2_samples_every_antenna_count_through_the_harness(tmp_path):
    # the eight antenna counts share one computation of each leaf's unit
    # draws, but every (N, leaf) still goes through the sampler the tracer
    # wraps, so channel.sample counts each N's trials
    trials = 16385
    proc = subprocess.run(
        [sys.executable, str(TRACE), "--pass", "traced", "--", "figure", "--id", "2",
         "--trials", str(trials), "--seed", "1", "--out", "f.csv"],
        cwd=tmp_path, env={**os.environ, "NOMA_SIM_WORKERS": "1"},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    sample = result["layers"]["channel.sample"]
    assert sample["trials"] == 8 * trials
    assert sample["calls"] == 8 * len(list(harness._leaves(0, trials)))
