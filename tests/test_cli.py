import ast
import concurrent.futures
import csv
import dataclasses
import gc
import itertools
import math
import os
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
from noma_as import FadingConfig, cli, figures, harness
from noma_as.cli import main
from noma_as.selection import POLICIES, Bound, count_a3

SCENARIO_TEXT = """\
mode = fnoma
policy = a3
n_bs = 2
ps_dbm = 20
b = 0.4
trials = 300
seed = 3
"""


def _scenario_file(tmp_path):
    path = tmp_path / "scn.txt"
    path.write_text(SCENARIO_TEXT)
    return str(path)


def test_figure_writes_csv(tmp_path):
    out = tmp_path / "fig5.csv"
    assert main(["figure", "--id", "5", "--trials", "200", "--seed", "1",
                 "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF endings only
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["b", "jain_a3", "jain_aia"]
    assert len(rows) == 6  # header + b grid
    assert [float(r[0]) for r in rows[1:]] == [0.1, 0.2, 0.3, 0.4, 0.5]
    for row in rows[1:]:
        assert all(0.5 <= float(v) <= 1.0 for v in row[1:])


def test_figure_one_header_schema(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["figure", "--id", "1", "--trials", "50", "--seed", "1",
                 "--out", str(out)]) == 0
    with open(out, newline="") as f:
        header = next(csv.reader(f))
    assert header == ["ps_dbm", "fnoma_es", "a3_sim", "a3_analytic",
                      "aia_sim", "aia_analytic", "fnoma_ra", "oma_es"]


def test_figure_six_header_schema(tmp_path):
    out = tmp_path / "fig6.csv"
    assert main(["figure", "--id", "6", "--trials", "50", "--seed", "1",
                 "--out", str(out)]) == 0
    with open(out, newline="") as f:
        header = next(csv.reader(f))
    assert header == ["d1", "cr_es", "mcg_sim", "mcg_analytic", "pu_sim",
                      "pu_analytic", "su_sim", "su_analytic", "cr_ra"]


def test_figure_bad_id():
    assert main(["figure", "--id", "9", "--trials", "10", "--seed", "1",
                 "--out", "x.csv"]) == 1


def _refuse_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a channel was sampled")
    monkeypatch.setattr(harness, "sample_channel_batch", refuse)


def test_figure_unwritable_path(tmp_path, monkeypatch, capsys):
    # the output is opened before any trial runs
    _refuse_sampling(monkeypatch)
    assert main(["figure", "--id", "2", "--trials", "20000", "--seed", "1",
                 "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 3
    assert capsys.readouterr().err.startswith("i/o error:")


def test_sweep_unwritable_path(tmp_path, monkeypatch, capsys):
    _refuse_sampling(monkeypatch)
    assert main(["sweep", "--scenario", _scenario_file(tmp_path), "--axis", "ps_dbm",
                 "--values", "10,20", "--out", str(tmp_path / "no" / "x.csv")]) == 3
    assert capsys.readouterr().err.startswith("i/o error:")


@pytest.mark.parametrize("argv, workers", [
    (["figure", "--id", "2", "--trials", "0", "--seed", "1"], None),
    (["figure", "--id", "2", "--trials", "100", "--seed", "-1"], None),
    (["figure", "--id", "2", "--trials", "100", "--seed", "1"], "0"),
    (["sweep", "--axis", "n_bs", "--values", "2,0.5"], None),
    (["sweep", "--axis", "ps_dbm", "--values", "10,20"], "0"),
    (["figure", "--id", "7", "--trials", "100000", "--seed", "1"], "3"),
])
def test_configuration_error_leaves_no_output_file(tmp_path, monkeypatch, capsys, argv,
                                                   workers):
    # a bad point or worker count fails before the output is opened; this
    # process may run on two CPUs, so three workers are refused
    _refuse_sampling(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    if workers is not None:
        monkeypatch.setenv("NOMA_SIM_WORKERS", workers)
    if argv[0] == "sweep":
        argv = argv + ["--scenario", _scenario_file(tmp_path)]
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()
    if argv[3:5] == ["--trials", "0"]:  # the Scenario's check, keyed like a file's
        assert capsys.readouterr().err == f"error: trials = 0: need an integer in [1, {2 ** 30}]\n"
    if workers == "3":
        assert capsys.readouterr().err == ("error: NOMA_SIM_WORKERS = '3': need an integer "
                                           "from 1 to 2, the CPUs this process may run on\n")


def test_sweep_to_file(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", _scenario_file(tmp_path),
                 "--axis", "ps_dbm", "--values", "10,20", "--out", str(out)]) == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "ps_dbm"
    assert len(rows) == 3
    assert float(rows[2][3]) > float(rows[1][3])  # mean_sum grows with power


def test_sweep_to_stdout(tmp_path, capsys):
    path = _scenario_file(tmp_path)
    assert main(["sweep", "--scenario", path, "--axis", "d2", "--values", "150"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("d2,mean_r1,")
    assert len(lines) == 2
    # a sweep reads every mean and standard error of its points' reports
    scn = harness.apply_axis(harness.load_scenario(path), "d2", 150.0)
    (report,) = harness.run_point(**vars(scn)).values()
    row = [150.0, report.mean_r1, report.mean_r2, report.mean_sum, report.mean_fairness,
           *report.std_err.values(), scn.trials,
           POLICIES[scn.mode, "a3"].count(scn.fading.n_bs, scn.fading.m_ue1,
                                          scn.fading.k_ue2)]
    assert lines[1] == ",".join(format(float(v), ".17g") for v in row)


def test_a_sweep_over_n_bs_counts_the_comparisons_of_each_point(tmp_path, capsys):
    path = _scenario_file(tmp_path)
    assert main(["sweep", "--scenario", path, "--axis", "n_bs", "--values", "1,2,4"]) == 0
    header, *rows = csv.reader(capsys.readouterr().out.splitlines())
    assert header[0] == "n_bs" and header[-2:] == ["trials", "mean_eval_count"]
    assert [float(row[0]) for row in rows] == [1.0, 2.0, 4.0]
    trials = harness.load_scenario(path).trials
    for row in rows:
        n = int(float(row[0]))
        assert float(row[-2]) == trials
        assert float(row[-1]) == POLICIES["fnoma", "a3"].count(n, 2, 2)


def test_sweep_bad_axis(tmp_path):
    assert main(["sweep", "--scenario", _scenario_file(tmp_path),
                 "--axis", "bandwidth", "--values", "1"]) == 1


def test_sweep_bad_values(tmp_path):
    assert main(["sweep", "--scenario", _scenario_file(tmp_path),
                 "--axis", "d2", "--values", "abc"]) == 1


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_sweep_rejects_a_non_integer_antenna_count(tmp_path, capsys, value):
    assert main(["sweep", "--scenario", _scenario_file(tmp_path), "--axis", "n_bs",
                 "--values", value]) == 1
    err = capsys.readouterr().err
    assert err == f"error: n_bs = {value}: antenna counts must be integers >= 1\n"


def test_sweep_unknown_scenario_key(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(SCENARIO_TEXT + "bandwidth = 7\n")
    assert main(["sweep", "--scenario", str(path), "--axis", "d2",
                 "--values", "100"]) == 1


CR_SCENARIO_TEXT = """\
mode = crnoma
policy = pu
n_bs = 4
ps_dbm = 20
r_th = 5
trials = 300
seed = 3
"""


@pytest.mark.parametrize("line", ["trials = 1e5", "trials = 2.5", "seed = -1",
                                  "b = 0", "b = 1.5", "cr: b = 7", "cr: b = 0.4",
                                  "r_th = 1", "alpha = 300",
                                  "ps_dbm = 2980",
                                  "ps_dbm = -5000", "sigma2_dbm = -4000", "d1 = 1e-100",
                                  "cr: r_th = 1024", "cr: r_th = inf", "n_bs = 0",
                                  "m_ue1 = 0", "k_ue2 = -1", "d1 = -4", "d2 = 0",
                                  "alpha = 0", "ps_dbm = nan", "sigma2_dbm = inf",
                                  "n_bs = 1025"])
def test_bad_scenario_value_names_file_and_key(tmp_path, capsys, monkeypatch, line):
    ran = []
    monkeypatch.setattr(harness, "_simulate_leaf", ran.append)
    text = SCENARIO_TEXT
    if line.startswith("cr: "):
        text, line = CR_SCENARIO_TEXT, line[4:]
    key = line.split(" =")[0]
    path = tmp_path / "bad.txt"
    rows = [row for row in text.splitlines(True) if not row.startswith(key + " ")]
    path.write_text("".join(rows) + line + "\n")
    assert main(["sweep", "--scenario", str(path), "--axis", "d2",
                 "--values", "100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{len(rows) + 1}: ") and f"{key} =" in err
    assert ran == []


@pytest.mark.parametrize("text, key, need", [
    (SCENARIO_TEXT, "b", "fnoma scenarios need a power split"),
    (CR_SCENARIO_TEXT, "r_th", "crnoma scenarios need a rate floor"),
])
def test_a_missing_mode_parameter_names_the_first_line(tmp_path, capsys, text, key, need):
    path = tmp_path / "bad.txt"
    path.write_text("".join(row for row in text.splitlines(True)
                            if not row.startswith(key + " ")))
    assert main(["validate", "--grid", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:1: {need} (key {key})\n"


@pytest.mark.parametrize("command", ["figure", "sweep", "validate"])
def test_a_trial_count_above_the_cap_fails_before_any_leaf_is_planned(tmp_path, capsys,
                                                                     monkeypatch, command):
    def refuse(*args):
        raise AssertionError("a leaf was planned or simulated")

    monkeypatch.setattr(harness, "_leaves", refuse)
    monkeypatch.setattr(harness, "_simulate_leaf", refuse)
    trials = 2 ** 30 + 1
    path = tmp_path / "scn.txt"
    path.write_text(SCENARIO_TEXT.replace("trials = 300", f"trials = {trials}"))
    out = tmp_path / "x.csv"
    argv = {"figure": ["figure", "--id", "7", "--trials", str(trials), "--out", str(out)],
            "sweep": ["sweep", "--scenario", str(path), "--axis", "d2", "--values", "100",
                      "--out", str(out)],
            "validate": ["validate", "--grid", str(path)]}[command]
    assert main(argv) == 1
    where = "" if command == "figure" else f"{path}:6: "
    assert capsys.readouterr().err == (f"error: {where}trials = {trials}: need an integer "
                                       f"in [1, {2 ** 30}]\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "validate"])
def test_a_byte_that_is_not_utf8_names_the_file_and_line(tmp_path, capsys, command):
    rows = SCENARIO_TEXT.encode().splitlines(True)
    rows[3] = b"ps_dbm = 2\xff0\n"
    path = tmp_path / "scn.txt"
    path.write_bytes(b"".join(rows))
    argv = {"sweep": ["sweep", "--scenario", str(path), "--axis", "d2", "--values", "100"],
            "validate": ["validate", "--grid", str(path)]}[command]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path}:4: byte 0xff is not UTF-8 text")


def test_sweep_missing_file(tmp_path):
    assert main(["sweep", "--scenario", str(tmp_path / "none.txt"),
                 "--axis", "d2", "--values", "100"]) == 3


def test_validate_pass_and_fail(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("mode = fnoma\npolicy = a3\nps_dbm = 30\nb = 0.4\n"
                    "trials = 20000\nseed = 2\ntolerance = 0.01\n")
    assert main(["validate", "--grid", str(grid)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    grid.write_text("mode = fnoma\npolicy = a3\nps_dbm = 30\nb = 0.4\n"
                    "trials = 20000\nseed = 2\ntolerance = 1e-9\n")
    assert main(["validate", "--grid", str(grid)]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_validate_prints_each_block_with_its_own_closed_form_tolerance_and_verdict(
        tmp_path, capsys):
    # PASS, N/A and FAIL blocks: each line reads its own point, in grid order
    grid = tmp_path / "grid.txt"
    grid.write_text("mode = fnoma\npolicy = a3\nps_dbm = 30\nb = 0.4\ntrials = 2000\n"
                    "tolerance = 0.05\n\nmode = fnoma\npolicy = aia\nps_dbm = -100\nb = 0.4\n"
                    "trials = 2000\n\nmode = crnoma\npolicy = mcg\nn_bs = 4\nps_dbm = 20\n"
                    "r_th = 5\ntrials = 2000\ntolerance = 0.000001\n")
    blocks = [("fnoma", "a3", FadingConfig(ps_dbm=30.0), None, "5%", "PASS"),
              ("fnoma", "aia", FadingConfig(ps_dbm=-100.0), None, "2%",
               "N/A (SNR below asymptotic domain)"),
              ("crnoma", "mcg", FadingConfig(n_bs=4, ps_dbm=20.0), 5.0, "0.0001%", "FAIL")]
    assert main(["validate", "--grid", str(grid)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(blocks)
    for line, (mode, policy, fading, r_th, tol, verdict) in zip(lines, blocks):
        closed = POLICIES[mode, policy].closed_form(fading, r_th)
        assert line.startswith(f"{policy:>4s} {mode:<6s} N={fading.n_bs} ")
        assert f": closed={closed:.6g} mc=" in line
        assert line.endswith(f" tol={tol} {verdict}")


def test_validate_low_snr_not_applicable(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("mode = fnoma\npolicy = a3\nps_dbm = -100\nb = 0.4\n"
                    "trials = 2000\nseed = 2\n")
    assert main(["validate", "--grid", str(grid)]) == 0
    assert "N/A" in capsys.readouterr().out


def test_validate_refuses_a_closed_form_before_any_point_runs(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("mode = fnoma\npolicy = a3\nps_dbm = 30\nb = 0.4\n"
                    "trials = 20000\nseed = 2\n\nmode = fnoma\npolicy = a3\n"
                    "n_bs = 100\nps_dbm = 30\nb = 0.4\ntrials = 20000\n")
    assert main(["validate", "--grid", str(grid)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {grid}:10: n_bs = 100, m_ue1 = 2, k_ue2 = 2: ")


def test_validate_refuses_aia_beyond_the_binomial_range_before_any_chunk(
        tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "_simulate_leaf", ran.append)
    monkeypatch.setenv("NOMA_SIM_WORKERS", "1")
    grid = tmp_path / "grid.txt"
    grid.write_text("mode = fnoma\npolicy = a3\nps_dbm = 30\nb = 0.4\n"
                    "trials = 20000\nseed = 2\n\nmode = fnoma\npolicy = aia\n"
                    "n_bs = 13\nm_ue1 = 4\nk_ue2 = 4\nps_dbm = 40\nb = 0.4\n")
    assert main(["validate", "--grid", str(grid)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and ran == []
    assert err.startswith(f"error: {grid}:10: n_bs = 13, m_ue1 = 4, k_ue2 = 4: ")


def test_validate_prints_the_exact_closed_forms_at_ten_by_three_by_three(tmp_path, capsys):
    # the float sums printed a3 closed=0.92109 and aia closed=21.6041 here,
    # and failed the point; a refusal would exit 1 naming the antenna counts
    geometry = "n_bs = 10\nm_ue1 = 3\nk_ue2 = 3\nps_dbm = 40\nb = 0.4\ntrials = 2000\n"
    grid = tmp_path / "grid.txt"
    grid.write_text(f"mode = fnoma\npolicy = a3\n{geometry}\nmode = fnoma\npolicy = aia\n"
                    f"{geometry}")
    code = main(["validate", "--grid", str(grid)])
    out, err = capsys.readouterr()
    if code == 1:
        assert "n_bs = 10, m_ue1 = 3, k_ue2 = 3: " in err and out == ""
        return
    cfg = FadingConfig(n_bs=10, m_ue1=3, k_ue2=3, ps_dbm=40.0)
    lines = out.splitlines()
    assert code == 0 and len(lines) == 2 and "FAIL" not in out
    assert f"closed={oracles.a3_rate_mp(cfg):.6g} " in lines[0] and "closed=32.7941 " in out
    assert f"closed={oracles.aia_rate_mp(cfg, 0.4):.6g} " in lines[1]
    assert "closed=31.4673 " in lines[1]


@pytest.mark.parametrize("value", ["nan", "-0.5", "0", "inf"])
def test_validate_rejects_a_tolerance_that_is_not_finite_and_positive(tmp_path, capsys,
                                                                      value):
    grid = tmp_path / "grid.txt"
    grid.write_text("mode = fnoma\npolicy = a3\nps_dbm = 30\nb = 0.4\n"
                    f"trials = 200\nseed = 2\ntolerance = {value}\n")
    assert main(["validate", "--grid", str(grid)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {grid}:7: tolerance = ")


def test_bench_all_within_bounds(capsys):
    assert main(["bench", "--max-dim", "4"]) == 0
    out = capsys.readouterr().out
    assert "within bounds" in out
    assert "es_fnoma" in out


def test_bench_prints_each_count_past_its_bound_and_fails(capsys, monkeypatch):
    # a3 advertised as N: every configuration but (1, 1, 1) exceeds it
    policy = POLICIES["fnoma", "a3"]
    monkeypatch.setitem(POLICIES, ("fnoma", "a3"), dataclasses.replace(
        policy, bound=Bound("a3", "N", lambda n, m, k: n)))
    assert main(["bench", "--max-dim", "2"]) == 2
    # the header and seven audited rows, then each excess and no success line
    out = capsys.readouterr().out.splitlines()
    assert out[3] == "        a3            N   [3, 7]"
    assert out[8:] == [f"BOUND EXCEEDED: {('a3', n, m, k, count_a3(n, m, k))}"
                           for n, m, k in itertools.product((1, 2), repeat=3)
                           if (n, m, k) != (1, 1, 1)]


@pytest.mark.parametrize("max_dim, code", [(64, 0), (65, 1)])
def test_bench_max_dim_is_capped(capsys, max_dim, code):
    assert main(["bench", "--max-dim", str(max_dim)]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err == "error: --max-dim must be in 1..64, got 65\n"
    else:
        assert out.endswith(f"over {64 ** 3} antenna configurations "
                            f"(exhaustive counts exactly N*M*K)\n")


def test_usage_error_maps_to_config_exit():
    assert main(["sweep", "--axis", "d2"]) == 1  # missing required args
    assert main(["nonsense"]) == 1


def test_workers_env_propagates(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NOMA_SIM_WORKERS", "not-a-number")
    assert main(["sweep", "--scenario", _scenario_file(tmp_path),
                 "--axis", "d2", "--values", "100"]) == 1


STARTUP_SCRIPT = """\
import math
import sys

import noma_as
from noma_as.cli import main

assert "scipy.integrate" not in sys.modules, "import noma_as loaded scipy.integrate"
scenario, grid, out = sys.argv[1:]
for argv in (["figure", "--id", "7", "--trials", "64", "--out", out],
             ["validate", "--grid", grid],
             ["sweep", "--scenario", scenario, "--axis", "ps_dbm", "--values", "10,20"],
             ["bench", "--max-dim", "2"]):
    assert main(argv) == 0, argv
    assert "scipy.integrate" not in sys.modules, f"{argv[0]} loaded scipy.integrate"
rate = noma_as.quadrature_rate(lambda x: 2.0 * math.exp(-2.0 * x), 1e-3, 1.0)
assert "scipy.integrate" in sys.modules
print(repr(rate))
"""


def _fresh_env(**extra):
    """The environment of a fresh interpreter that imports this checkout's
    `noma_as`, without OPENBLAS_NUM_THREADS unless `extra` sets it."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, NOMA_SIM_WORKERS="1",
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    return dict(env, **extra)


def test_cli_runs_never_load_scipy_integrate(tmp_path):
    # a fresh interpreter: only quadrature_rate may load the integrators
    grid = tmp_path / "grid.txt"
    grid.write_text("mode = fnoma\npolicy = a3\nps_dbm = 30\nb = 0.4\n"
                    "trials = 200\nseed = 2\ntolerance = 1\n")
    env = _fresh_env()
    done = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, _scenario_file(tmp_path),
                           str(grid), str(tmp_path / "fig7.csv")],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert done.returncode == 0, done.stderr
    rate = float(done.stdout.splitlines()[-1])
    assert rate == pytest.approx(math.log2(1.0 + 1e-3 / 2.0), rel=0.01)


THREADS_SCRIPT = """\
import os

import noma_as

print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("openblas", [None, "2"])
def test_import_loads_numpy_with_one_blas_thread(tmp_path, openblas):
    # the package's parallelism is its process pool: an idle OpenBLAS thread
    # only spins; a value the user sets wins, and none is left behind
    extra = {} if openblas is None else {"OPENBLAS_NUM_THREADS": openblas}
    done = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], capture_output=True,
                          text=True, env=_fresh_env(**extra), cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    threads, env_value = done.stdout.split()
    assert env_value == str(openblas)
    if openblas is None:
        assert threads == "1"


@pytest.mark.parametrize("enabled", [True, False])
def test_main_in_process_leaves_the_callers_gc_as_it_was(tmp_path, monkeypatch, enabled):
    # only the process entry freezes the heap: a library caller's collector
    # keeps its state and its young objects
    monkeypatch.setenv("NOMA_SIM_WORKERS", "1")
    frozen = gc.get_freeze_count()
    if not enabled:
        gc.disable()
    try:
        assert main(["figure", "--id", "1", "--trials", "64",
                     "--out", str(tmp_path / "f.csv")]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        gc.enable()


ENTRY_SCRIPT = """\
import gc
import runpy
import sys

from noma_as import cli


def main(argv):
    print(gc.get_freeze_count() > 0, argv)
    return 7


print(gc.get_freeze_count())
cli.main = main
if sys.argv[1] == "run":
    cli.run(sys.argv[2:])
else:  # python -m noma_as
    sys.argv[1:2] = []
    runpy.run_module("noma_as", run_name="__main__")
"""


@pytest.mark.parametrize("how", ["run", "module"])
def test_the_process_entry_freezes_the_heap_before_main_and_exits_with_its_code(
        tmp_path, how):
    done = subprocess.run([sys.executable, "-c", ENTRY_SCRIPT, how, "figure", "--id", "1"],
                          capture_output=True, text=True, env=_fresh_env(), cwd=tmp_path,
                          timeout=120)
    expected = "['figure', '--id', '1']" if how == "run" else "None"
    assert (done.returncode, done.stderr) == (7, "")
    assert done.stdout == f"0\nTrue {expected}\n"


def test_every_process_entry_is_cli_run():
    # `noma-as`, `python -m noma_as` and `python -m noma_as.cli` all go
    # through `run`, the one place the heap is frozen
    def code(text):
        return [ast.dump(stmt) for stmt in ast.parse(text).body]

    tomllib = pytest.importorskip("tomllib")
    package = Path(harness.__file__).parent
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"] == {"noma-as": "noma_as.cli:run"}
    assert code((package / "__main__.py").read_text()) == code("from .cli import run\nrun()")
    guard = code((package / "cli.py").read_text())[-1:]
    assert guard == code('if __name__ == "__main__":\n    run()')


# --- only the process entry installs the SIGTERM/SIGHUP handlers ------------

def _caller_handler(signum, frame):
    """A handler of the process that calls `main` in-process."""


@pytest.mark.parametrize("caller", [_caller_handler, signal.SIG_IGN], ids=["handler", "SIG_IGN"])
def test_main_in_process_leaves_the_callers_signal_handlers(monkeypatch, caller):
    # the command runs under the caller's handlers, which stay after it
    signals = (signal.SIGTERM, signal.SIGHUP)
    during = []
    monkeypatch.setattr(cli, "_cmd_bench", lambda args: during.append(
        [signal.getsignal(signum) for signum in signals]) or 0)
    previous = [signal.signal(signum, caller) for signum in signals]
    try:
        assert main(["bench"]) == 0
        after = [signal.getsignal(signum) for signum in signals]
    finally:
        for signum, old in zip(signals, previous):
            signal.signal(signum, old)
    assert during == [[caller, caller]]
    assert after == [caller, caller]


def test_a_sigterm_during_an_in_process_main_reaches_the_caller(monkeypatch, capsys):
    # the caller's handler runs, and `main` returns the command's own code
    monkeypatch.setattr(cli, "_cmd_bench",
                        lambda args: signal.raise_signal(signal.SIGTERM) or 0)
    seen = []
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: seen.append(signum))
    try:
        code = main(["bench"])
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert (code, seen) == (0, [signal.SIGTERM])
    assert capsys.readouterr().err == ""


HANDLERS_SCRIPT = """\
import functools
import os
import signal

from noma_as import cli


def handlers():
    # "interrupt" for `_interrupt` bound to this process, else the default's name
    return ["interrupt" if isinstance(h, functools.partial)
            and (h.func, h.args) == (cli._interrupt, (os.getpid(),))
            else signal.Handlers(h).name
            for h in map(signal.getsignal, (signal.SIGTERM, signal.SIGHUP))]


def main(argv):
    print(*handlers())
    return 0


print(*handlers())
cli.main = main
cli.run([])
"""


def _start_with(sigterm):
    """A `preexec_fn` that sets SIGTERM to `sigterm` and SIGHUP to SIG_DFL."""
    def preexec():
        signal.signal(signal.SIGTERM, sigterm)
        signal.signal(signal.SIGHUP, signal.SIG_DFL)
    return preexec


@pytest.mark.parametrize("sigterm, expected", [
    (signal.SIG_DFL, "SIG_DFL SIG_DFL\ninterrupt interrupt\n"),
    (signal.SIG_IGN, "SIG_IGN SIG_DFL\nSIG_IGN interrupt\n"),
], ids=["default", "sigterm-ignored"])
def test_the_process_entry_installs_the_handlers_before_main(tmp_path, sigterm, expected):
    # `run` hands each signal not ignored at start to `_interrupt`, bound to
    # the CLI's pid, before `main` runs
    done = subprocess.run([sys.executable, "-c", HANDLERS_SCRIPT], capture_output=True,
                          text=True, env=_fresh_env(), cwd=tmp_path, timeout=120,
                          preexec_fn=_start_with(sigterm))
    assert (done.returncode, done.stderr, done.stdout) == (0, "", expected)


def test_main_runs_its_command_from_a_thread_other_than_the_main_one(capsys):
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        code = pool.submit(main, ["bench", "--max-dim", "1"]).result(timeout=60)
    assert code == 0
    assert capsys.readouterr().out.endswith("over 1 antenna configurations "
                                            "(exhaustive counts exactly N*M*K)\n")


# --- a run that fails keeps the previous output ------------------------------

LEAF_SCRIPT = """\
import os
import signal
import sys

from noma_as import cli, harness

CLI_PID = os.getpid()  # recorded before the pool forks
simulate_leaf = harness._simulate_leaf


def leaf(task):
    # the first leaf runs; a later one kills its worker by SIGKILL or SIGTERM
    # or is interrupted, as Ctrl-C does; or the second leaf sends a signal to
    # the CLI and runs on, or to the CLI's whole process group
    action = sys.argv[1]
    signame = action.removeprefix("group-")
    if signame in ("SIGTERM", "SIGHUP") and task[1] == harness._CHUNK:
        if action == signame:
            os.kill(CLI_PID, getattr(signal, signame))
        else:  # the CLI leads its own group: no process outside the run is hit
            assert os.getpgid(CLI_PID) == CLI_PID
            os.killpg(CLI_PID, getattr(signal, signame))
    elif action == "kill-cli" and task[1] == harness._CHUNK:
        os.kill(CLI_PID, signal.SIGKILL)
    elif action in ("kill", "term") and task[1] > 0:
        os.kill(os.getpid(), signal.SIGKILL if action == "kill" else signal.SIGTERM)
    elif action == "interrupt" and task[1] > 0:
        raise KeyboardInterrupt
    return simulate_leaf(task)


def record_pid():
    open(os.path.join("pids", str(os.getpid())), "x").close()


class Pool(harness.ProcessPoolExecutor):
    # each worker records its pid in ./pids when it starts
    def __init__(self, max_workers):
        super().__init__(max_workers, initializer=record_pid)


os.mkdir("pids")
harness._simulate_leaf = leaf
harness.ProcessPoolExecutor = Pool
cli.run(sys.argv[2:])
"""

# two leaves of each point, so a run reaches a leaf with t0 > 0
TWO_LEAF_SCENARIO = SCENARIO_TEXT.replace("trials = 300", f"trials = {2 * harness._CHUNK}")


def _usable_cpus():
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _argv(command, tmp_path, out):
    """A figure or a `sweep --out` of two leaves per point, writing `out`."""
    if command == "figure":
        return ["figure", "--id", "1", "--trials", str(2 * harness._CHUNK), "--out", str(out)]
    scenario = tmp_path / "two_leaves.txt"
    scenario.write_text(TWO_LEAF_SCENARIO)
    return ["sweep", "--scenario", str(scenario), "--axis", "ps_dbm", "--values", "10,20",
            "--out", str(out)]


def _alive(pid):
    """Whether process `pid` still runs; a zombie has exited."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:  # no /proc here
        return True


def _stop_survivors(pids):
    """The processes of `pids` still alive 5 s from now, killed by SIGKILL."""
    deadline = time.monotonic() + 5
    while (alive := [pid for pid in pids if _alive(pid)]) and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in alive:  # stopped here, then reported by the caller
        os.kill(pid, signal.SIGKILL)
    return alive


TWO_CPUS = pytest.mark.skipif(_usable_cpus() < 2, reason="needs 2 usable CPUs")


@pytest.mark.parametrize("command", ["figure", "sweep"])
@pytest.mark.parametrize("action, workers, code, err", [
    pytest.param("kill", "2", 4, None, id="dead-worker", marks=TWO_CPUS),
    pytest.param("term", "2", 4, None, id="terminated-worker", marks=TWO_CPUS),
    pytest.param("interrupt", "1", 130, "interrupted\n", id="interrupted"),
    pytest.param("SIGTERM", "1", 143, "interrupted by SIGTERM\n", id="sigterm-1"),
    pytest.param("SIGTERM", "2", 143, "interrupted by SIGTERM\n", id="sigterm-2",
                 marks=TWO_CPUS),
    pytest.param("SIGHUP", "1", 129, "interrupted by SIGHUP\n", id="sighup-1"),
    pytest.param("SIGHUP", "2", 129, "interrupted by SIGHUP\n", id="sighup-2",
                 marks=TWO_CPUS),
    pytest.param("group-SIGTERM", "1", 143, "interrupted by SIGTERM\n", id="group-sigterm-1"),
    pytest.param("group-SIGTERM", "2", 143, "interrupted by SIGTERM\n", id="group-sigterm-2",
                 marks=TWO_CPUS),
    pytest.param("group-SIGHUP", "2", 129, "interrupted by SIGHUP\n", id="group-sighup-2",
                 marks=TWO_CPUS),
])
def test_a_failed_run_exits_with_one_line_and_keeps_the_previous_output(
        tmp_path, command, action, workers, code, err):
    # a child interpreter whose leaves past the first kill their own worker
    # or raise KeyboardInterrupt, as Ctrl-C does, or whose second leaf sends
    # a signal to the CLI or, as a terminal hangup or `timeout` does, to its
    # process group; only its processes are hit, and none outlives it.  A
    # worker inherits the CLI's SIGTERM handler, yet dies by the signal
    # instead of sending its leaf's caller an interrupt
    script = tmp_path / "leaf.py"
    script.write_text(LEAF_SCRIPT)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "previous.csv"
    out.write_bytes(b"previous,bytes\r\n1,2\n")
    # stderr goes to a file: a worker left alive would hold a pipe open
    with open(tmp_path / "stderr.txt", "w") as f:
        done = subprocess.run([sys.executable, str(script), action,
                               *_argv(command, tmp_path, out)],
                              stdout=subprocess.DEVNULL, stderr=f, cwd=tmp_path,
                              env=_fresh_env(NOMA_SIM_WORKERS=workers), timeout=300,
                              start_new_session=True)
    pids = [int(name) for name in os.listdir(tmp_path / "pids")]
    alive = _stop_survivors(pids)
    stderr = (tmp_path / "stderr.txt").read_text()
    assert done.returncode == code, stderr
    if err is None:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    else:
        assert stderr == err
    assert out.read_bytes() == b"previous,bytes\r\n1,2\n"
    assert os.listdir(out_dir) == ["previous.csv"]
    assert len(pids) == (0 if workers == "1" else int(workers))
    assert alive == []


@TWO_CPUS
@pytest.mark.parametrize("command", ["figure", "sweep"])
def test_a_cli_killed_by_sigkill_leaves_its_tmp_and_no_worker(tmp_path, command):
    # the second leaf sends SIGKILL to the CLI, which runs no cleanup: the
    # new file stays beside the intact target, and each worker, left with no
    # parent to feed or stop it, exits on its own
    script = tmp_path / "leaf.py"
    script.write_text(LEAF_SCRIPT)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "previous.csv"
    out.write_bytes(b"previous,bytes\r\n1,2\n")
    with open(tmp_path / "stderr.txt", "w") as f:
        cli = subprocess.Popen([sys.executable, str(script), "kill-cli",
                                *_argv(command, tmp_path, out)],
                               stdout=subprocess.DEVNULL, stderr=f, cwd=tmp_path,
                               env=_fresh_env(NOMA_SIM_WORKERS="2"), start_new_session=True)
        code = cli.wait(timeout=300)
    pids = [int(name) for name in os.listdir(tmp_path / "pids")]
    alive = _stop_survivors(pids)
    assert code == -signal.SIGKILL, (tmp_path / "stderr.txt").read_text()
    assert out.read_bytes() == b"previous,bytes\r\n1,2\n"
    assert sorted(os.listdir(out_dir)) == ["previous.csv", f"previous.csv.{cli.pid}-0.tmp"]
    assert len(pids) == 2
    assert alive == []


def _ignore_sighup():
    signal.signal(signal.SIGHUP, signal.SIG_IGN)


@pytest.mark.parametrize("workers", ["1", pytest.param("2", marks=TWO_CPUS)])
@pytest.mark.parametrize("action", ["SIGHUP", "group-SIGHUP"])
def test_a_sighup_ignored_at_start_stays_ignored(tmp_path, action, workers):
    # as under `nohup`: the CLI starts with SIGHUP ignored, its second leaf
    # sends the CLI (or the CLI's group) a SIGHUP, and the run goes on to
    # write what a run sent no signal writes
    script = tmp_path / "leaf.py"
    script.write_text(LEAF_SCRIPT)
    outputs = []
    for act in ("none", action):
        cwd = tmp_path / act
        cwd.mkdir()
        out = cwd / "out.csv"
        with open(cwd / "stderr.txt", "w") as f:
            done = subprocess.run([sys.executable, str(script), act,
                                   *_argv("figure", cwd, out)],
                                  stdout=subprocess.DEVNULL, stderr=f, cwd=cwd,
                                  env=_fresh_env(NOMA_SIM_WORKERS=workers), timeout=300,
                                  start_new_session=True, preexec_fn=_ignore_sighup)
        pids = [int(name) for name in os.listdir(cwd / "pids")]
        alive = _stop_survivors(pids)
        assert (done.returncode, (cwd / "stderr.txt").read_text()) == (0, "")
        assert alive == []
        assert sorted(os.listdir(cwd)) == ["out.csv", "pids", "stderr.txt"]
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [["figure", "--id", "1", "--trials", "64"],
                                  ["sweep", "--axis", "ps_dbm", "--values", "10,20"]])
def test_a_run_over_an_existing_file_writes_what_a_fresh_path_gets(tmp_path, monkeypatch,
                                                                    argv):
    # the rows replace the old file whole, with the mode a new file gets
    monkeypatch.setenv("NOMA_SIM_WORKERS", "1")
    if argv[0] == "sweep":
        argv = argv + ["--scenario", _scenario_file(tmp_path)]
    fresh, existing = tmp_path / "fresh", tmp_path / "existing"
    fresh.mkdir()
    existing.mkdir()
    old = existing / "out.csv"
    old.write_bytes(b"x" * 100_000)
    old.chmod(0o600)
    umask = os.umask(0o027)
    try:
        assert main(argv + ["--out", str(fresh / "out.csv")]) == 0
        assert main(argv + ["--out", str(old)]) == 0
    finally:
        os.umask(umask)
    assert old.read_bytes() == (fresh / "out.csv").read_bytes()
    assert old.stat().st_mode & 0o777 == 0o640
    assert os.listdir(existing) == ["out.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_or_a_symlink_as_the_output_stays_what_it_is(tmp_path):
    # a target that is not a regular file is written in place, and a
    # symlink's file is replaced with the link kept
    argv = ["figure", "--id", "5", "--trials", "64", "--out"]
    fresh = tmp_path / "fresh.csv"
    assert main(argv + [str(fresh)]) == 0
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    with concurrent.futures.ThreadPoolExecutor(1) as reader:
        read = reader.submit(pipe.read_bytes)
        assert main(argv + [str(pipe)]) == 0
        assert read.result(timeout=60) == fresh.read_bytes()
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    (tmp_path / "file.csv").write_bytes(b"old\n")
    link = tmp_path / "link.csv"
    link.symlink_to("file.csv")
    assert main(argv + [str(link)]) == 0
    assert link.is_symlink() and link.read_bytes() == fresh.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["file.csv", "fresh.csv", "link.csv", "pipe"]


def test_a_bytes_or_path_like_output_gets_what_a_str_output_gets(tmp_path):
    # the new file beside the target is named from the decoded path
    for target in (str(tmp_path / "str.csv"), os.fsencode(tmp_path / "bytes.csv"),
                   tmp_path / "path.csv"):
        figures.reproduce_figure(5, 64, 1, target, workers=1)
    expected = (tmp_path / "str.csv").read_bytes()
    assert (tmp_path / "bytes.csv").read_bytes() == expected
    assert (tmp_path / "path.csv").read_bytes() == expected
    assert sorted(os.listdir(tmp_path)) == ["bytes.csv", "path.csv", "str.csv"]
