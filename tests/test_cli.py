import csv
import os

import pytest

from noma_as.cli import main

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


def test_figure_unwritable_path(tmp_path):
    assert main(["figure", "--id", "5", "--trials", "10", "--seed", "1",
                 "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 3


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
    assert main(["sweep", "--scenario", _scenario_file(tmp_path),
                 "--axis", "d2", "--values", "150"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("d2,mean_r1,")
    assert len(lines) == 2


def test_sweep_bad_axis(tmp_path):
    assert main(["sweep", "--scenario", _scenario_file(tmp_path),
                 "--axis", "bandwidth", "--values", "1"]) == 1


def test_sweep_bad_values(tmp_path):
    assert main(["sweep", "--scenario", _scenario_file(tmp_path),
                 "--axis", "d2", "--values", "abc"]) == 1


def test_sweep_unknown_scenario_key(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(SCENARIO_TEXT + "bandwidth = 7\n")
    assert main(["sweep", "--scenario", str(path), "--axis", "d2",
                 "--values", "100"]) == 1


@pytest.mark.parametrize("line", ["trials = 1e5", "trials = 2.5", "seed = -1",
                                  "b = 0", "alpha = 300"])
def test_bad_scenario_value_names_file_and_key(tmp_path, capsys, line):
    key = line.split(" =")[0]
    path = tmp_path / "bad.txt"
    path.write_text("".join(row for row in SCENARIO_TEXT.splitlines(True)
                            if not row.startswith(key + " ")) + line + "\n")
    assert main(["sweep", "--scenario", str(path), "--axis", "d2",
                 "--values", "100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and f"{key} =" in err


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


def test_validate_low_snr_not_applicable(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("mode = fnoma\npolicy = a3\nps_dbm = -100\nb = 0.4\n"
                    "trials = 2000\nseed = 2\n")
    assert main(["validate", "--grid", str(grid)]) == 0
    assert "N/A" in capsys.readouterr().out


def test_bench_all_within_bounds(capsys):
    assert main(["bench", "--max-dim", "4"]) == 0
    out = capsys.readouterr().out
    assert "within bounds" in out
    assert "es_fnoma" in out


def test_usage_error_maps_to_config_exit():
    assert main(["sweep", "--axis", "d2"]) == 1  # missing required args
    assert main(["nonsense"]) == 1


def test_workers_env_propagates(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NOMA_SIM_WORKERS", "not-a-number")
    assert main(["sweep", "--scenario", _scenario_file(tmp_path),
                 "--axis", "d2", "--values", "100"]) == 1
