#!/usr/bin/env python3
"""Self-test of the benchmark; exits non-zero on the first failed check.

    python3 perfbench/selftest.py

Checks, in order:
1. BENCHMARK.json names workloads run.py has and exactly the metrics it
   reports.
2. The output checks catch a dominance violation, a non-finite value, a
   FAIL line and a non-zero exit.
3. Every workload, run through the CLI at one chunk plus one trial (the
   smallest count that starts a pool), writes the same bytes with 1 and 2
   workers and passes its output checks.
4. The traced run of every workload at that count is correct: all entry
   points found, and every per-layer metric zero or non-zero as PER_LAYER
   says (so selection.random_* and harness.pools_started read zero on
   validate_grid).
5. A directory holding only BENCHMARK.json and perfbench/ makes run.py exit
   non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

TRIALS = run.CHUNK + 1
SEED = 7


def fail(message):
    raise SystemExit(f"selftest FAILED: {message}")


def check_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    if not workloads <= set(run.WORKLOADS):
        fail(f"BENCHMARK.json workloads {sorted(workloads)} not in {sorted(run.WORKLOADS)}")
    for key, reported in (("end_to_end", run.END_TO_END),
                          ("per_layer", {k: u for k, (u, _) in run.PER_LAYER.items()})):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != reported:
            fail(f"BENCHMARK.json {key} {declared} != reported {reported}")
    print("ok  BENCHMARK.json matches the reported metrics")


def check_checkers():
    fig1 = run.WORKLOADS["fig1_fnoma_power"]
    header = "ps_dbm,fnoma_es,a3_sim,a3_analytic,aia_sim,aia_analytic,fnoma_ra,oma_es"
    good = [f"{x},10,10,10,9,9,5,4" for x in run.PS_GRID]

    def failed(rows, rc=0):
        return run.check_figure(fig1, rc, "\n".join([header, *rows, ""]).encode())[0]

    cases = {
        "clean CSV": (failed(good), 0),
        "es below aia": (failed(good[:3] + ["15,10,10,10,11,9,5,4"] + good[4:]), 1),
        "nan value": (failed(good[:1] + ["0,nan,10,10,9,9,5,4"] + good[2:]), 1),
        "exit code 1": (failed(good, rc=1), len(run.PS_GRID)),
        "missing row": (failed(good[:-1]), len(run.PS_GRID)),
        "validate PASS": (run.check_validate(0, b"x PASS\ny PASS\n", 2)[0], 0),
        "validate FAIL": (run.check_validate(0, b"x PASS\ny FAIL\n", 2)[0], 1),
    }
    for name, (got, want) in cases.items():
        if got != want:
            fail(f"output check on {name}: {got} failed ops, expected {want}")
    print("ok  output checks count failed ops")


def check_worker_identity():
    for name, wl in run.WORKLOADS.items():
        digests = []
        for workers in (1, 2):
            workdir = run.RUN_DIR / f"selftest-{name}-w{workers}"
            shutil.rmtree(workdir, ignore_errors=True)
            inputs = run.prepare(wl, SEED, TRIALS, workdir)
            argv = [sys.executable, "-m", "noma_as", *inputs.cli_args]
            with open(workdir / "stdout.txt", "wb") as out:
                rc, _, _ = run.run_child(argv, workdir, run.child_env(workers), out)
            failed, problems, digest = run.check_outputs(wl, inputs, rc, workdir)
            if failed or problems:
                fail(f"{name} at {workers} worker(s): {failed} failed ops {problems}")
            digests.append(digest)
        if digests[0] != digests[1]:
            fail(f"{name}: 1 and 2 workers wrote different bytes {digests}")
        print(f"ok  {name}: 1 and 2 workers write identical bytes {digests[0]['csv'][:12]}"
              f"/{digests[0]['stdout'][:12]}")


def check_traced_runs():
    for name in run.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", name,
             "--seed", str(SEED), "--seconds", "1", "--trace", "1",
             "--trials", str(TRIALS)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            fail(f"traced {name} exited with {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"]:
            fail(f"traced {name} not correct:\n{proc.stderr}")
        if set(result["metrics"]) != set(run.PER_LAYER):
            fail(f"traced {name} reported {sorted(result['metrics'])}")
        print(f"ok  {name}: traced run correct, per-layer zero/non-zero pattern holds")


def check_bare_directory():
    bare = run.RUN_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "fig1_fnoma_power",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main():
    run.RUN_DIR.mkdir(exist_ok=True)
    check_benchmark_json()
    check_checkers()
    check_worker_identity()
    check_traced_runs()
    check_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
