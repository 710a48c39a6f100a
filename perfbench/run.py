#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the noma-as CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--trials T]

Run from anywhere; the checkout is the directory above this file, and the
program is imported from its ``src``.  Scratch files go to
``.perfbench_run/`` in the checkout.

``--trace 0`` runs ``python -m noma_as`` as a user does, one process per
sample with ``NOMA_SIM_WORKERS`` pinned, for at least ``--seconds`` and at
least three samples, and reports the medians of the end-to-end metrics.
``--trace 1`` runs the workload in-process once untraced and once traced at
one worker (spans from ``trace.py``), once more at the workload's worker
count to count pools, and reports the per-layer metrics; it ignores
``--seconds``.

Both modes check every output (see ``check_figure`` / ``check_validate``),
require identical output bytes from every run of a (workload, seed, trials)
input, and print one JSON result as the last stdout line.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
PINNED_GRID = HERE / "validate_grid.txt"

CHUNK = 16384  # the harness's trial chunk: a pool starts only above one chunk
MIN_SAMPLES = 3
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3

PS_GRID = tuple(range(0, 45, 5))  # x-axis of figures 1 and 7
PLACEMENTS = ("_ue1near", "_ue2near")


@dataclass(frozen=True)
class Workload:
    figure: int | None  # None: `noma-as validate` on the pinned grid
    trials: int | None  # None: the pinned grid's own per-point trials
    workers: int
    evals_per_row: int  # policies run per figure row (trial evals = trials x this)
    dominance: dict  # exhaustive-search column -> columns it may not fall below


WORKLOADS = {
    "fig1_fnoma_power": Workload(
        1, 32768, 2, 5,
        {"fnoma_es": ("a3_sim", "aia_sim", "fnoma_ra")}),
    "fig7_crnoma_power": Workload(
        7, 32768, 2, 2 * 5,
        {f"cr_es{p}": tuple(f"{c}{p}" for c in ("mcg_sim", "pu_sim", "su_sim", "cr_ra"))
         for p in PLACEMENTS}),
    "validate_grid": Workload(None, None, 1, 1, {}),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB",
              "trial_evals_per_s": "1/s", "setup_s": "s"}

F1, F7, V = WORKLOADS
ALL = frozenset(WORKLOADS)
POOLED = frozenset({F1, F7})  # when the trial count exceeds one chunk

# per-layer metric -> (unit, workloads on which it is non-zero; zero on the
# others).  None: not checked.
PER_LAYER = {
    "channel.sample_us_per_trial": ("us/trial", ALL),
    "channel.trials_sampled": ("count", ALL),
    "selection.es_fnoma_us_per_trial": ("us/trial", {F1}),
    "selection.es_crnoma_us_per_trial": ("us/trial", {F7}),
    "selection.a3_us_per_trial": ("us/trial", {F1, V}),
    "selection.aia_us_per_trial": ("us/trial", {F1, V}),
    "selection.mcg_us_per_trial": ("us/trial", {F7, V}),
    "selection.pu_us_per_trial": ("us/trial", {F7, V}),
    "selection.su_us_per_trial": ("us/trial", {F7, V}),
    "selection.random_us_per_trial": ("us/trial", {F1, F7}),
    "selection.oma_us_per_trial": ("us/trial", {F1}),
    "selection.kernel_trials": ("count", ALL),
    "rates.fnoma_pair_rates_us_per_trial": ("us/trial", {F1, V}),
    "rates.cr_rates_us_per_trial": ("us/trial", {F7, V}),
    "rates.oma_pair_rates_us_per_trial": ("us/trial", {F1}),
    "harness.reduce_us_per_trial": ("us/trial", ALL),
    "harness.pools_started": ("count", POOLED),
    "harness.pool_start_s": ("s", POOLED),
    "harness.result_mib": ("MiB", ALL),
    "harness.self_s": ("s", ALL),
    "analytics.closed_form_ms": ("ms", ALL),
    "analytics.closed_form_calls": ("count", ALL),
    "figures.csv_write_ms": ("ms", {F1, F7}),
    "setup.scipy_import_s": ("s", ALL),
    "setup.noma_as_import_s": ("s", ALL),
    "trace.overhead_pct": ("%", None),
}
KERNELS = ("es_fnoma", "es_crnoma", "a3", "aia", "mcg", "pu", "su", "random", "oma")
RATES = ("fnoma_pair_rates", "cr_rates", "oma_pair_rates")


# ---------------------------------------------------------------------------
# inputs


@dataclass(frozen=True)
class Inputs:
    cli_args: tuple  # after `python -m noma_as`, relative to the work dir
    trials: int  # per point
    ops: int  # figure rows or validate points per CLI run
    trial_evals: int  # sum of trials x policies over the run's points


def grid_text(seed, trials=None):
    """The pinned grid with every block's seed (and trials) replaced."""
    text = PINNED_GRID.read_text(encoding="utf-8")
    blocks = len(re.findall(r"(?m)^mode\s*=", text))
    text, n = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", text)
    if n != blocks:
        raise ValueError(f"{PINNED_GRID}: {n} seed lines for {blocks} blocks")
    if trials is not None:
        text, n = re.subn(r"(?m)^trials\s*=.*$", f"trials = {trials}", text)
        if n != blocks:
            raise ValueError(f"{PINNED_GRID}: {n} trials lines for {blocks} blocks")
    return text


def prepare(wl: Workload, seed, trials, workdir: Path) -> Inputs:
    """Write the workload's input files into workdir; trials=None keeps the
    workload's default."""
    workdir.mkdir(parents=True, exist_ok=True)
    if wl.figure is not None:
        trials = trials or wl.trials
        args = ("figure", "--id", str(wl.figure), "--trials", str(trials),
                "--seed", str(seed), "--out", "out.csv")
        return Inputs(args, trials, len(PS_GRID),
                      len(PS_GRID) * wl.evals_per_row * trials)
    text = grid_text(seed, trials)
    (workdir / "grid.txt").write_text(text, encoding="utf-8")
    per_point = [int(t) for t in re.findall(r"(?m)^trials\s*=\s*(\S+)", text)]
    return Inputs(("validate", "--grid", "grid.txt"), max(per_point), len(per_point),
                  sum(per_point))


# ---------------------------------------------------------------------------
# output checks: (failed ops, problems) for one run of the CLI


def check_figure(wl: Workload, rc, csv_bytes):
    ops = len(PS_GRID)
    if rc != 0:
        return ops, [f"exit code {rc}"]
    lines = csv_bytes.decode("utf-8").splitlines()
    if len(lines) != 1 + ops:
        return ops, [f"{len(lines)} CSV lines, expected {1 + ops}"]
    header = lines[0].split(",")
    missing = [c for es, cols in wl.dominance.items() for c in (es, *cols)
               if c not in header]
    if missing:
        return ops, [f"CSV lacks columns {missing}"]
    col = {name: i for i, name in enumerate(header)}
    failed, problems = 0, []
    for index, x in enumerate(PS_GRID):
        try:
            row = [float(v) for v in lines[1 + index].split(",")]
        except ValueError:
            failed += 1
            problems.append(f"row {x}: malformed")
            continue
        bad = []
        if len(row) != len(header):
            bad.append(f"{len(row)} values for {len(header)} columns")
        elif not all(math.isfinite(v) for v in row):
            bad.append("non-finite value")
        elif row[0] != x:
            bad.append(f"axis value {row[0]}")
        else:
            bad += [f"{es}={row[col[es]]!r} < {c}={row[col[c]]!r}"
                    for es, cols in wl.dominance.items() for c in cols
                    if row[col[es]] < row[col[c]]]
        if bad:
            failed += 1
            problems.append(f"row {x}: " + "; ".join(bad))
    return failed, problems


def check_validate(rc, stdout_bytes, ops):
    if rc != 0:
        return ops, [f"exit code {rc}"]
    lines = stdout_bytes.decode("utf-8").splitlines()
    if len(lines) != ops:
        return ops, [f"{len(lines)} validate lines, expected {ops}"]
    problems = [ln for ln in lines if not (ln.endswith(" PASS") or " N/A " in ln)]
    return len(problems), problems


def check_outputs(wl: Workload, inputs: Inputs, rc, workdir: Path):
    """(failed ops, problems, digest) of the outputs left in workdir."""
    stdout = (workdir / "stdout.txt").read_bytes()
    csv_path = workdir / "out.csv"
    csv = csv_path.read_bytes() if csv_path.exists() else b""
    if wl.figure is not None:
        failed, problems = check_figure(wl, rc, csv)
    else:
        failed, problems = check_validate(rc, stdout, inputs.ops)
    digest = {"stdout": hashlib.sha256(stdout).hexdigest(),
              "csv": hashlib.sha256(csv).hexdigest()}
    return failed, problems, digest


def check_digest_history(key, digest):
    """Problems if an earlier run of the same input in this checkout wrote
    other bytes; records the digest otherwise."""
    path = RUN_DIR / "digests.json"
    history = json.loads(path.read_text()) if path.exists() else {}
    if key in history and history[key] != digest:
        return [f"output bytes differ from an earlier run of {key}: "
                f"{history[key]} vs {digest}"]
    history[key] = digest
    path.write_text(json.dumps(history, indent=1, sort_keys=True))
    return []


# ---------------------------------------------------------------------------
# processes


def child_env(workers):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["NOMA_SIM_WORKERS"] = str(workers)
    return env


def run_child(argv, cwd, env, stdout):
    """Run one process to completion; (exit code, wall s, rusage of the
    process and its reaped descendants)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def import_seconds(extra=()):
    """Wall time of a fresh interpreter importing noma_as, and its stderr."""
    env = child_env(1)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *extra, "-c", "import noma_as"],
                          cwd=RUN_DIR, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import noma_as failed:\n{proc.stderr}")
    return wall, proc.stderr


def importtime_seconds(stderr):
    """(scipy, noma_as) cumulative import seconds from `-X importtime`.

    scipy counts every scipy module imported outside another scipy module,
    wherever in the tree it is first imported.
    """
    entries = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
        if m:
            entries.append((len(m.group(2)) // 2, m.group(3), int(m.group(1)) * 1e-6))
    scipy_s = noma_s = 0.0
    stack = []  # (depth, is scipy) of ancestors; children precede parents
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            scipy_s += cumulative
        if name == "noma_as":
            noma_s += cumulative
        stack.append((depth, is_scipy))
    if noma_s == 0.0:
        raise RuntimeError("-X importtime shows no noma_as import")
    return scipy_s, noma_s


def host_probe_ms():
    """Median time of a fixed pure-Python loop: the load average shows only
    this machine's own processes, this also shows contention from outside."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def environment():
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "loadavg_1m": os.getloadavg()[0],
            "host_probe_ms": host_probe_ms()}


# ---------------------------------------------------------------------------
# end-to-end runs


def measure(name, seed, seconds, trials):
    wl = WORKLOADS[name]
    workdir = RUN_DIR / f"{name}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = prepare(wl, seed, trials, workdir)
    env = child_env(wl.workers)
    argv = [sys.executable, "-m", "noma_as", *inputs.cli_args]
    record = {"workload": name, "seed": seed, "trials": inputs.trials,
              "workers": wl.workers, "env_start": environment()}

    import_seconds()  # compiles bytecode; not timed
    setup = [import_seconds()[0] for _ in range(SETUP_REPEATS)]

    samples, digests, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        (workdir / "out.csv").unlink(missing_ok=True)
        with open(workdir / "stdout.txt", "wb") as out:
            rc, wall, usage = run_child(argv, workdir, env, out)
        bad, why, digest = check_outputs(wl, inputs, rc, workdir)
        attempted += inputs.ops
        failed += bad
        problems += why
        digests.append(digest)
        samples.append({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                        "peak_rss_mib": usage.ru_maxrss / 1024})

    if any(d != digests[0] for d in digests):
        problems.append(f"output bytes differ between runs: {digests}")
    problems += check_digest_history(f"{name}/{seed}/{inputs.trials}", digests[0])
    wall = statistics.median(s["wall_s"] for s in samples)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in samples),
        "trial_evals_per_s": inputs.trial_evals / wall,
        "setup_s": statistics.median(setup),
    }
    record.update(sha256=digests[0], samples=samples, setup_s=setup,
                  env_end=environment())
    return record, metrics, END_TO_END, attempted, failed, problems


# ---------------------------------------------------------------------------
# traced run


def run_pass(name, wl, mode, seed, trials, workers):
    """One in-process pass (trace.py) in its own interpreter."""
    workdir = RUN_DIR / f"{name}-seed{seed}-{mode}-w{workers}"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = prepare(wl, seed, trials, workdir)
    argv = [sys.executable, str(HERE / "trace.py"), "--pass", mode, "--",
            *inputs.cli_args]
    with open(workdir / "pass.json", "wb") as out:
        rc, _, _ = run_child(argv, workdir, child_env(workers), out)
    if rc != 0:
        raise RuntimeError(f"{mode} pass at {workers} worker(s) exited with {rc}")
    result = json.loads((workdir / "pass.json").read_text().splitlines()[-1])
    failed, problems, digest = check_outputs(wl, inputs, result["rc"], workdir)
    return inputs, result, failed, problems, digest


def layer_metrics(layers, pools, plain_wall, traced_wall, imports):
    def entry(span):
        return layers.get(span, {"calls": 0, "trials": 0, "total_s": 0.0,
                                 "self_s": 0.0, "max_trials": 0})

    def us_per_trial(span):
        e = entry(span)
        return 1e6 * e["total_s"] / e["trials"] if e["trials"] else 0.0

    m = {"channel.sample_us_per_trial": us_per_trial("channel.sample"),
         "channel.trials_sampled": entry("channel.sample")["trials"]}
    for k in KERNELS:
        m[f"selection.{k}_us_per_trial"] = us_per_trial(f"selection.{k}")
    m["selection.kernel_trials"] = sum(entry(f"selection.{k}")["trials"] for k in KERNELS)
    for r in RATES:
        m[f"rates.{r}_us_per_trial"] = us_per_trial(f"rates.{r}")
    run_point = entry("harness.run_point")
    m.update({
        "harness.reduce_us_per_trial": us_per_trial("harness.reduce"),
        "harness.pools_started": pools["pools_started"],
        "harness.pool_start_s": pools["pool_start_s"],
        # two float64 arrays per trial and policy, held for the largest point
        "harness.result_mib": 2 * 8 * run_point["max_trials"] / 2 ** 20,
        "harness.self_s": run_point["self_s"],
        "analytics.closed_form_ms": 1e3 * entry("analytics.closed_form")["total_s"],
        "analytics.closed_form_calls": entry("analytics.closed_form")["calls"],
        "figures.csv_write_ms": 1e3 * entry("figures.csv_write")["total_s"],
        "setup.scipy_import_s": statistics.median(s for s, _ in imports),
        "setup.noma_as_import_s": statistics.median(n for _, n in imports),
        "trace.overhead_pct": 100.0 * (traced_wall - plain_wall) / plain_wall,
    })
    return m


def pattern_problems(name, metrics, trials, workers):
    """Metrics whose zero/non-zero reading contradicts PER_LAYER."""
    problems = []
    for metric, (_, nonzero_on) in PER_LAYER.items():
        if nonzero_on is None:
            continue
        expect = name in nonzero_on
        if nonzero_on is POOLED:
            expect = expect and workers > 1 and trials > CHUNK
        if (metrics[metric] != 0) != expect:
            problems.append(f"{metric} = {metrics[metric]} on {name}, expected "
                            f"{'non-zero' if expect else 'zero'}")
    return problems


def trace(name, seed, trials):
    wl = WORKLOADS[name]
    record = {"workload": name, "seed": seed, "workers": wl.workers,
              "env_start": environment()}
    import_seconds()
    imports = [importtime_seconds(import_seconds(("-X", "importtime"))[1])
               for _ in range(IMPORTTIME_REPEATS)]
    passes = [run_pass(name, wl, "plain", seed, trials, 1),
              run_pass(name, wl, "traced", seed, trials, 1)]
    if wl.workers != 1:
        passes.append(run_pass(name, wl, "plain", seed, trials, wl.workers))
    inputs = passes[0][0]
    problems = [p for *_, why, _ in passes for p in why]
    digests = [digest for *_, digest in passes]
    if any(d != digests[0] for d in digests):
        problems.append(f"output bytes differ between passes: {digests}")
    problems += check_digest_history(f"{name}/{seed}/{inputs.trials}", digests[0])

    plain, traced, pooled = passes[0][1], passes[1][1], passes[-1][1]
    metrics = layer_metrics(traced["layers"], pooled, plain["wall_s"],
                            traced["wall_s"], imports)
    problems += pattern_problems(name, metrics, inputs.trials, wl.workers)
    units = {k: unit for k, (unit, _) in PER_LAYER.items()}
    record.update(trials=inputs.trials, sha256=digests[0], layers=traced["layers"],
                  pass_wall_s=[p[1]["wall_s"] for p in passes], env_end=environment())
    attempted = inputs.ops * len(passes)
    failed = sum(p[2] for p in passes)
    return record, metrics, units, attempted, failed, problems


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per point (default: the workload's own)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "noma_as" / "__init__.py").is_file():
        print(f"error: {SRC / 'noma_as'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    if args.trace:
        record, metrics, units, attempted, failed, problems = trace(
            args.workload, args.seed, args.trials)
    else:
        record, metrics, units, attempted, failed, problems = measure(
            args.workload, args.seed, args.seconds, args.trials)
    record["problems"] = problems
    (RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"{key:40s} {value:14.6g} {units[key]}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
