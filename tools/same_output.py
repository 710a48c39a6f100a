"""Check that two source trees of noma_as give byte-identical output, or
list what one tree's output moves across numpy's CPU dispatch levels.

    python tools/same_output.py OLD_SRC NEW_SRC [--trials 20000] [--seed 3]
    python tools/same_output.py --dispatch SRC [--trials 20000] [--seed 3]

OLD_SRC and NEW_SRC are directories holding the ``noma_as`` package (a
checkout's ``src``).  Each command below runs once per tree, in a fresh
interpreter with ``PYTHONPATH=<src>`` and no bytecode written, in a new
temporary directory that holds copies of the input files; nothing is written
into either tree.  The commands:

- ``figure`` 1-8 at ``--trials`` and ``--seed``, with ``NOMA_SIM_WORKERS``
  1 and 2: the CSV, stdout and stderr;
- ``figure`` 1 with ``NOMA_SIM_WORKERS`` 1.5 and the usable CPUs + 1, both
  refused;
- ``figure`` 1 with ``--out missing/figure.csv``, refused (no such
  directory);
- ``validate`` on ``scenarios/validate_grid.txt`` and
  ``perfbench/validate_grid.txt``, with ``NOMA_SIM_WORKERS`` 1 and 2 (the
  second grid is 13 tasks, more than 2 workers keep in flight);
- ``sweep --scenario scenarios/fig1_a3.txt`` over ``ps_dbm`` 0,10,20,30,40,
  ``n_bs`` 1,2,4,8, ``d1`` 50,1e-100,80 (the last refused) and ``b``
  0.1,0.3,0.5, and over ``ps_dbm`` 0,20,40 with ``--out sweep.csv``: the
  CSV too;
- ``sweep --scenario`` over ``ps_dbm`` 0,20,40 on each of the ``ACCEPTED``
  texts below: ``es`` and ``random`` in both NOMA modes, ``oma_es`` and
  crnoma's ``mcg``.  A sweep reads all four means, so ``es`` picks its
  triples and crnoma reports r2, which no figure and no row-max sweep does;
- ``bench`` at ``--max-dim`` 1, 8 and 64 (the audit's smallest table, a
  middle one and its largest, ``MAX_DIM``);
- ``sweep --scenario`` (over ``d2`` 100) and ``validate --grid`` on each of
  the ``REFUSED`` texts below, most of which the loaders refuse: the
  messages of bad input are output too.

Every command's stdout, stderr and exit code are compared, with the
temporary directory's path read as ``<tmp>``.  Prints each output that
differs and exits 1 if any does, else 0.  The input files are read from the
tree this script is in.

With ``--dispatch SRC`` the commands run on the one tree SRC, once at the
host's dispatch level and once per level below it that numpy offers, each
set by ``NPY_DISABLE_CPU_FEATURES`` in the child's environment only.  Prints
each output that differs from the host level's, with how many cells differ
for a CSV, and exits 0 whatever it finds: a seed fixes the draws only to
1 ulp across levels (README, "Reproducibility").
"""

import argparse
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ("scenarios/fig1_a3.txt", "scenarios/validate_grid.txt", "perfbench/validate_grid.txt")
SWEEPS = (("ps_dbm", "0,10,20,30,40"), ("n_bs", "1,2,4,8"), ("d1", "50,1e-100,80"),
          ("b", "0.1,0.3,0.5"))
_BLOCK = b"mode = fnoma\npolicy = a3\nn_bs = 2\nps_dbm = 30\nb = 0.4\ntrials = 2000\nseed = 1\n"
# {name: bytes} of scenario files the loader accepts, each written as input.txt
ACCEPTED = {f"{mode} {policy}": (f"mode = {mode}\npolicy = {policy}\nn_bs = 2\nps_dbm = 30\n"
                                 f"{parameter}trials = 2000\nseed = 1\n").encode()
            for mode, policy, parameter in (
                ("fnoma", "es", "b = 0.4\n"), ("crnoma", "es", "r_th = 1\n"),
                ("fnoma", "random", "b = 0.4\n"), ("crnoma", "random", "r_th = 1\n"),
                ("oma", "oma_es", ""), ("crnoma", "mcg", "r_th = 1\n"))}
# {name: bytes} of scenario and grid files, each written as input.txt
REFUSED = {
    "no '='": _BLOCK + b"bandwidth\n",
    "duplicate key": _BLOCK + b"b = 0.3\n",
    "unknown key": _BLOCK + b"bandwidth = 20\n",
    "unknown key and bad value": _BLOCK.replace(b"n_bs = 2", b"n_bs = 2.5") + b"bandwidth = 20\n",
    "missing mode": _BLOCK.replace(b"mode = fnoma\n", b""),
    "mode and policy": _BLOCK.replace(b"policy = a3", b"policy = mcg"),
    "no closed form": _BLOCK.replace(b"policy = a3", b"policy = random"),
    "n_bs = 2.5": _BLOCK.replace(b"n_bs = 2", b"n_bs = 2.5"),
    "b = 7": _BLOCK.replace(b"b = 0.4", b"b = 7"),
    "fnoma without b": _BLOCK.replace(b"b = 0.4\n", b""),
    "crnoma with b": _BLOCK.replace(b"mode = fnoma\npolicy = a3", b"mode = crnoma\npolicy = pu")
    + b"r_th = 1\n",
    "fnoma with r_th": _BLOCK + b"r_th = 1\n",
    "oma with b": _BLOCK.replace(b"mode = fnoma\npolicy = a3", b"mode = oma\npolicy = oma_es"),
    "non-UTF-8 byte on line 4": _BLOCK.replace(b"ps_dbm = 30", b"ps_dbm = 3\xff0"),
    "byte-order mark": b"\xef\xbb\xbf" + _BLOCK,
    "CRLF endings": _BLOCK.replace(b"\n", b"\r\n"),
    "empty file": b"",
    "second block unknown key": _BLOCK + b"\n" + _BLOCK + b"bandwidth = 20\n",
    "second block missing mode": _BLOCK + b"\n" + _BLOCK.replace(b"mode = fnoma\n", b""),
    "second block refused closed form":
        _BLOCK + b"\n" + _BLOCK.replace(b"n_bs = 2", b"n_bs = 100"),
    "tolerance = -0.5": _BLOCK + b"tolerance = -0.5\n",
    "blocks split by a comment": _BLOCK + b"# second point\n" + _BLOCK.replace(b"a3", b"aia"),
    "d1 path loss underflows": _BLOCK + b"d1 = 1e-200\n",
    "both path losses out of range": _BLOCK + b"d1 = 1e-200\nd2 = 1e200\n",
    "alpha = 300": _BLOCK + b"alpha = 300\n",
    # not refused by `validate`: one PASS, one N/A and one FAIL line, exit code 2
    "three verdicts": _BLOCK + b"tolerance = 0.05\n\n"
    + _BLOCK.replace(b"ps_dbm = 30", b"ps_dbm = -100") + b"\nmode = crnoma\npolicy = mcg\n"
    b"n_bs = 4\nps_dbm = 20\nr_th = 5\ntrials = 2000\nseed = 1\ntolerance = 0.000001\n",
}


def commands(trials, seed):
    """(name, argv, workers, csv, text) of every command; `csv` is the file
    it writes, if any, and `text` the bytes of its input.txt, if any."""
    out = []
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for figure in range(1, 9):
        for workers in ("1", "2") + (("1.5", str(cpus + 1)) if figure == 1 else ()):
            out.append((f"figure {figure} workers={workers}",
                        ["figure", "--id", str(figure), "--trials", str(trials),
                         "--seed", str(seed), "--out", "figure.csv"],
                        workers, "figure.csv", None))
    out.append(("figure 1 --out missing/figure.csv",
                ["figure", "--id", "1", "--trials", str(trials), "--seed", str(seed),
                 "--out", "missing/figure.csv"], "1", None, None))
    for grid in INPUTS[1:]:
        for workers in ("1", "2"):
            out.append((f"validate {grid} workers={workers}", ["validate", "--grid", grid],
                        workers, None, None))
    for axis, values in SWEEPS:
        out.append((f"sweep {axis} {values}", ["sweep", "--scenario", INPUTS[0], "--axis", axis,
                                               "--values", values], None, None, None))
    out.append(("sweep ps_dbm 0,20,40 --out sweep.csv",
                ["sweep", "--scenario", INPUTS[0], "--axis", "ps_dbm", "--values", "0,20,40",
                 "--out", "sweep.csv"], None, "sweep.csv", None))
    for name, text in ACCEPTED.items():
        out.append((f"sweep {name} ps_dbm 0,20,40",
                    ["sweep", "--scenario", "input.txt", "--axis", "ps_dbm",
                     "--values", "0,20,40"], None, None, text))
    for max_dim in ("1", "8", "64"):
        out.append((f"bench --max-dim {max_dim}", ["bench", "--max-dim", max_dim],
                    None, None, None))
    for name, text in REFUSED.items():
        out.append((f"sweep {name}", ["sweep", "--scenario", "input.txt", "--axis", "d2",
                                       "--values", "100"], None, None, text))
        out.append((f"validate {name}", ["validate", "--grid", "input.txt"], None, None, text))
    return out


def run(src, argv, workers, csv, text, disabled=None):
    """{output: bytes} of one command run on the tree `src`, with the
    dispatch targets `disabled` (None: the environment's setting, "": none)
    turned off in the child."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in INPUTS:
            (Path(tmp) / name).parent.mkdir(exist_ok=True)
            shutil.copyfile(ROOT / name, Path(tmp) / name)
        if text is not None:
            (Path(tmp) / "input.txt").write_bytes(text)
        env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()),
               "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("NOMA_SIM_WORKERS", None)
        if workers:
            env["NOMA_SIM_WORKERS"] = workers
        if disabled is not None:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        proc = subprocess.run([sys.executable, "-m", "noma_as", *argv], cwd=tmp, env=env,
                              capture_output=True)
        outputs = {"stdout": proc.stdout, "stderr": proc.stderr,
                   "exit code": str(proc.returncode).encode()}
        if csv:
            path = Path(tmp) / csv
            outputs["csv"] = path.read_bytes() if path.exists() else b"<missing>"
        return {key: value.replace(tmp.encode(), b"<tmp>") for key, value in outputs.items()}


def _cells_differ(old, new):
    """How many cells of two CSV outputs differ, a cell only one has
    counted."""
    rows = itertools.zip_longest(*([line.split(b",") for line in out.splitlines()]
                                   for out in (old, new)), fillvalue=[])
    return sum(a != b for old_row, new_row in rows
               for a, b in itertools.zip_longest(old_row, new_row))


def dispatch(src, trials, seed):
    """Prints each output of `src` that moves from the host's dispatch level
    to a lower one; returns 0."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    offered = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    if not offered:
        print("numpy dispatches to no level above its baseline on this CPU: nothing to compare")
        return 0
    listed = commands(trials, seed)
    host = [run(src, *command, disabled="") for _, *command in listed]
    for level in range(len(offered)):
        disabled = " ".join(offered[level:])
        compared, differ = 0, 0
        for (name, *command), at_host in zip(listed, host):
            outputs = run(src, *command, disabled=disabled)
            for key, value in outputs.items():
                compared += 1
                if value != at_host[key]:
                    differ += 1
                    cells = (f" ({_cells_differ(at_host[key], value)} cells)"
                             if key == "csv" else "")
                    print(f"differs with {disabled} off: {name}: {key}{cells}", flush=True)
        print(f"with {disabled} off: {compared} outputs compared, {differ} differ from the "
              f"host level", flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--dispatch", metavar="SRC",
                        help="compare SRC's outputs across CPU dispatch levels instead")
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    trees = [args.dispatch] if args.dispatch else [args.old_src, args.new_src]
    if args.dispatch and args.old_src or None in trees:
        parser.error("give OLD_SRC and NEW_SRC, or --dispatch SRC alone")
    for src in trees:
        if not (Path(src) / "noma_as" / "__init__.py").is_file():
            parser.error(f"{src} holds no noma_as package")
    if args.dispatch:
        return dispatch(args.dispatch, args.trials, args.seed)
    compared, differ = 0, []
    for name, *command in commands(args.trials, args.seed):
        old, new = (run(src, *command) for src in (args.old_src, args.new_src))
        for key in old:
            compared += 1
            if old[key] != new[key]:
                differ.append(f"{name}: {key}")
                print(f"differs: {name}: {key}", flush=True)
    print(f"{compared} outputs compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
