"""Command-line front end.

Subcommands: `figure` (figure-reproduction CSV), `sweep` (one-axis sweep of
a scenario file), `validate` (closed form vs Monte Carlo on a grid file),
`bench` (audit of the comparison-count formulas against the advertised
complexity bounds).

Exit codes: 0 success, 1 configuration error, 2 validation-tolerance
failure, 3 I/O error, 4 a worker process died (`BrokenProcessPool`), 130
interrupted (Ctrl-C), 143 and 129 ended by SIGTERM and SIGHUP; all but 0
and 2 print one line on stderr.  A run that fails or is interrupted,
SIGTERM and SIGHUP included, leaves its output file as it was, removes its
`.tmp` and stops its workers; only SIGKILL leaves the `.tmp` behind, and
the workers then exit on their own.  SIGTERM or SIGHUP ignored at start
(`nohup`) stays ignored.
NOMA_SIM_WORKERS sets the number of worker processes, at most the CPUs
this process may run on; a larger, zero or non-integer value is a
configuration error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import signal
import sys
import threading
from concurrent.futures import BrokenExecutor
from contextlib import nullcontext

from .figures import open_csv, reproduce_figure, write_csv
from .harness import (QUANTITIES, SWEEP_AXES, ConfigurationError, load_scenario,
                      load_validation_grid, sweep_run, validate_asymptotics)
from .selection import POLICIES

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TOLERANCE = 2
EXIT_IO = 3
EXIT_WORKER = 4
# bench audits max_dim**3 configurations; at 64 the command took 0.66 s,
# start-up included, on a 2-CPU virtual machine
MAX_DIM = 64


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them to code 1
    def error(self, message):
        raise ConfigurationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="noma-as",
                     description="MIMO-NOMA joint antenna-selection simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="reproduce one figure sweep as CSV")
    fig.add_argument("--id", type=int, required=True, help="figure id, 1..8")
    fig.add_argument("--trials", type=int, default=100_000)
    fig.add_argument("--seed", type=int, default=1)
    fig.add_argument("--out", required=True, help="output CSV path")

    swp = sub.add_parser("sweep", help="sweep one axis of a scenario file")
    swp.add_argument("--scenario", required=True, help="scenario key=value file")
    swp.add_argument("--axis", required=True, help=" | ".join(SWEEP_AXES))
    swp.add_argument("--values", required=True, help="comma-separated values")
    swp.add_argument("--out", help="output CSV path (default: stdout)")

    val = sub.add_parser("validate", help="closed form vs Monte Carlo checks")
    val.add_argument("--grid", required=True,
                     help="grid file: blank-line-separated scenario blocks")

    ben = sub.add_parser("bench", help="comparison-count formulas vs complexity bounds")
    ben.add_argument("--max-dim", type=int, default=8,
                     help=f"check all antenna counts in {{1..max-dim}}^3, max-dim <= {MAX_DIM}")
    return parser


def _cmd_figure(args) -> int:
    reproduce_figure(args.id, args.trials, args.seed, args.out)
    print(f"figure {args.id}: wrote {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scn = load_scenario(args.scenario)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigurationError(f"--values must be numbers, got {args.values!r}") from None
    if not values:
        raise ConfigurationError("--values is empty")
    results = sweep_run([scn], args.axis, values)
    header = [args.axis, *QUANTITIES, *(q.replace("mean_", "stderr_") for q in QUANTITIES),
              "trials", "mean_eval_count"]
    # the output is opened once every point is checked, before any trial runs
    with open_csv(args.out) if args.out else nullcontext(sys.stdout) as f:
        rows = [[v, *(getattr(r, q) for q in QUANTITIES), *r.std_err.values(), point.trials,
                 POLICIES[point.mode, name].count(point.fading.n_bs, point.fading.m_ue1,
                                                  point.fading.k_ue2)]
                for v, [(point, reports)] in results for name, r in reports.items()]
        write_csv(f, header, rows)
    if args.out:
        print(f"sweep over {args.axis}: wrote {args.out}")
    return EXIT_OK


_VERDICTS = {"pass": "PASS", "fail": "FAIL",
             "not-applicable": "N/A (SNR below asymptotic domain)"}


def _cmd_validate(args) -> int:
    points = load_validation_grid(args.grid)
    results = validate_asymptotics(points)
    for point, res in zip(points, results):
        scn = point.scenario
        label = (f"{scn.policies[0]:>4s} {scn.mode:<6s} N={scn.fading.n_bs} "
                 f"ps={scn.fading.ps_dbm:g}dBm d1={scn.fading.d1:g} d2={scn.fading.d2:g}")
        print(f"{label}: closed={point.closed_form:.6g} mc={res.monte_carlo:.6g} "
              f"gap={100 * res.rel_gap:.3f}% tol={100 * point.tolerance:g}% "
              f"{_VERDICTS[res.status]}")
    return EXIT_TOLERANCE if any(r.status == "fail" for r in results) else EXIT_OK


def _cmd_bench(args) -> int:
    if not 1 <= args.max_dim <= MAX_DIM:
        raise ConfigurationError(f"--max-dim must be in 1..{MAX_DIM}, got {args.max_dim}")
    audited = [p for p in POLICIES.values() if p.bound is not None]
    dims = range(1, args.max_dim + 1)
    print(f"{'policy':>10s} {'bound':>12s}   counts for (N, M=K=2), N=1..{args.max_dim}")
    for p in audited:
        print(f"{p.bound.row:>10s} {p.bound.text:>12s}   {[p.count(n, 2, 2) for n in dims]}")
    exceeded = [(p.bound.row, n, m, k, count)
                for n, m, k in itertools.product(dims, repeat=3) for p in audited
                if (count := p.count(n, m, k)) > p.bound.limit(n, m, k)]
    for v in exceeded:
        print("BOUND EXCEEDED:", v)
    if exceeded:
        return EXIT_TOLERANCE
    print(f"all counts within bounds over {args.max_dim ** 3} antenna configurations "
          f"(exhaustive counts exactly N*M*K)")
    return EXIT_OK


# signals that end a run as Ctrl-C does: the new output file is removed and
# the pool shut down
_SIGNALS = [getattr(signal, name) for name in ("SIGTERM", "SIGHUP") if hasattr(signal, name)]


def _interrupt(pid, signum, frame):
    """Handler of `_SIGNALS` in the CLI process `pid`.  A pool worker
    inherits it when forked, yet dies by the signal as by default, so a
    worker ended alone is reported as a dead worker (exit 4)."""
    if os.getpid() != pid:
        signal.signal(signum, signal.SIG_DFL)
        signal.raise_signal(signum)
    raise KeyboardInterrupt(signum)


def main(argv=None) -> int:
    parser = _build_parser()
    handler = functools.partial(_interrupt, os.getpid())
    # a signal ignored at start (nohup, trap '' HUP) stays ignored
    previous = ({signum: signal.signal(signum, handler) for signum in _SIGNALS
                 if signal.getsignal(signum) is not signal.SIG_IGN}
                if threading.current_thread() is threading.main_thread() else {})
    try:
        args = parser.parse_args(argv)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_bench(args)
    except ValueError as exc:  # ConfigurationError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BrokenExecutor as exc:  # BrokenProcessPool included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except KeyboardInterrupt as exc:  # Ctrl-C, or one of `_SIGNALS` as its args
        signum = exc.args[0] if exc.args else signal.SIGINT
        by = f" by {signal.Signals(signum).name}" if exc.args else ""
        print(f"interrupted{by}", file=sys.stderr)
        return 128 + signum
    finally:  # in-process callers keep their own handlers
        for signum, old in previous.items():
            signal.signal(signum, old)


if __name__ == "__main__":
    sys.exit(main())
