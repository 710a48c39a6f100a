"""One in-process pass of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/trace.py --pass plain|traced -- <noma-as CLI args>

The pass imports ``noma_as`` from the checkout's ``src``, calls
``noma_as.cli.main`` with the given arguments in the current directory and
prints one JSON object as its last stdout line.  The CLI's own stdout is
written to ``stdout.txt``.  ``NOMA_SIM_WORKERS`` comes from the environment.

- ``plain``: no spans; only the executor class the harness looks up is
  wrapped, to count pools.
- ``traced``: spans around each module's entry points as well, recorded
  from here, so the program itself carries no timers.

Every entry point is looked up by name before the run; a missing one raises
instead of reading as zero.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingEntryPoint(RuntimeError):
    """A wrapped entry point no longer exists under its name."""


class Tracer:
    """Spans kept in memory: (name, parent index, trials, start, end).

    A span's parent is the span open when it started.  ``trials`` is the
    amount of work the call handled, read from its arguments.
    """

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, owner, key, name, trials_of=lambda bound: 0):
        """Replace ``owner.key`` (or ``owner[key]`` for a dict) by a
        span-recording wrapper."""
        fn = owner.get(key) if isinstance(owner, dict) else getattr(owner, key, None)
        if not callable(fn):
            where = getattr(owner, "__name__", type(owner).__name__)
            raise MissingEntryPoint(f"entry point {where}.{key} is missing")
        sig = inspect.signature(fn)
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            trials = trials_of(sig.bind(*args, **kwargs).arguments)
            index = len(spans)
            spans.append([name, open_[-1] if open_ else None, trials,
                          time.perf_counter(), None])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][4] = time.perf_counter()

        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)

    def summary(self):
        """Per span name: calls, trials, total and self seconds.

        A span inside another of the same name does not count, so a closed
        form calling another is one call.  Self time is the span's duration
        minus that of its direct children.
        """
        child_s = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out = {}
        for index, (name, parent, trials, start, end) in enumerate(self.spans):
            if parent is not None and self.spans[parent][0] == name:
                continue
            entry = out.setdefault(name, {"calls": 0, "trials": 0, "total_s": 0.0,
                                          "self_s": 0.0, "max_trials": 0})
            entry["calls"] += 1
            entry["trials"] += trials
            entry["max_trials"] = max(entry["max_trials"], trials)
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s[index]
        return out


def _rows(name):
    return lambda bound: len(bound[name])


def install_spans(tracer):
    """Wrap the calls into each layer at the names the program uses."""
    from noma_as import analytics, figures, harness, selection

    tracer.wrap(harness, "run_point", "harness.run_point",
                lambda b: b["trials"] * len(b["policies"]))
    tracer.wrap(figures, "run_point", "harness.run_point",
                lambda b: b["trials"] * len(b["policies"]))
    tracer.wrap(harness, "sample_channel_batch", "channel.sample",
                lambda b: b["count"])
    tracer.wrap(selection, "_es_fnoma_triples", "selection.es_fnoma", _rows("h"))
    tracer.wrap(selection, "_es_crnoma_triples", "selection.es_crnoma", _rows("h"))
    tracer.wrap(selection, "_random_triples", "selection.random", lambda b: b["count"])
    tracer.wrap(selection, "_oma_indices", "selection.oma", _rows("h"))
    for (mode, policy) in (("fnoma", "a3"), ("fnoma", "aia"), ("crnoma", "mcg"),
                           ("crnoma", "pu"), ("crnoma", "su")):
        if (mode, policy) not in harness._TRIPLES:
            raise MissingEntryPoint(f"entry point harness._TRIPLES[{(mode, policy)}] is missing")
        tracer.wrap(harness._TRIPLES, (mode, policy), f"selection.{policy}", _rows("h"))
    tracer.wrap(harness, "fnoma_pair_rates", "rates.fnoma_pair_rates", _rows("h"))
    tracer.wrap(harness, "cr_rates", "rates.cr_rates", _rows("h"))
    tracer.wrap(harness, "oma_pair_rates", "rates.oma_pair_rates", _rows("h_best"))
    tracer.wrap(harness, "_make_report", "harness.reduce", _rows("r1"))
    for fn in ("a3_avg_sum_rate", "aia_avg_sum_rate", "mcg_avg_secondary_rate",
               "pu_avg_secondary_rate", "su_avg_secondary_rate"):
        tracer.wrap(analytics, fn, "analytics.closed_form")
        tracer.wrap(figures, fn, "analytics.closed_form")
    tracer.wrap(figures, "write_csv", "figures.csv_write")


def install_pool_counter(harness, stats):
    """Subclass the executor the harness looks up; time the parent's work
    to start a pool (constructor, first submit, which starts the workers)
    and to shut it down."""
    base = getattr(harness, "ProcessPoolExecutor", None)
    if base is None:
        raise MissingEntryPoint("entry point noma_as.harness.ProcessPoolExecutor is missing")

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            t0 = time.perf_counter()
            super().__init__(*args, **kwargs)
            stats["pools_started"] += 1
            stats["pool_start_s"] += time.perf_counter() - t0
            self._bench_started = False

        def submit(self, *args, **kwargs):
            if self._bench_started:
                return super().submit(*args, **kwargs)
            self._bench_started = True
            t0 = time.perf_counter()
            try:
                return super().submit(*args, **kwargs)
            finally:
                stats["pool_start_s"] += time.perf_counter() - t0

        def shutdown(self, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return super().shutdown(*args, **kwargs)
            finally:
                stats["pool_start_s"] += time.perf_counter() - t0

    harness.ProcessPoolExecutor = CountingPool


def main(argv):
    if len(argv) < 3 or argv[0] != "--pass" or argv[2] != "--":
        raise SystemExit("usage: trace.py --pass plain|traced -- <CLI args>")
    mode, cli_args = argv[1], argv[3:]
    if mode not in ("plain", "traced"):
        raise SystemExit(f"unknown pass {mode!r}")
    sys.path.insert(0, str(SRC))
    import noma_as
    from noma_as import cli, harness

    if not Path(noma_as.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"noma_as imported from {noma_as.__file__}, not from {SRC}")
    tracer = Tracer()
    if mode == "traced":
        install_spans(tracer)
    pools = {"pools_started": 0, "pool_start_s": 0.0}
    install_pool_counter(harness, pools)

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        t0 = time.perf_counter()
        rc = cli.main(cli_args)
        wall = time.perf_counter() - t0
    Path("stdout.txt").write_bytes(captured.getvalue().encode("utf-8"))
    print(json.dumps({"rc": rc, "wall_s": wall, "layers": tracer.summary(), **pools}))


if __name__ == "__main__":
    main(sys.argv[1:])
