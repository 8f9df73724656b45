"""The gainquad benchmark.

    python3 perfbench/run.py --workload payne --seed 1 --seconds 20 --trace 0

Runs one workload in this process as a closed loop with one client: the
next op starts when the previous one returns.  Passes over the
workload's op list repeat until the next pass would end after
``--seconds``; at least one pass always runs.  Every op's output is
checked, and a failed check or an exception counts the op as failed.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` one untraced pass is
followed by traced passes over the same inputs, and the JSON object
holds the per-layer metrics.  Lines before it print every metric by
name and unit, plus the environment.  Run from the repository root; the
program is imported from ``src/``.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import types

from speed import SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS, Outcome

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

# One BLAS thread, so that no run depends on how busy the other core is.
# With two threads the run-to-run spread of payne's wall_s and setup_s
# grew (perfbench/README.md has the numbers).
BLAS_THREADS = 1
MODULES = ("fields", "groups", "geometry", "gains", "construction", "catalog",
           "iso", "search", "cli")
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_MIN_SECONDS = 1.0


def pin_blas_threads():
    """Fix the BLAS pool size; must run before numpy is first imported."""
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def fresh_import():
    """Import gainquad from scratch, so module-level work counts in set-up."""
    for name in [m for m in sys.modules if m == "gainquad" or m.startswith("gainquad.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    gq = types.SimpleNamespace(package=importlib.import_module("gainquad"))
    for name in MODULES:
        setattr(gq, name, importlib.import_module(f"gainquad.{name}"))
    return gq


def set_up(workload, seed, work, size, probe):
    """Import and generate inputs several times; return the last
    repetition's modules and op lists, and the median time (rescaled, raw)."""
    raw, scaled = [], []
    before = probe.bracket()
    while True:
        start = time.perf_counter()
        gq = fresh_import()
        ops = WORKLOADS[workload].prepare(gq, work, seed, size)
        raw.append(time.perf_counter() - start)
        after = probe.bracket()
        scaled.append(probe.rescale(raw[-1], before, after))
        before = after
        if len(raw) >= SETUP_MAX_REPEATS or (
                len(raw) >= SETUP_MIN_REPEATS and sum(raw) >= SETUP_MIN_SECONDS):
            return gq, ops, statistics.median(scaled), statistics.median(raw)


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Tally:
    """Per-op durations and failures across every pass of the run."""

    def __init__(self):
        self.durations = {}  # label -> [(rescaled, raw) seconds]
        self.work = {}
        self.attempted = 0
        self.failures = []

    def record(self, op, scaled, raw, problem):
        self.durations.setdefault(op.label, []).append((scaled, raw))
        self.work[op.label] = op.work
        self.attempted += 1
        if problem:
            self.failures.append(f"{op.label}: {problem}")


def execute(gq, op):
    """Run one op; exceptions become a failed outcome, never a crash."""
    try:
        if op.call is not None:
            return Outcome(value=op.call())
        # Checks read the files an op writes; its console output is dropped.
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = gq.cli.main(op.argv)
            except SystemExit as exc:  # argparse rejects bad usage this way
                rc = exc.code
        return Outcome(rc=rc)
    except Exception:
        return Outcome(error=traceback.format_exc(limit=3))


def run_pass(gq, ops, index, out_dir, tally, probe, tracer=None):
    """One pass over the op list; returns its op seconds (rescaled, raw)."""
    scaled = raw = 0.0
    for entry in os.scandir(out_dir):  # no stale output can pass a check
        os.remove(entry.path)
    before = probe.bracket()
    for op in ops(index):
        if tracer is not None:
            tracer.request = f"{index}:{op.label}"
        start = time.perf_counter()
        outcome = execute(gq, op)
        seconds = time.perf_counter() - start
        after = probe.bracket()
        op_scaled = probe.rescale(seconds, before, after)
        before = after
        scaled += op_scaled
        raw += seconds
        problem = outcome.error
        if problem is None:
            try:
                problem = op.check(outcome)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        tally.record(op, op_scaled, seconds, problem)
    return scaled, raw


def _more_passes(passes, started, seconds):
    typical = statistics.median(raw for _, raw in passes)
    return time.perf_counter() - started + typical <= seconds


def measure(workload, seed, seconds, trace, size="full", work=None):
    """Set up, run the closed loop, and return (result JSON, report lines)."""
    work = work or os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
    out_dir = os.path.join(work, "out")
    try:
        with SpeedProbe() as probe:
            return _measure(workload, seed, seconds, trace, size, work, out_dir, probe)
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, seed, seconds, trace, size, work, out_dir, probe):
    gq, ops, setup_s, setup_raw = set_up(workload, seed, work, size, probe)
    # The benchmark's own inputs and copies stay out of the program's
    # garbage collections, as they would in a standalone CLI run.
    gc.collect()
    gc.freeze()
    tally = Tally()
    started = time.perf_counter()
    lines = [f"env {json.dumps(environment(), sort_keys=True)}",
             f"workload {workload} seed {seed} size {size} trace {trace}"]
    if not trace:
        passes = []
        while not passes or _more_passes(passes, started, seconds):
            passes.append(run_pass(gq, ops, len(passes), out_dir, tally, probe))
        wall_s = statistics.median(scaled for scaled, _ in passes)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        lines.append(f"passes {len(passes)}; pass seconds rescaled "
                     + " ".join(f"{p:.3f}" for p, _ in passes) + ", raw "
                     + " ".join(f"{r:.3f}" for _, r in passes))
        lines.append(f"raw wall_s {statistics.median(r for _, r in passes):.6g} s, "
                     f"raw setup_s {setup_raw:.6g} s")
    else:
        # The overhead is in wall_s terms: rescaled traced minus untraced.
        untraced = run_pass(gq, ops, 0, out_dir, tally, probe)[0]
        tracer = Tracer(gq, out_dir).install()
        passes = []
        try:
            while not passes or _more_passes(passes, started, seconds):
                passes.append(run_pass(gq, ops, 0, out_dir, tally, probe, tracer))
        finally:
            tracer.uninstall()
        peaks = {}
        if tracer.needs_alloc_probe():
            alloc_tracer = Tracer(gq, out_dir, alloc=True).install()
            try:
                run_pass(gq, ops, 0, out_dir, tally, probe, alloc_tracer)
            finally:
                alloc_tracer.uninstall()
            peaks = dict(alloc_tracer.peaks)
        traced = [scaled for scaled, _ in passes]
        metrics = tracer.metrics(len(traced), statistics.median(traced) - untraced, peaks)
        lines.append(f"rescaled seconds of the untraced pass {untraced:.3f}, of the "
                     "traced passes " + " ".join(f"{p:.3f}" for p in traced))
        write_spans(workload, seed, tracer)
    lines += op_lines(tally)
    lines += [f"metric {name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    failed = len(tally.failures)
    lines.append(f"metric fail_ratio {failed / tally.attempted:.6g} ratio "
                 f"({failed} of {tally.attempted} ops failed)")
    lines += [f"FAILED {f}" for f in tally.failures]
    result = {"correct": failed == 0, "attempted": tally.attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def op_lines(tally):
    """Median seconds of each op and, for scans, assignments per second."""
    lines = []
    for label, durations in tally.durations.items():
        median = statistics.median(scaled for scaled, _ in durations)
        raw = statistics.median(r for _, r in durations)
        line = (f"op {label!r} median {median:.4f} s rescaled, {raw:.4f} s raw, "
                f"over {len(durations)}")
        work = tally.work[label]
        if work:
            name = "fast_assignments_per_s" if "--fast" in label else "assignments_per_s"
            line += f"; {name} {work / median:.6g} 1/s rescaled, {work / raw:.6g} 1/s raw"
        lines.append(line)
    return lines


def write_spans(workload, seed, tracer):
    """Spans stay in memory during the run and are written at its end."""
    os.makedirs(OUT, exist_ok=True)
    doc = {"workload": workload, "seed": seed, "environment": environment(),
           "spans": tracer.spans,
           "aggregate": {name: {"calls": tracer.calls[name],
                                "seconds": tracer.total[name],
                                "self_seconds": tracer.self_time[name]}
                         for name in sorted(tracer.calls)}}
    with open(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"), "w") as fh:
        json.dump(doc, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gainquad", "__init__.py")):
        print(f"error: no gainquad sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
