"""Host speed, sampled while the program runs.

The machines this benchmark runs on are shared.  Other tenants slow
every instruction stream by up to 1.7x for tens of seconds at a time,
which is as long as a run, so raw times of one commit differ by more
between runs than the regressions the benchmark must catch.

A fixed reference workload measures how slow the host is right now: a
long bracket runs before and after every op, and a short sample runs
from a SIGALRM handler every SAMPLE_INTERVAL_S while the op runs.  The
reference mixes integer arithmetic, dict and tuple traffic, and small
numpy calls, because contention slows these by different factors and
the program does all three; it tracked the program's slowdown better
than any one of them alone.

An op's time is divided by the mean slowdown of the samples taken from
its first bracket to its last, which reports it at the reference
workload's uncontended speed.  The handler touches nothing of the
program's, and its cost, about 1% of every op, is the same on every
commit.
"""

import signal
import statistics
import time

# Seconds one bracket takes on an idle core of the machine that
# perfbench/README.md describes; it only sets the scale of the results.
REFERENCE_S = 0.027
SAMPLE_SHARE = 10  # a sample is a tenth of a bracket
SAMPLE_INTERVAL_S = 0.25


def reference_work(share=1):
    """Seconds taken by 1/share of the fixed reference workload."""
    import numpy  # imported here: the BLAS thread count is pinned first

    labels = numpy.arange(200) % 17
    start = time.perf_counter()
    acc = 0
    for i in range(130_000 // share):
        acc += i * i % 7
    table = {}
    for i in range(45_000 // share):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + 1
    for _ in range(700 // share):
        numpy.unique(labels, return_inverse=True)
    return time.perf_counter() - start


class SpeedProbe:
    """Slowdown samples (time, measured / reference) over a with-block."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, reference_work(SAMPLE_SHARE) * SAMPLE_SHARE / REFERENCE_S))

    def bracket(self):
        """Take a long sample now; returns its start time."""
        start = time.perf_counter()
        self.samples.append((start, reference_work() / REFERENCE_S))
        return start

    def rescale(self, seconds, since, until):
        """seconds at reference speed, from the samples in [since, until]."""
        window = [s for t, s in self.samples if since <= t <= until]
        return seconds / statistics.fmean(window)
