"""Task timing that corrects for contention from other tenants of the machine.

The benchmark runs on shared cores: identical work measured minutes apart
differs by 20% and more, while the fastest of many short identical probes
stays within a few percent.  So while a task runs, a 25 Hz interval timer
runs a fixed probe from a signal handler in the same thread: a ``lexsort``
of 20k int64 key pairs, whose working set (about 0.5 MB) feels cache and
memory contention as the program's merges and big-integer loops do.  The
task's time is scaled by how much slower than ``PROBE_NOMINAL_S`` the probe
ran meanwhile:

    adjusted_s = (wall_s - probe_s) * PROBE_NOMINAL_S / median(probe times)

``adjusted_s`` estimates the task's time on a core where the probe runs at
its nominal speed; ``wall_s - probe_s`` is the raw time, printed beside it.
The probe takes about 2% of a task.  Signal handlers run between bytecodes,
so a long call into numpy defers the next probe until it returns.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

PROBE_PERIOD_S = 0.04
PROBE_KEYS = 20_000
# The probe's typical median time on the machine the benchmark was defined on
# (Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6).
PROBE_NOMINAL_S = 800e-6


@dataclass(frozen=True)
class Timing:
    raw_s: float
    adjusted_s: float


_KEYS = (np.arange(PROBE_KEYS, dtype=np.int64) * 2654435761) % 1_000_003


def _probe() -> float:
    t0 = time.perf_counter()
    np.lexsort((_KEYS, _KEYS[::-1]))
    return time.perf_counter() - t0


def timed(fn):
    """(fn(), Timing) with the probe running while fn runs."""
    probes: list[float] = []

    def on_alarm(signum, frame):
        probes.append(_probe())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    raw = elapsed - sum(probes)
    # The median, not the mean: a probe that the kernel preempts for a few
    # milliseconds costs the task 0.1% of its time but would move a mean of
    # a hundred 0.8 ms probes by 10%.  A task shorter than one period gets
    # no correction.
    slowdown = statistics.median(probes) / PROBE_NOMINAL_S if probes else 1.0
    return out, Timing(raw, raw / slowdown)
