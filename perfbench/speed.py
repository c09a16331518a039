"""Reference-speed scaling of run times on a machine whose speed drifts.

On the 2-vCPU x86 container the benchmark was built on, one seed's
finite-reps job list took from 12.1 s to 21.5 s of wall time within an
hour, with CPU time equal to wall time: the host runs the container faster
or slower in phases that last from seconds to minutes, and ten runs spanning
a few minutes spread by 15 to 35% (quartile distance over median).  So a
small fixed kernel is timed every SAMPLE_EVERY_S during the run, from a
SIGALRM handler so that long jobs are sampled too, and every job's latency
is scaled by NOMINAL_S over the median kernel time of the samples taken
within WINDOW_S of the job.  The window follows speed phases that change
within a run, and its twenty-odd samples smooth the kernel's own noise.
On the machine above this cut the spread of run_s to 5-8%; one scale for
the whole run left 5-13%.  On a machine of steady speed the scaling is a constant
factor, the same for every commit, so comparisons between commits keep
their meaning.  Unscaled wall times are printed next to the scaled ones.
Set-up time is scaled the same way against a bare interpreter start
instead (run.py), because the kernel did not track process start-up.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import List, Tuple

# Kernel time at which a scaled time equals wall time; about the median on
# the machine above.
NOMINAL_S = 0.003
SAMPLE_EVERY_S = 0.2
WINDOW_S = 2.0

_TABLE = list(range(4096))


def kernel() -> int:
    """Half dict and tuple work, half integer arithmetic and list indexing:
    the two kinds of work the resatlas hot loops are made of.  Either half
    alone followed the jobs' slowdowns too weakly (integers) or too strongly
    (dicts) on the machine described above."""
    d = {}
    for i in range(2500):
        key = (i % 97, i * 7 % 13, i ^ 5)
        d[key] = d.get(key, 0) + key[0] * key[1] - key[2]
    s = len(d)
    table = _TABLE
    for i in range(12000):
        s = (s + table[(i * 7) & 4095] * i) & 0xFFFFFF
    return s


class SpeedLog:
    """Kernel timings taken every SAMPLE_EVERY_S of wall time by a SIGALRM
    handler, so long jobs are sampled too.  The time the handler takes is
    left out of every job's latency."""

    def __init__(self) -> None:
        self.refs: List[float] = []
        self.paused: List[Tuple[float, float]] = []
        self.paused_s = 0.0

    def _sample(self, signum, frame) -> None:
        # A collection of the job's heap during the sample would time the
        # job's garbage, not the machine.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.refs.append(t1 - t0)
        self.paused.append((t0, t1))
        self.paused_s += t1 - t0

    def __enter__(self) -> "SpeedLog":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """perf_counter with the sampling time taken out: span times read
        from it leave the kernel out."""
        return time.perf_counter() - self.paused_s

    def paused_within(self, t0: float, t1: float) -> float:
        return sum(b - a for a, b in self.paused if t0 <= a and b <= t1)

    def factor(self, t0: float, t1: float) -> float:
        """The scale for a job that ran from t0 to t1: NOMINAL_S over the
        median of the kernel times sampled within WINDOW_S of the job."""
        if not self.refs:
            self._sample(None, None)
        near = [r for r, (a, _) in zip(self.refs, self.paused) if t0 - WINDOW_S <= a <= t1 + WINDOW_S]
        return NOMINAL_S / statistics.median(near or self.refs)
