"""Host speed sampling, to take other tenants' load out of the timings.

On a shared host, interpreter-bound code runs up to twice as slow for
stretches of a fraction of a second to a whole minute (measured on a 2-vCPU
Xeon VM: the kernel below took 114-122 us or 200-255 us, in process CPU time
as well as in wall time).  Neither the minimum nor the median of a job's
repeats removes stretches that last a whole run.

``SpeedProbe.timed`` runs a job with a small fixed kernel timed right before
it, every ``INTERVAL_S`` during it (from a SIGALRM handler) and right after
it.  The time spent in the handler is taken out of the job's time.  A job's
corrected time is that time scaled by ``REFERENCE_S`` (the kernel's time on
the development host at full speed) over the mean kernel time over the job:
the job's time on that host at full speed.  Sampling during the job matters
for jobs of a second or more, which span many changes of host speed; the
samples at its two ends alone mis-state the speed over the job.  The
reference is a constant, so the correction depends only on the samples over
each job, never on how many samples a run takes or on the program under test.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

WINDOW_S = 0.01  # samples this close to a job's ends count for it
INTERVAL_S = 0.05  # kernel samples during a job: 1-2% of its time
REPEATS = 3  # kernel runs per sample; the first warms the caches the job left cold
# The kernel's time on the development host (2-vCPU Xeon VM) at full speed,
# where it ran 114-122 us, against 200-255 us in slow stretches.
REFERENCE_S = 115e-6


_XS = np.linspace(-0.9, 0.9, 40)
_ALPHA = 0.5 * np.exp(1j * np.arange(40.0))


def _kernel() -> float:
    """About 100 us of the kind of code the jobs run: a scalar recursion over
    numpy complex values and a three-term recurrence vectorised over 40
    points (the shapes of the tau loop and of W_n evaluation).  It is a
    frozen copy in the benchmark, so changes to the program do not move it."""
    tau = 1.0 + 0.0j
    for a in _ALPHA:
        tau = (tau - a.conjugate()) / (1.0 - tau * a)
        tau /= abs(tau)
    w_prev, w = np.zeros_like(_XS), np.ones_like(_XS)
    s = np.sqrt(1.0 - _XS * _XS)
    for k in range(20):
        w, w_prev = (_XS - 0.3 * s) * w - 0.2 * w_prev, w
    return float(w.sum()) + tau.real


class SpeedProbe:
    """Kernel samples of one run.  Installs the SIGALRM handler; the timer
    itself is armed only inside ``timed``."""

    def __init__(self):
        self.stamps = []
        self.times = []
        self._sampling_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def sample(self):
        """The kernel's best of ``REPEATS`` back-to-back runs."""
        best = float("inf")
        t_start = perf_counter()
        for _ in range(REPEATS):
            t0 = perf_counter()
            _kernel()
            best = min(best, perf_counter() - t0)
        self.stamps.append(t_start)
        self.times.append(best)

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.sample()
        self._sampling_s += perf_counter() - t0

    def timed(self, fn):
        """``fn()``, sampled before, during and after; returns its result and
        its run as (start, end, busy), where busy is end - start less the
        time the samples during it took."""
        self.sample()
        self._sampling_s = 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = perf_counter()
        busy = t1 - t0 - self._sampling_s
        self.sample()
        return result, (t0, t1, busy)

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time over [start, end] and at its ends, over
        ``REFERENCE_S``."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        return statistics.fmean(self.times[lo:hi]) / REFERENCE_S

    def corrected(self, run) -> float:
        """A run's busy time at the reference host's full speed."""
        t0, t1, busy = run
        return busy / self.slowdown(t0, t1)
