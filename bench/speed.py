"""The machine's speed while calls run, for time at a reference speed.

The benchmark's host is shared: in probes on a 2-vCPU VM its speed flipped
between states about 1.5x apart, for seconds to minutes at a time, and the
quartiles of ten wall-clock medians of the same work lay 13-32% of the
median apart.  A
``SpeedMeter`` samples the speed during the calls it times: a SIGALRM timer
runs a fixed calibration loop (plain Python and small numpy calls, the mix
regulab runs) every ``INTERVAL`` seconds and records how long it took.  A
call's time at reference speed is its wall time, less the loops run inside
it, scaled by ``REFERENCE_S`` over the mean loop time during the call; it
reads as the call's wall time on a machine where the loop takes
``REFERENCE_S``.  A program change that makes a call slower or faster moves
that figure as it moves wall time, since the loop does not change with the
program.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL = 0.05
# loop time of the fast state of the machine the bounds were set on
REFERENCE_S = 3.0e-4


def calibration_loop() -> float:
    """Fixed work: a Python loop and small numpy calls; returns seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        acc += (i * 0.5) % 7.0
    a = np.arange(64.0)
    for _ in range(40):
        a = np.sqrt(a + 1.0)
    return time.perf_counter() - t0


class SpeedMeter:
    """Calibration-loop samples (end time, seconds) taken on a timer."""

    def __init__(self):
        self.ends: list[float] = []
        self.loops: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        d = calibration_loop()
        self.ends.append(time.perf_counter())
        self.loops.append(d)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        """Index of the next sample, to bracket a call."""
        return len(self.loops)

    def reference_time(self, t0: float, t1: float, first: int) -> float:
        """Seconds at reference speed of a call that ran from t0 to t1 and
        whose samples start at index ``first``.

        A call too short to hold a sample takes the last sample before it;
        before any sample exists one is taken on the spot.
        """
        inside = [d for e, d in zip(self.ends[first:], self.loops[first:])
                  if e <= t1]
        if inside:
            return (t1 - t0 - sum(inside)) * REFERENCE_S / np.mean(inside)
        before = self.loops[max(0, first - 1):first] or [calibration_loop()]
        return (t1 - t0) * REFERENCE_S / before[0]
