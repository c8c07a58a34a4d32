"""How fast this machine runs small numpy steps, sampled all through a run.

Other tenants of a shared host slow the cores of a small virtual machine by
up to a half, in spells that last from a tenth of a second to minutes, and
interpreted code that dispatches many small numpy operations feels it most.
A run's CPU time then follows the host as much as the program.  ``HostProbe``
times a fixed loop of such steps (a 6-vector update, the shape of the work
in the package's integrator and per-point pipeline) from a timer signal
every ``PERIOD`` seconds while it is active, so its samples see the same
spells as the work running around them.  CPU time divided by the mean sample
is the work's cost in probe units, in which the host's slowdown cancels to
first order while any change in the program's own work stays.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: seconds between samples
PERIOD = 0.1
#: loop steps per sample, about 2.5 ms of CPU
STEPS = 600


class HostProbe:
    """Context manager that samples while active; the samples accumulate.

    The samples run in the main thread, between the bytecodes of whatever it
    is running, and their own CPU time is kept in ``spent`` so that callers
    can take it out of what they measure.
    """

    def __init__(self, period: float = PERIOD, steps: int = STEPS) -> None:
        self.period = period
        self.steps = steps
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        vec, mat = np.ones(6), 1e-3 * np.eye(6)
        start = time.thread_time()
        for _ in range(self.steps):
            vec = vec + mat @ vec + 1e-3
        elapsed = time.thread_time() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> HostProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean(self) -> float:
        return statistics.fmean(self.samples)
