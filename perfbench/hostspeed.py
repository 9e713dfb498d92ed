"""Host-speed probe: rescales a wall time to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed changes by up
to 1.7x within a minute: a fixed pure-Python loop took 32 ms in one 5-second
window and 62 ms in the next, with no steal time reported, and the two cores
slowed down independently of each other.  A raw wall time therefore measures
the neighbours as much as the program.

The probe runs a fixed calibration kernel every ``INTERVAL_S`` of wall time in
the thread being timed, from a ``SIGALRM`` handler, so its samples see the
host as the program sees it at the same moments.  A span of ``wall`` seconds
is reported as

    (wall - kernel time) * REFERENCE_KERNEL_S / mean kernel time

that is, the span's own time in seconds on a host that runs the kernel in
``REFERENCE_KERNEL_S``.  The kernel is the benchmark's code, not the
program's, so a change to credalmarket moves the rescaled time one for one.
Python runs the handler between bytecodes, so a tick that falls inside a long
C call (a large numpy draw, a LAPACK solve) waits until the call returns; the
samples then lean towards the Python parts of a span.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: wall time between two kernel samples
INTERVAL_S = 0.1
#: kernel time that defines the reference host (about the fastest this
#: benchmark's 2-core VM ran it)
REFERENCE_KERNEL_S = 0.0025


def kernel() -> float:
    """Fixed work, about 3 ms: interpreted float and dict operations, then numpy gamma draws."""
    acc = 0.0
    table = {}
    for i in range(6000):
        x = (i * 0.37) % 1.0
        acc += x * x - 0.5 * x
        table[i & 1023] = acc
    rng = np.random.default_rng(0)
    return acc + float(rng.standard_gamma(2.0, size=20000).sum())


class Probe:
    """Samples ``kernel`` every ``INTERVAL_S`` between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.speed = float("nan")  # reference kernel time over the mean sample of the last span
        self._busy = False
        self._warmup_s = None  # the first calls run cold (20 ms instead of 3 ms)

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:  # a tick that arrives while the kernel runs is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        self._busy = False

    def start(self) -> None:
        self.samples = []
        if self._warmup_s is None:
            t0 = time.perf_counter()
            for _ in range(3):
                kernel()
            self._warmup_s = time.perf_counter() - t0
        else:
            self._warmup_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self, wall: float) -> float:
        """Stop sampling and return ``wall`` rescaled.

        ``wall`` is the wall time of a span that holds the whole of ``start``:
        the kernel time taken out includes the warm-up of a first ``start``.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        kernel_s = self._warmup_s + sum(self.samples)
        if not self.samples:  # a span shorter than one interval: sample once, after it
            self._tick()
        self.speed = REFERENCE_KERNEL_S / statistics.fmean(self.samples)
        return (wall - kernel_s) * self.speed
