"""Host speed, measured with a fixed kernel that uses no ``msa_forge`` code.

The benchmark runs on a few cores of a shared host whose speed drifts,
for the program and for everything else alike: a core's speed, averaged
over four seconds, varies by a tenth or more, and the two cores of the
same machine drift almost independently. So the speed is sampled on the
core that runs the program, while it runs: an interval timer interrupts
the main thread every ``TICK_S`` seconds and runs a short calibration
kernel there. The host's slowdown over a phase is the mean kernel time
over ``REF_KERNEL_S``; the phase's wall time, less the time spent in the
kernel, divided by it is the time the work would take on a host as fast
as the reference.

The kernel is an interpreted integer loop. Of the kernels tried (this
loop; small numpy matmul and element-wise calls, with and without
allocation; BLAS matmuls; streaming over 2 and 8 MB arrays) it tracked
the run-to-run drift of all three workloads best: most of the program's
time is spent in the interpreter. It allocates nothing that the garbage
collector tracks, so its time does not depend on the program's heap,
and a change to ``msa_forge`` cannot change it: a faster program reads
faster.
"""

from __future__ import annotations

import signal
from time import perf_counter

TICK_S = 0.1
# Median kernel time on a 2-vCPU Intel Xeon VM; it only sets the scale
# of the normalised figures.
REF_KERNEL_S = 0.0033


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = perf_counter()
    acc = 0
    for i in range(30_000):
        acc = (acc * 31 + i) & 0xFFFF
    return perf_counter() - t0


class Speedometer:
    """Host slowdown over a phase, and a clock that leaves out the kernel.

    Used as a context manager, it samples the kernel every ``tick_s``
    seconds until it exits. Time the work with :meth:`clock`, which stops
    while the kernel runs.
    """

    def __init__(self, tick_s: float = TICK_S):
        self.tick_s = tick_s
        self.kernels = 0
        self._kernel_sum = 0.0
        self._in_kernel = 0.0       # wall time spent in the timer handler
        self._busy = False
        self._old_handler = None

    def __enter__(self) -> Speedometer:
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def _tick(self, signum, frame) -> None:
        if self._busy:      # a tick that arrives while the kernel runs is dropped
            return
        self._busy = True
        t0 = perf_counter()
        self._kernel_sum += kernel_seconds()
        self.kernels += 1
        self._in_kernel += perf_counter() - t0
        self._busy = False

    def clock(self) -> float:
        """``perf_counter()`` less the time spent in the kernel so far."""
        while True:
            k = self._in_kernel
            t = perf_counter()
            if k == self._in_kernel:        # no tick in between
                return t - k

    def slowdown(self) -> float:
        """Mean kernel time over ``REF_KERNEL_S`` (1.0 before any sample)."""
        if not self.kernels:
            return 1.0
        return self._kernel_sum / self.kernels / REF_KERNEL_S
