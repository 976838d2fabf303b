"""Pacing: wall times rescaled to a reference machine speed.

The benchmark shares its host, and the host's speed drifts by up to a factor
of two within seconds; process CPU time drifts with it.  A ``Sampler`` reads
the speed while the timed work runs: a SIGALRM timer interrupts the work
every ``INTERVAL_S`` and runs ``kernel``, a fixed piece of pure-Python work
that does not touch spdefd, in the handler.  The work's wall time, less the
time spent in the kernel, is rescaled by ``REFERENCE_KERNEL_S`` over the mean
kernel time during the work.  A change that makes the work cheaper lowers the
paced time as much as the wall time; a slow spell of the host lowers both the
work's speed and the kernel's, and cancels.

Only the standard library is imported here, so that a set-up probe can
sample before it imports numpy.
"""

import signal
import statistics
import time

INTERVAL_S = 0.02
KERNEL_ROUNDS = 4000
# Mean time of one ``kernel`` call on the quiet 2-vCPU Xeon host of the
# baseline in README.md: the speed that paced times are rescaled to.
REFERENCE_KERNEL_S = 0.0004


def kernel() -> float:
    """Wall time of a fixed amount of interpreter work."""
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(KERNEL_ROUNDS):
        total += i * i % 7
        table[i & 63] = total
    return time.perf_counter() - t0


class Sampler:
    """Context manager that samples the machine speed while its block runs.

    After the block, ``wall_s`` is its wall time less the time spent in the
    kernel, and ``paced_s`` is that time at the reference speed."""

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = elapsed - sum(self.samples)
        speed = statistics.fmean(self.samples) if self.samples else kernel()
        self.paced_s = self.wall_s * REFERENCE_KERNEL_S / speed
        return False

    def _sample(self, signum, frame):
        self.samples.append(kernel())
