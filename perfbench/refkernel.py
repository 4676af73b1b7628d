"""The reference kernel, and the scaling of work time by it.

On a shared virtual machine the speed of the CPUs drifts under the program:
the same loop can take 1.5 times as long from one second to the next.  The kernel below is a
frozen pure-Python loop over its own small data.  It is timed between
stretches of work, and each stretch is divided by the kernel speed measured
at its two ends.  The result is in reference-scaled seconds: the time the
work would have taken had the kernel run in REF_KERNEL_S.

Never change the kernel, its data or REF_KERNEL_S: every figure the benchmark
has reported is in units of them.
"""

from __future__ import annotations

import gc
import signal
import time

clock = time.perf_counter

# Time of one kernel pass at the reference speed: about the median pass on a
# shared 2-vCPU virtual machine under Python 3.11.7.
REF_KERNEL_S = 0.0035

# How often a running workload stops to time the kernel, in seconds.
SAMPLE_EVERY_S = 0.5

_KEYS = tuple((i % 13, i % 7) for i in range(91))
_TABLE = {k: i for i, k in enumerate(_KEYS)}


def _kernel_pass():
    table, keys = _TABLE, _KEYS
    acc = 0
    for i in range(15000):
        k = keys[i % 91]
        acc = (acc + table[k] * (i & 15)) % 1000003
        if k in table:
            acc ^= i
    return acc


def kernel_seconds():
    """Seconds of one kernel pass, the median of three, collector paused.
    Creates no object the collector tracks, so that sampling does not move
    the program's own collections."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        _kernel_pass()
        t1 = clock()
        _kernel_pass()
        t2 = clock()
        _kernel_pass()
        t3 = clock()
    finally:
        if was_enabled:
            gc.enable()
    a, b, c = t1 - t0, t2 - t1, t3 - t2
    return max(min(a, b), min(max(a, b), c))


class Stretches:
    """Work intervals separated by kernel samples.

    ``sample()`` times the kernel and closes the stretch of work since the
    previous sample.  Each closed stretch is scaled by REF_KERNEL_S over the
    mean of the kernel times at its two ends.  Samples are kept in flat lists
    of floats, again so that no tracked object is created.
    """

    def __init__(self):
        self.starts, self.ends, self.kernels = [], [], []

    def sample(self):
        self.starts.append(clock())
        self.kernels.append(kernel_seconds())
        self.ends.append(clock())

    def _overlaps(self, start, end):
        """(seconds of work inside [start, end], scale factor) per stretch."""
        for i in range(len(self.kernels) - 1):
            a, b = self.ends[i], self.starts[i + 1]
            overlap = min(b, end) - max(a, start)
            if overlap > 0:
                yield overlap, REF_KERNEL_S / ((self.kernels[i] + self.kernels[i + 1]) / 2)

    def scaled(self, start, end):
        """Reference-scaled seconds of work inside [start, end]."""
        return sum(overlap * factor for overlap, factor in self._overlaps(start, end))

    def raw(self, start, end):
        """Wall seconds of work inside [start, end], kernel passes left out."""
        return sum(overlap for overlap, _ in self._overlaps(start, end))


class Sampler(Stretches):
    """Samples the kernel about every SAMPLE_EVERY_S seconds of work done in
    this process, from a timer signal, so that a single long call is scaled
    too.  The handler runs between two bytecodes of the interrupted work and
    touches none of its state."""

    def _on_timer(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_timer)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()
        return False
