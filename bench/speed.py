"""Momentary machine speed, read off a fixed exact-arithmetic probe.

On the shared two-core host the reference figures come from, the same
Python code runs up to twice as slowly for stretches of tens of seconds
(CPU contention outside the virtual machine; steal time stays at zero, and
process CPU time grows with wall time).  Uncorrected round times spread
by 11-26 % (IQR over median) across runs of identical code, so timings
are corrected: a
short probe runs between operations and, driven by an interval timer,
every SAMPLE_S inside them.  Each stretch of work between two probes is
scaled by NOMINAL_S over the mean of those two probes, which gives the
wall time the work would take at the probe's nominal speed.  Probe time
itself is never counted.
"""

import signal
import time
from fractions import Fraction

# probe() duration at the reference speed; it fixes the unit of the
# corrected times and must not change between compared commits
NOMINAL_S = 0.0010
SAMPLE_S = 0.05

_TERMS = tuple(Fraction(i % 7 + 1, i % 11 + 2) for i in range(150))


def probe():
    """Seconds the fixed Fraction loop takes right now."""
    start = time.perf_counter()
    acc = Fraction(0)
    for a in _TERMS:
        acc = acc * a + a
        acc -= acc.numerator // acc.denominator
    return time.perf_counter() - start


def corrected(seconds, before, after):
    """Interval length at nominal speed, from the probes around it."""
    return seconds * NOMINAL_S / ((before + after) / 2)


class Meter:
    """Accumulates timed work, raw and at nominal speed, between probes.

    start() probes and arms a SIGALRM timer whose handler closes the
    current stretch with a probe; mark() does the same from the caller,
    at operation boundaries; stop() disarms the timer.  The handler runs
    in the main thread between bytecodes, so the probes measure the CPU
    the work runs on.  Traced rounds probe only at operation boundaries,
    so that no probe falls inside a span.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.nominal_s = 0.0
        self._probe_s = None
        self._since = None
        self._busy = False

    def _close(self):
        end = time.perf_counter()
        p = probe()
        if self._since is not None:
            length = end - self._since
            self.raw_s += length
            self.nominal_s += corrected(length, self._probe_s, p)
        self._probe_s = p
        self._since = time.perf_counter()

    def mark(self):
        self._busy = True
        try:
            self._close()
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self.mark()

    def start(self, sample=True):
        """Probe once; with sample, also every SAMPLE_S until stop()."""
        self.mark()
        if sample:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.mark()
