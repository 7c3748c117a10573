"""Host speed reference: scales measured times to one fixed host speed.

On a shared host the same code runs at different speeds from one second to
the next, because the physical core switches between a fast and a slow
state as other machines' work comes and goes, for tens of seconds at a
time. A fixed piece of exact arithmetic, `reference()`, timed on the same
CPU right next to the measured work, slows down with it. A measured
duration times REFERENCE_S over the reference time around it is the
duration the work would take on a host where `reference()` takes
REFERENCE_S: the host's speed cancels out and degdet's own cost stays.

`Probe` samples the reference from a SIGALRM handler every PERIOD_S seconds
of wall time, so that samples fall inside long operations too. The handler
runs in the main thread between bytecodes; no thread is started.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# reference() on an uncontended core of the host the baseline was measured
# on (Intel Xeon, Python 3.11.7): scaled times approximate that host's
# fast-state wall times.
REFERENCE_S = 0.0013
PERIOD_S = 0.2


def reference() -> float:
    """Wall time of a fixed harmonic sum in Fractions: small-int gcds and
    interpreter overhead, the mix degdet itself runs."""
    start = perf_counter()
    acc = Fraction(0)
    for k in range(1, 500):
        acc += Fraction(1, k)
    return perf_counter() - start


class Probe:
    """Reference samples (end time, duration) taken every PERIOD_S seconds."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        took = reference()
        self.samples.append((perf_counter(), took))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scaled(self, start: float, end: float) -> float:
        """The duration end - start times the mean relative host speed,
        REFERENCE_S / t, over the samples taken inside it and the last one
        before it and the first one after it.  Samples are even in time, so
        the mean weighs each stretch of the duration by its length."""
        before = [took for at, took in self.samples if at <= start][-1:]
        inside = [took for at, took in self.samples if start < at < end]
        after = [took for at, took in self.samples if at >= end][:1]
        return (end - start) * statistics.fmean(REFERENCE_S / t for t in before + inside + after)
