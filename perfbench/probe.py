"""Fixed units of work that measure how fast the machine runs now.

On a shared machine the CPU time of the same code swings by up to 2x
between periods of a few seconds to minutes (other work on the sibling
hardware thread slows this one).  The benchmark times a probe next to
and inside every operation and scales the operation's time by
reference / probe time, which cancels the swing.  A probe only cancels
it for work that slows down as much as the probe does, so there are two:
`FRACTIONS`, exact rational arithmetic and tuple building like the
package's exact core, and `NUMPY`, int64 array arithmetic like the
brute-force oracle's kernel (which slows about half as much, in log
terms, as interpreted code).  Neither imports the package, so a change
to the package cannot change them.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

UNITS = 3

_A = tuple(tuple(Fraction(i - j, i + j + 1) for j in range(7)) for i in range(7))
_B = tuple(tuple(Fraction(i * j + 1, 3 * i + 2) for j in range(7)) for i in range(7))
_POWERS = np.array([8 ** (5 - j) for j in range(6)], dtype=np.int64)
_MIX = np.array([[1, 0, 2, 0, 1, 0]] * 6, dtype=np.int64).T


def _fractions_unit() -> tuple:
    """One product of two fixed 7x7 rational matrices."""
    cols = tuple(zip(*_B))
    return tuple(
        tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols)
        for row in _A
    )


def _numpy_unit() -> int:
    """Digits, an integer matrix product and residues over 8192 grid indices."""
    digits = (np.arange(8192, dtype=np.int64)[:, None] // _POWERS) % 8
    image = digits @ _MIX + 3
    image[:, 0] %= 5
    return int(np.all(image == 0, axis=1).sum())


class Probe:
    """A unit of work and its CPU seconds on the reference machine.

    The reference is the unit's time on an Intel Xeon (2 vCPU VM, Python
    3.11.7, numpy 2.4.6) when nothing runs beside it, so scaled times
    read as seconds of that machine.
    """

    def __init__(self, unit, reference_s: float):
        self.unit = unit
        self.reference_s = reference_s

    def measure(self) -> float:
        """Median CPU seconds of one unit, over UNITS runs."""
        times = []
        for _ in range(UNITS):
            start = time.thread_time()
            self.unit()
            times.append(time.thread_time() - start)
        return statistics.median(times)

    def scale(self, probe_times) -> float:
        """Factor that turns CPU seconds measured at these probe times into reference seconds.

        Probe times sampled evenly over some CPU time give the work done
        in it as the mean of their inverses, hence the harmonic mean.
        """
        return self.reference_s * statistics.mean(1.0 / p for p in probe_times)


FRACTIONS = Probe(_fractions_unit, 0.0012)
NUMPY = Probe(_numpy_unit, 0.0013)


SAMPLE_INTERVAL_S = 0.05


class Sampler:
    """While active, times one unit of each probe every SAMPLE_INTERVAL_S of CPU time.

    Long operations span several speed periods, so a probe before and
    after them is not enough.  A SIGPROF timer runs the probes inside the
    operation; `spent` is the CPU time they took, to be taken off the
    operation's time.  While the timer is armed the kernel updates the
    process CPU clock only at scheduler ticks, so all timing here reads
    the thread CPU clock (the worker has one thread).  An unarmed sampler
    takes no samples.
    """

    def __init__(self, probes: tuple[Probe, ...] = (FRACTIONS,)):
        self.probes = probes
        self.samples: dict[Probe, list[float]] = {p: [] for p in probes}
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        for p in self.probes:
            start = time.thread_time()
            p.unit()
            took = time.thread_time() - start
            self.samples[p].append(took)
            self.spent += took

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
