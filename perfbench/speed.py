"""Machine-speed normalisation of wall times.

The machines this benchmark runs on may switch between CPU speeds (about
1.6x apart on a shared 2-core VM) every fraction of a second to every few
minutes, and Python-bound and LAPACK-bound code slow down together.  A run's
wall times then follow the share of time the machine spent fast, not the
program.  To take that out, a ``SpeedProbe`` times a fixed reference kernel
(small LAPACK calls and plain Python, like the package) from a ``SIGALRM``
handler every ``PERIOD_S`` while the program runs, and rescales each stretch
of wall time by how fast the kernel ran in it:

    scaled time = sum over stretches of  wall time * REF_S / kernel time

so a time reads as the seconds the work would take on a machine where the
kernel takes exactly ``REF_S``.  The probe's own time is left out.  Each
stretch of wall time takes the speed of the nearest kernel sample.

The kernel touches nothing of the package, so a change to the package moves
scaled times exactly as much as it moves the work; only the machine's speed
cancels.  It cancels only in part: between the machine's states the ratio
of the package's time to the kernel's moves by up to about a tenth, so
scaled times still spread by a few percent from run to run.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# The reference speed: one kernel run takes this long, about what it takes
# on a 2-core Intel Xeon VM when the machine runs fast.
REF_S = 3e-4
PERIOD_S = 0.02
KERNEL_LOOPS = 20

_RNG = np.random.default_rng(0)
_H = _RNG.normal(size=(4, 4)) + 1j * _RNG.normal(size=(4, 4))
_H = _H + _H.conj().T
_V = _RNG.normal(size=8)


def reference_kernel() -> float:
    """Fixed work with the package's mix: small LAPACK calls, numpy array
    traffic and plain Python arithmetic and dict stores."""
    acc = 0.0
    table: dict[int, float] = {}
    for _ in range(KERNEL_LOOPS):
        acc += float(np.linalg.eigvalsh(_H)[-1]) + float(_V @ _V) * 1e-9
        for j in range(12):
            x = j * 0.5
            acc += x * x * 1e-9 - acc * 1e-6
            table[j] = acc
    return acc


class SpeedProbe:
    """Samples the machine's speed inside a ``with`` block; see the module
    docstring.

    ``scaled(start, end)`` converts a ``time.perf_counter`` interval taken
    inside the block; call it after the block so that the samples on both
    sides of the interval exist.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._cuts: list[float] = []
        self._previous = None
        self._ticking = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._tick()
        # cell k runs from cut k-1 to cut k, halfway between samples k and k+1
        self._cuts = [0.5 * (e + s) for e, s in zip(self.ends, self.starts[1:])]

    def _tick(self, *_) -> None:
        # a signal that arrives while the kernel runs would nest a sample
        # inside this one
        if self._ticking:
            return
        self._ticking = True
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._ticking = False

    def scaled(self, start: float, end: float) -> float:
        """Seconds at the reference speed spent in [start, end]."""
        total = 0.0
        k = bisect.bisect_left(self._cuts, start)
        lo = start
        while lo < end:
            hi = min(end, self._cuts[k]) if k < len(self._cuts) else end
            # the sample inside this cell, if it overlaps [lo, hi], is the
            # probe's own time and not the program's
            busy = max(0.0, min(hi, self.ends[k]) - max(lo, self.starts[k]))
            kernel = self.ends[k] - self.starts[k]
            total += (hi - lo - busy) * REF_S / kernel
            lo = hi
            k += 1
        return total

    def wall(self, start: float, end: float) -> float:
        """Wall seconds in [start, end] less the probe's own time."""
        i = bisect.bisect_left(self.ends, start)
        busy = 0.0
        while i < len(self.starts) and self.starts[i] < end:
            busy += max(0.0, min(end, self.ends[i]) - max(start, self.starts[i]))
            i += 1
        return end - start - busy
