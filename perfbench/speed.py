"""Speed-corrected timing for a shared, noisy machine.

On a box whose cores are shared with other tenants, the same Python code
runs up to ~1.6x slower for stretches of seconds, so raw wall times of
multi-second phases spread by 15-40% from run to run. `SpeedClock` samples
the machine's current speed while the program runs: every INTERVAL_S a
SIGALRM handler, executing between bytecodes of the main thread, times a
fixed reference kernel (pure Python plus small numpy ops, like the
library's own mix). A measured interval is then reported in nominal
seconds: its wall duration, less the sampler's own time inside it, times
REF_NOMINAL_S over the median kernel time sampled during it (widened by
PAD_S so that short intervals have samples).
Nominal seconds equal wall seconds when the machine runs at the speed
REF_NOMINAL_S was taken at. The sampler costs about 2% of wall time, the
same on every commit, and the raw wall times stay in the result record.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025
PAD_S = 0.25
# the kernel's time on a quiet 2-core Xeon VM (Python 3.11, numpy 2.4)
REF_NOMINAL_S = 4.3e-4

_A = np.full((24, 24), 0.01)


def reference_kernel() -> None:
    acc: dict[int, int] = {}
    for i in range(1200):
        acc[i & 63] = acc.get(i & 63, 0) + i
    a = _A
    for _ in range(90):
        a = np.tanh(a @ _A + 0.5)


class SpeedClock:
    """Context manager that samples the reference kernel on a timer."""

    def __init__(self):
        self._t: list[float] = []
        self._d: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        self._t.append(t0)
        self._d.append(t1 - t0)

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def nominal(self, starts, ends) -> np.ndarray:
        """Nominal seconds of the intervals [starts[i], ends[i]], less the
        time the sampler itself ran inside them."""
        starts, ends = np.asarray(starts, float), np.asarray(ends, float)
        t = np.asarray(self._t)
        csum = np.concatenate([[0.0], np.cumsum(self._d)])
        inside = csum[np.searchsorted(t, ends)] - csum[np.searchsorted(t, starts)]
        lo = np.searchsorted(t, starts - PAD_S)
        hi = np.searchsorted(t, ends + PAD_S)
        d = np.asarray(self._d)
        # median, so that a kernel sample hit by a context switch does not
        # skew the correction; an interval without samples (the clock was
        # not running) keeps its wall duration
        ref = np.array([np.median(d[a:b]) if b > a else REF_NOMINAL_S
                        for a, b in zip(lo, hi)])
        return (ends - starts - inside) * REF_NOMINAL_S / ref

    def samples(self) -> int:
        return len(self._d)
