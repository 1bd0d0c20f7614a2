"""A fixed snippet that samples how fast the host runs, taken during each call.

On a shared host the same call's wall time drifts by up to 2x, in fast and
slow phases of tens of seconds, in step with the host's load and not with
the program.  While the runner times a CLI call, a timer signal interrupts
it every INTERVAL_S and runs a fixed snippet in the same thread; one more
snippet runs right before the call.  The call's own time is its wall time
minus the snippets' time within it, and its scaled time is that own time
times NOMINAL_S over the mean snippet time: the time the call would take on
a host that runs the snippet in NOMINAL_S.  The snippets see the same phases
as the call because they run inside it, and the snippet shares no code with
`offroad`, so only a change in the call's own time moves the scaled time.

The snippet is a scalar Python loop over a small numpy array, like the
closed-loop simulation step, alternating with whole-array sweeps over a
250x250 grid, like the route solver's value iteration.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# The snippet's typical time on the host the benchmark was tuned on (shared
# 2-core KVM guest, Xeon, Python 3.11, numpy 2.4).  Scaled throughputs read
# as if every call had run at that speed.
NOMINAL_S = 0.0013

SCALAR_ITERS = 300
SWEEPS = 4
GRID = 250

_SMALL = np.arange(16.0)


def _scalar() -> float:
    acc = 0.0
    for i in range(SCALAR_ITERS):
        x = math.sin(i * 1e-3) * 2.0
        acc += float((_SMALL * x).sum()) + x * x
    return acc


def _sweeps() -> float:
    z = np.linspace(0.0, 1.0, GRID * GRID).reshape(GRID, GRID)
    for _ in range(SWEEPS):
        z = np.minimum(z, np.roll(z, 1, axis=0) + 0.1) * 0.999 + 1e-4
    return float(z[0, 0])


class HostSampler:
    """Context manager that runs the snippet right away and then on every
    timer tick until it exits.  `inside_s` is the snippets' time after the
    first one (the part that falls within the timed call) and `mean_s` the
    mean time of one scalar and one sweep snippet."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.times = ([], [])   # scalar snippets, sweep snippets
        self.inside_s = 0.0
        self._previous = None

    def _sample(self, *_):
        kind = (len(self.times[0]) + len(self.times[1])) % 2
        t0 = time.perf_counter()
        value = _sweeps() if kind else _scalar()
        seconds = time.perf_counter() - t0
        if not math.isfinite(value):
            raise RuntimeError("host snippet produced a non-finite value")
        self.times[kind].append(seconds)
        return seconds

    def _tick(self, *_):
        self.inside_s += self._sample()

    def __enter__(self):
        self._sample()
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def mean_s(self) -> float:
        scalar, sweeps = self.times
        return (sum(scalar) / len(scalar) + sum(sweeps) / len(sweeps)) / 2


def scale(seconds: float, snippet_s: float) -> float:
    """A call's own time as it would read at the nominal host speed."""
    return seconds * NOMINAL_S / snippet_s
