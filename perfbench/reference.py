"""A reference kernel, timed all through a run, that op times are expressed in.

On a shared host the speed of this process changes from one second to the
next by as much as a factor of two, as other tenants load the same cores
and caches; the interference shows in thread CPU time as much as in wall
time. Ten 30-second runs of the same ops then spread far wider than any
change worth gating. So the runner times a fixed kernel every ``PERIOD_S``
seconds, from a timer signal in the benchmark's one thread, and divides
each op's own time by the median kernel time measured around the op. Op and
kernel slow down together, so the quotient (unit ``ref``: one kernel time)
holds still while the host's speed moves.

The kernel does the kinds of work the package does: Bayes-style updates on
small numpy vectors, entropies over tuples in Python, small frozen
dataclasses grouped in a dict, and tab-separated text built and parsed
again. It never changes with the package, so a faster
package reads as fewer ``ref`` per op.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.05
# Kernel runs that start this close to an op, before or after it, normalise it.
WINDOW_NS = 250_000_000
STEPS = 28

_ROWS = [np.roll(np.linspace(0.05, 1.0, 24), i) for i in range(STEPS)]


@dataclass(frozen=True)
class _Step:
    index: int
    entropy: float
    top: tuple[int, ...]


def kernel() -> int:
    """The fixed reference work: about 1.2 ms on a 2.0 GHz Xeon.

    It calls many different numpy and Python paths rather than one tight
    loop: on a shared 2-vCPU VM a tight loop slowed down less than the
    package did under the same interference, and this kernel tracked the
    package more closely.
    """
    belief = np.full(24, 1 / 24)
    steps = []
    for i, row in enumerate(_ROWS):
        likelihoods = np.asarray(tuple(row), dtype=float)
        if np.any(likelihoods < 0.0):
            raise ValueError("likelihoods must be non-negative")
        weighted = belief * np.power(np.maximum(likelihoods, 0.0), 1.0)
        belief = weighted / float(weighted.sum())
        entropy = -sum(p * math.log(p) for p in tuple(belief) if p > 0.0)
        steps.append(_Step(i, entropy, tuple(np.argsort(-belief)[:3].tolist())))
    groups: dict[int, list[_Step]] = {}
    for step in steps:
        groups.setdefault(step.top[0] % 5, []).append(step)
    text = "\n".join(
        f"{s.index}\t{s.entropy:.3f}\t{s.top[0]}@{s.top[1]}"
        for s in sorted(steps, key=lambda s: s.entropy)
    )
    return sum(int(line.split("\t")[0]) for line in text.splitlines()) + len(groups)


class Reference:
    """Kernel runs on a timer while the ``with`` block runs, as (start, end) in ns."""

    def __init__(self):
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives during a slow kernel run is dropped
            return
        self._busy = True
        try:
            t0 = time.perf_counter_ns()
            kernel()
            self.ends.append(time.perf_counter_ns())
            self.starts.append(t0)
        finally:
            self._busy = False

    def __enter__(self) -> Reference:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def own_ns(self, t0: int, t1: int) -> int:
        """Wall time from t0 to t1 less the kernel runs that interrupted it.

        A kernel run interrupts the timed code between two bytecodes, so one
        that starts inside [t0, t1) also ends inside it.
        """
        lo, hi = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        return t1 - t0 - sum(self.ends[k] - self.starts[k] for k in range(lo, hi))

    def relative(self, t0: int, t1: int) -> float:
        """The own time of an op that ran from t0 to t1, in kernel times (``ref``)."""
        lo = bisect_left(self.starts, t0 - WINDOW_NS)
        hi = bisect_right(self.starts, t1 + WINDOW_NS)
        if lo == hi:
            raise RuntimeError("no reference kernel ran near an op")
        kernel_ns = statistics.median(self.ends[k] - self.starts[k] for k in range(lo, hi))
        return self.own_ns(t0, t1) / kernel_ns
