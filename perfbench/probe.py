"""Machine-speed probe for normalising times on a shared machine.

On a small shared virtual machine the speed of pure-Python code drifts
by 20-50% over tens of seconds as neighbours load the host, which is far
more than the changes the benchmark has to resolve.  The probe runs a
fixed pure-Python kernel with the same kind of work as the package
(``Fraction`` elimination, sorting tuples, dict counting) between
operations and, through ``SIGPROF``, every ``INTERVAL_S`` of CPU time
inside them.  An operation's time is then scaled by
``NOMINAL_S / median(probe times around and inside it)``: the time it
would have taken with the machine running at the speed where the kernel
takes ``NOMINAL_S``.  Probe time spent inside an operation is subtracted
from its latency first.  Budgets are nominal seconds too, so an operation
gets the same amount of work before it is stopped however busy the host.

The kernel does not use the package, so a change to the package cannot
move it.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

#: median kernel time on a 2-core 2.1 GHz Xeon virtual machine with Python 3.11
NOMINAL_S = 0.0025
INTERVAL_S = 0.05
RECENT = 9  # samples that set the wall-clock budget of the next operation

_ROWS = [[Fraction((i * 7 + j * 3) % 5, 1 + (i + j) % 3) for j in range(9)] for i in range(8)]


def kernel() -> float:
    """Run the fixed workload once; return its duration in seconds.

    The cyclic collector is paused meanwhile: a collection would scan the
    operation's heap, and the kernel's time would follow the heap size.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        return _timed_kernel()
    finally:
        if paused:
            gc.enable()


def _timed_kernel() -> float:
    start = time.perf_counter()
    rows = [row[:] for row in _ROWS]
    for c in range(8):
        p = next((r for r in range(c, 8) if rows[r][c] != 0), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(8):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    signatures = sorted(tuple(sorted((i * j) % 13 for j in range(12))) for i in range(200))
    counts: dict[tuple, int] = {}
    for s in signatures:
        counts[s] = counts.get(s, 0) + 1
    return time.perf_counter() - start


class SpeedProbe:
    """Collects kernel timings; ``install`` adds the in-operation sampling."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _on_signal(self, signum, frame) -> None:
        self.samples.append(kernel())

    def install(self) -> None:
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def sample(self) -> None:
        self.samples.append(kernel())

    def mark(self) -> int:
        return len(self.samples)

    def wall_budget(self, budget: float) -> float:
        """Wall-clock seconds matching ``budget`` at the recent speed, within 2x."""
        recent = self.factor(max(0, len(self.samples) - RECENT))
        return budget * min(2.0, max(0.5, 1 / recent))

    def factor(self, since: int) -> float:
        """Speed factor from the samples taken since ``mark()`` returned ``since``.

        The mean of the per-sample speeds, so that an operation spanning a
        change of speed is scaled by the speed it ran at on average; a
        probe slowed by an outside stall only lowers its own term.
        """
        window = self.samples[since:]
        return NOMINAL_S * sum(1 / t for t in window) / len(window)
