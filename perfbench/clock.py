"""Calibrated time: wall time corrected for the speed of a shared, noisy host.

On a shared machine the same pure-Python work can take 70 % longer for
seconds at a time, with no steal time or lost CPU time to show for it, so no
amount of repetition within one run averages it out. The runner therefore
measures the host's speed while the program runs: inside a
:class:`Stopwatch` block, a SIGALRM timer interrupts the program every
``INTERVAL_S`` of wall time and times a short reference probe (exact
``Fraction`` arithmetic, the same kind of work ``krein`` does), and one
probe runs just before and one just after the block. A calibrated
nanosecond is

    elapsed ns * mean(REFERENCE_NS / probe ns)

that is, the time the block would take on a host where the probe takes
exactly ``REFERENCE_NS``; the mean of probe speeds over samples evenly spaced
in time is the block's mean speed. The probe does not use ``krein``, so a
change to ``krein`` moves calibrated times exactly as it moves wall times.
The probes' own time is left out of every measured interval (see
:func:`work_ns`).
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_NS = 300_000  # about the probe's median on a 2-vCPU x86 host; any constant compares
PROBE_STEPS = 100
INTERVAL_S = 0.01

_probe_total_ns = 0  # wall time spent in probes so far in this process
_samples = None  # probe times of the open Stopwatch block, or None


def probe_ns() -> int:
    """Wall time of one fixed reference computation, with the collector paused."""
    global _probe_total_ns
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        s = Fraction(0)
        for i in range(PROBE_STEPS):
            s += Fraction(i % 5 - 2, i % 7 + 1)
        took = time.perf_counter_ns() - start
    finally:
        if was_enabled:
            gc.enable()
    _probe_total_ns += took
    return took


def work_ns() -> int:
    """``time.perf_counter_ns()`` less the time spent in probes so far."""
    return time.perf_counter_ns() - _probe_total_ns


def _on_alarm(signum, frame) -> None:
    if _samples is not None:
        _samples.append(probe_ns())


class Stopwatch:
    """Times a block in work ns (``elapsed_ns``) and calibrated ns (``calibrated_ns``).

    The times are set when the block ends, also when it raises. Blocks do not
    nest, and must run in the main thread.
    """

    elapsed_ns = 0
    calibrated_ns = 0.0

    def __enter__(self) -> "Stopwatch":
        global _samples
        if _samples is not None:
            raise RuntimeError("Stopwatch blocks do not nest")
        _samples = self.samples = [probe_ns()]
        self._previous = signal.signal(signal.SIGALRM, _on_alarm)
        self._start = work_ns()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        global _samples
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed_ns = work_ns() - self._start
        # signal.signal runs any handler still pending before it swaps handlers
        signal.signal(signal.SIGALRM, self._previous)
        _samples = None
        self.samples.append(probe_ns())
        self.calibrated_ns = self.elapsed_ns * statistics.fmean(REFERENCE_NS / p for p in self.samples)
        return False
