import math
import signal
import time

import pytest

from perfbench import clock


def _spin(ns):
    start = time.perf_counter_ns()
    while time.perf_counter_ns() - start < ns:
        pass


def test_stopwatch_probes_inside_the_block_and_leaves_the_probes_out():
    before = signal.getsignal(signal.SIGALRM)
    with clock.Stopwatch() as sw:
        _spin(200_000_000)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = sw.samples[1:-1]
    assert len(inside) >= 5  # one probe every INTERVAL_S, besides the two around the block
    # the spin ran 200 ms of wall time, of which the probes took their share
    assert abs(sw.elapsed_ns + sum(inside) - 200_000_000) < 10_000_000
    speed = sum(clock.REFERENCE_NS / p for p in sw.samples) / len(sw.samples)
    assert math.isclose(sw.calibrated_ns, sw.elapsed_ns * speed)


def test_stopwatch_times_a_block_that_raises_and_does_not_nest():
    before = signal.getsignal(signal.SIGALRM)
    sw = clock.Stopwatch()
    with pytest.raises(RuntimeError, match="boom"):
        with sw:
            _spin(30_000_000)
            raise RuntimeError("boom")
    assert sw.elapsed_ns > 0 and sw.calibrated_ns > 0
    assert signal.getsignal(signal.SIGALRM) is before
    with clock.Stopwatch():
        with pytest.raises(RuntimeError, match="nest"):
            clock.Stopwatch().__enter__()
    assert signal.getsignal(signal.SIGALRM) is before
