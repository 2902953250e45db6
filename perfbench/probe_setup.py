"""Time one set-up in a fresh interpreter: import krein, generate the inputs.

Usage: python3 perfbench/probe_setup.py <workload> <seed>

Prints the set-up time in calibrated nanoseconds (see perfbench.clock),
with the host speed probed in this process, on whatever core it runs.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import clock  # noqa: E402  (standard library only)

with clock.Stopwatch() as setup:
    from perfbench import inputs  # noqa: E402  (imports krein)

    inputs.make_cases(sys.argv[1], int(sys.argv[2]))
print(setup.calibrated_ns)
