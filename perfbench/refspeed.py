"""The machine-speed reference behind the end-to-end time metrics.

On a shared VM the same code runs up to twice as slow at one moment as at
another, because other tenants load the cores; thread-CPU time slows with
it.  So every measured interval is paired with timings of a fixed
pure-Python loop that does not touch statorguard, and reported in
reference seconds:

    reference seconds = wall seconds * REF_LOOP_S / loop wall time

A reference second is a wall second when the machine runs the loop in
REF_LOOP_S; when the machine slows, wall time and the loop slow together
and the reference time stays.  statorguard is mostly interpreted Python
(per-frame loops, ``math.fsum``), so a Python loop tracks its slowdowns
better than a numpy kernel does.  The loop is timed only while the program
is idle: between studies, and in the orchestrator around set-up processes.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

# Loop iterations: about 20 ms on the reference machine.
LOOP_ITERATIONS = 300_000
# The loop's wall time on the reference machine (shared 2-vCPU Intel Xeon
# VM, Python 3.11.7), where it ranged 0.017-0.026 s over an hour; fixed so
# that reference seconds compare across runs and commits.
REF_LOOP_S = 0.020


def loop_s() -> float:
    """Wall time of one run of the reference loop."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(LOOP_ITERATIONS):
        acc += i * 0.5
    return time.perf_counter() - start


def ref_seconds(wall_s: float, loops: Sequence[float]) -> float:
    """``wall_s`` in reference seconds, given loop timings taken next to it."""
    return wall_s * REF_LOOP_S / statistics.median(loops)
