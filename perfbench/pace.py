"""The speed of the machine right now, from a fixed calibration loop.

The measuring machine is a shared VM whose CPU speed moves in regimes that
last from seconds to many minutes; the same work can take 1.7 times longer in
a slow regime.  A run samples the machine's pace with :func:`measure` right
before and after every timed piece of work, and :func:`scale` turns the wall
time of that piece into *reference seconds*: the time it would have taken on a
machine on which the calibration loop takes :data:`REFERENCE_S`.  A change to
the program changes the work, not the loop, so it moves the scaled time just
as it moves the wall time; a change of the machine's regime moves both the
work and the loop, and cancels.

The loop is plain Python integer arithmetic of the kind the program does on
mpmath's pure-Python backend (multi-word products and reductions, shifts,
small tuples), and it imports nothing, so no change to the program or its
packages can make it faster or slower.
"""

import time

# seconds one calibration loop takes on the reference machine (a shared
# 2-vCPU Intel Xeon VM, Python 3.11, in its fast regime)
REFERENCE_S = 0.004

_ITERATIONS = 2500
_REPEATS = 3
_MODULUS = (1 << 521) - 1


def _loop(iterations: int) -> int:
    x = 0x9E3779B97F4A7C15F39CC0605CEDC834
    acc = 0
    for i in range(iterations):
        x = (x * x + i) % _MODULUS
        pair = (x >> 260, i & 7)
        acc ^= pair[0] & 0xFFFF
    return acc


def measure() -> float:
    """Seconds of one calibration loop now: the fastest of a few repeats, so
    that a moment's preemption by another process does not count as a slow
    machine."""
    best = float("inf")
    for _ in range(_REPEATS):
        started = time.perf_counter()
        _loop(_ITERATIONS)
        best = min(best, time.perf_counter() - started)
    return best


def scale(wall_s: float, pace_s: float) -> float:
    """Wall seconds measured at calibration pace ``pace_s`` -> reference seconds."""
    return wall_s * REFERENCE_S / pace_s
