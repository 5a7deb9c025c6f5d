"""A fixed reference computation that tells how fast the machine is now.

The benchmark's host is a small virtual machine whose speed changes by
up to 45 % for a minute at a time (README.md, "Repeatability"): set-up,
warm-up and every operation of a run slow down together.  A burst of
this reference unit is timed before the set-ups, between the set-ups
and the timed loop, and after the loop; the end-to-end times of a run
are reported scaled to the speed the machine had around them, so a run
inside a slow spell reads like one outside it.  The unit belongs to the
benchmark, not to the system under test, so a change to ``src/`` moves
the scaled numbers exactly as it moves the raw ones (which are printed
next to them).

The unit mixes what the workloads do -- interpreter work on ints, floats
and strings, a numpy sort and search -- and creates no container
objects, so it never triggers or shifts a garbage collection.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: What one unit takes (ms) on the machine and in the state the
#: workload sizes were chosen in; scaled times are times at this speed.
NOMINAL_UNIT_MS = 2.5
BURST_UNITS = 80

_KEYS = (np.arange(40_000, dtype=np.int64) * 2_654_435_761) % 1_000_003


def unit() -> float:
    """Run the reference unit once; returns its wall time in ms."""
    started = perf_counter()
    total = 0.0
    for index in range(9_000):
        total += (index * index) % 7 + float(index) * 0.5
        if not index % 16:
            total += len("chr%d\t%d\t%d" % (index & 7, index, index + 100))
    ordered = np.sort(_KEYS)
    total += float(np.searchsorted(ordered, _KEYS[:10_000]).sum())
    return (perf_counter() - started) * 1000.0


def burst() -> list:
    """Unit times (ms) of one burst."""
    return [unit() for __ in range(BURST_UNITS)]


def speed_factor(unit_ms: list) -> float:
    """Multiply a time measured near these unit times by this to get the
    time at nominal speed (< 1 when the machine was slow)."""
    return NOMINAL_UNIT_MS / statistics.median(unit_ms)
