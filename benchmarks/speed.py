"""The machine-speed reference that every timing is scaled by.

The benchmark was built on a shared 2-core machine whose pure-Python speed
changes by up to 1.5x in spells that last from seconds to longer than a
run; whole 25 s runs came out 1.5x slower than their neighbours.  Raw
timings would make that load the largest term of every spread.

A fixed pure-Python loop, timed next to the requests it brackets, measures
the machine's speed at that moment.  A timing is multiplied by
NOMINAL_S / (the loop's time around it), so it reads as seconds on a machine
where the loop takes NOMINAL_S.  One check on that machine: a batch of 2 018
classify calls, timed back to back for 90 s, took 0.109-0.252 s, and the
medians of its 10 s windows ranged over 0.128-0.184 s; divided by the loop
timed around each batch, those window medians stayed within 3 % of each
other.  The loop is the benchmark's own code, so a change to the program
moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import gc
import time

NOMINAL_S = 0.010


def _loop() -> int:
    # tuple building, sorting, dict counting and integer arithmetic: the
    # operations the library spends its time on
    acc = 0
    for i in range(2000):
        t = tuple((i * 7 + j) % 13 for j in range(12))
        s = sorted(t, reverse=True)
        counts: dict[int, int] = {}
        for c in s:
            counts[c] = counts.get(c, 0) + 1
        acc += sum(c * c for c in s) + len(counts)
    return acc


def reference_seconds() -> float:
    """One timed run of the loop, with the garbage collector held off so a
    large heap left by the program does not leak into the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor from raw seconds to nominal seconds for work between two
    reference timings."""
    return NOMINAL_S / ((before + after) / 2)
