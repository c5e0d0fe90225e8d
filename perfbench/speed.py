"""The machine's current speed, read off a fixed reference loop.

On a shared virtual machine the CPU's speed swings by half or more
within seconds, and the program's time swings with it.  The benchmark
times this reference loop next to the operations and scales each
latency to the speed at which the loop takes ``NOMINAL_S``: a reported
time is the time the operation would take on this machine at that
speed.  The loop is the benchmark's own pure-Python code and calls
nothing in ``rlid``, so a change to the program moves the scaled times
exactly as it moves the raw ones.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_S = 0.002   # about the loop's time on a 2-vCPU x86-64 VM, Python 3.11
TRIES = 3           # the fastest of this many back-to-back loops is one sample


def _loop():
    # many small lists and dicts made, filled, sorted and dropped: of the
    # loops tried, this one's time followed the workloads' time most
    # closely as the machine's speed swung (pure arithmetic loops swing
    # further than the program does)
    acc = 0
    for j in range(130):
        items = [(i * 7919 + j) % 101 for i in range(40)]
        groups = {}
        for x in items:
            groups.setdefault(x % 13, []).append(x)
        acc += len(sorted(items)) + len(groups)
    return acc


def sample():
    """One reading: the fastest of TRIES runs of the loop, in seconds."""
    best = None
    for _ in range(TRIES):
        t0 = perf_counter()
        _loop()
        dt = perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best


def scale(seconds, before, after):
    """``seconds`` measured between readings ``before`` and ``after``, at nominal speed."""
    return seconds * NOMINAL_S * 2.0 / (before + after)
