"""The calibration kernel and the bracketed operation timer.

On a shared host the same interpreter work runs at speeds up to 2x apart, in
phases that last from seconds to minutes. The kernel is fixed pure-Python integer work that
belongs to the benchmark: an interpreter loop over small integers, a dict
fill, and a few multi-thousand-bit products, in roughly the proportions the
program's own work has. It runs on the same CPU right before and right after
every timed operation, and the operation's calibrated time is its wall time
divided by the mean of the two kernel times. A slow phase stretches both,
so the ratio holds steadier than either.

The kernel must never change: its time is the unit ("cal") of every
calibrated metric, and a different kernel makes old and new figures
incomparable.
"""

from __future__ import annotations

import os
from time import perf_counter_ns

_BIG = 3**4000  # 6340 bits


def kernel() -> int:
    acc = 0
    for i in range(6000):
        acc = (acc * 31 + i) & 0xFFFFF
    table = {}
    for i in range(1500):
        table[(i * 7919) % 2003] = i
    x = _BIG
    for _ in range(6):
        x = (x * _BIG) >> 6340
    return acc ^ len(table) ^ (x & 1)


def kernel_seconds() -> float:
    start = perf_counter_ns()
    kernel()
    return (perf_counter_ns() - start) / 1e9


def pin_quietest_cpu(cpus) -> None:
    """Pin this process to the CPU among `cpus` whose kernel runs fastest now.

    On a shared host each CPU's speed swings on its own, so work started on
    the quieter CPU is disturbed less.
    Children started afterwards inherit the pin.
    """
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        seconds = kernel_seconds()
        if best is None or seconds < best[0]:
            best = (seconds, cpu)
    os.sched_setaffinity(0, {best[1]})


def timed(call, cpus):
    """Run `call()` between two kernels, on the quietest of `cpus`.

    Returns (result, error, wall seconds, kernel seconds before, kernel
    seconds after). `error` is the exception the call raised, or None.
    """
    pin_quietest_cpu(cpus)
    before = kernel_seconds()
    start = perf_counter_ns()
    try:
        result, error = call(), None
    except Exception as exc:  # a failed operation is counted, not fatal
        result, error = None, exc
    wall = (perf_counter_ns() - start) / 1e9
    after = kernel_seconds()
    return result, error, wall, before, after
