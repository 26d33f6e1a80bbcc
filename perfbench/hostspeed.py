"""Correction of measured times for the speed of a shared host.

On a shared virtual machine the speed of a CPU drifts by 20 % and more over
seconds to minutes, for every process alike.  On a 2-vCPU Xeon VM with
Python 3.11.7, ten 20-s runs of ``balance`` spread by 0.21 of the median
between the first and third quartile of their wall-clock throughput, and
longer runs did not narrow it.  A fixed kernel that does not touch the
program slowed in step: dividing by its time cut the spread of eight runs
from 0.225 to 0.023.

So each chunk of ops is bracketed by timings of that kernel, and the chunk's
times are scaled by ``REFERENCE_S`` over the kernel's mean time: they read as
on a host where the kernel takes ``REFERENCE_S``.  The kernel is stdlib code
of the same kind as the program's (sorting, ``math.fsum``, powers,
generators), and a change to the program cannot change it.
"""

from __future__ import annotations

import math
import random
import time

# About the kernel's time on the host above, so corrected times read close
# to wall-clock times there.
REFERENCE_S = 0.0005

_rng = random.Random(0)
_VECTORS = tuple(tuple(_rng.uniform(0.5, 100.0) for _ in range(4)) for _ in range(400))


def _kernel() -> float:
    total = 0.0
    for v in _VECTORS:
        s = sorted(v)
        total += math.fsum((x / s[-1]) ** 1.5 for x in s) ** (1 / 1.5)
    return total


def kernel_seconds() -> float:
    """The better of two timings of the kernel; the other may hold an interrupt."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def factor(before: float, after: float) -> float:
    """Scale for times measured between two kernel timings."""
    return REFERENCE_S / (0.5 * (before + after))
