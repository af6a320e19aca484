"""Host-speed calibration: times expressed at the host's nominal speed.

Shared hosts change speed by up to ±30% in phases lasting from one to
tens of seconds (neighbouring tenants on the same cores), often for a
whole run.  A fixed calibration kernel, timed right before and right
after each measured operation, shows how fast the host ran at that
moment.  An operation's raw time is scaled by ``NOMINAL_KERNEL_S`` over
the kernel's mean time around it, which gives its time at the host's
nominal speed.  The kernel mixes an interpreted loop with small NumPy
array operations, the same mix as the program's lockstep loops.

After an operation the kernel runs twice and the second time is the one
used: the first can be slowed by what the operation left in the caches
and the allocator, which would scale the operation's own time down.  The
ratio of the two (``settled``) shows that slowdown.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

#: the kernel's time on an unloaded core of the reference host (2-vCPU
#: x86_64 VM, CPython 3.11.7, NumPy 2.4.6); reported times are seconds at
#: the speed this constant stands for
NOMINAL_KERNEL_S = 0.0045


def kernel_seconds() -> float:
    """Run the calibration kernel once and return its wall time."""
    start = time.perf_counter()
    total = 0
    for step in range(100_000):
        total += step
    values = np.arange(2000.0)
    for _ in range(300):
        values = values * 1.0000001 + 1.0
    return time.perf_counter() - start


def settled() -> tuple[float, float]:
    """Run the kernel twice; return the first time and the settled second."""
    first = kernel_seconds()
    return first, kernel_seconds()


def scaled(raw: float, before: float, after: float) -> float:
    """``raw`` seconds at nominal speed, given the kernel times around it."""
    return raw * NOMINAL_KERNEL_S / ((before + after) / 2.0)


def timed(operation: Callable[[], Any]) -> tuple[Any, float, float]:
    """Run ``operation``; return its result, raw seconds and nominal seconds."""
    before = settled()[1]
    start = time.perf_counter()
    result = operation()
    raw = time.perf_counter() - start
    return result, raw, scaled(raw, before, settled()[1])
