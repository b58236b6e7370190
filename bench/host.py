"""The host under the benchmark: one CPU, a speed indicator, a fingerprint.

**One CPU.**  The 8 simulated ranks are GIL-bound threads.  Confined to
one CPU they hand the interpreter to each other; spread over two, every
hand-off is a cross-CPU wake-up and the kernel's load balancer decides
how fast the program is (measured here: 1,100-1,500 small jobs/s pinned,
300-370 unpinned, and a fresh process changing speed 4-5x after about a
second).  Every end-to-end number is therefore taken pinned.

**Speed indicator.**  ``spin_mops`` is the rate of a fixed pure-Python
loop, read between timed windows.  It is reported, and a run whose
readings differ by more than 15 % is flagged ``disturbed``; no metric is
ever divided by it.
"""

from __future__ import annotations

import contextlib
import os
import platform
import sys
import time
from typing import Any, Iterator

import numpy as np

__all__ = [
    "spin_mops",
    "disturbed",
    "pinned_to_one_cpu",
    "set_affinity",
    "fingerprint",
    "DISTURBED_SPREAD",
]

now = time.perf_counter

SPIN_ITERATIONS = 30_000   # about 1 ms on the sandbox
SPIN_REPEATS = 7           # one reading is the median of these
#: ``host.spin_mops`` readings further apart than this flag the run.
DISTURBED_SPREAD = 0.15


def spin_mops() -> float:
    """Millions of iterations per second of a fixed pure-Python loop
    that shares no code with the program under test."""
    times = []
    for _ in range(SPIN_REPEATS):
        t0 = now()
        x = 0
        for i in range(SPIN_ITERATIONS):
            x += i & 3
        times.append(now() - t0)
    return SPIN_ITERATIONS / sorted(times)[SPIN_REPEATS // 2] / 1e6


def disturbed(readings: list[float]) -> bool:
    """True when the run's ``spin_mops`` readings differ by more than
    ``DISTURBED_SPREAD`` of the fastest one."""
    return (max(readings) - min(readings)) / max(readings) > DISTURBED_SPREAD


@contextlib.contextmanager
def pinned_to_one_cpu() -> Iterator[tuple[list[int], int | None]]:
    """Confine the process (and the threads and children it starts) to
    the highest-numbered allowed CPU; CPU 0 serves most interrupts.
    Yields ``(allowed CPUs, the one chosen)`` and restores the allowed
    set on exit."""
    if not hasattr(os, "sched_setaffinity"):
        yield [], None
        return
    allowed = sorted(os.sched_getaffinity(0))
    set_affinity({allowed[-1]})
    try:
        yield allowed, allowed[-1]
    finally:
        set_affinity(set(allowed))


def set_affinity(cpus: set[int]) -> None:
    """Move every thread of the process to ``cpus``.  ``sched_setaffinity``
    on pid 0 only moves the calling thread; resident rank threads keep
    the mask they inherited when they were started."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:   # the thread ended while we listed them
            pass


def fingerprint(allowed: list[int], pinned: int | None) -> dict[str, Any]:
    """What a reader needs to compare two output records."""
    from repro.core import kernels

    return {
        "cpus_allowed": allowed,
        "cpu_pinned": pinned,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_available": kernels.numba_available(),
        "switchinterval_s": sys.getswitchinterval(),
        "loadavg_1min_at_start": os.getloadavg()[0],
        "machine": platform.machine(),
    }
