"""Calibrating a compute rate: timing a kernel on this machine.

Kept apart from :mod:`repro.runtime.costmodel` (which re-exports
:func:`calibrate_rate`) so a job's cold start does not compile it: only
``python -m benchmarks.rates`` measures rates; every run reads them.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["calibrate_rate"]


def calibrate_rate(
    kernel: Callable[[int], None],
    n_elements: int,
    *,
    repeats: int = 3,
    min_time: float = 0.01,
) -> float:
    """Measure a per-element rate (seconds/element) for ``kernel``.

    ``kernel(n)`` must process ``n`` elements.  The kernel is timed over
    enough iterations to exceed ``min_time`` wall seconds, and the best of
    ``repeats`` runs is taken (standard noise-rejection practice).
    """
    if n_elements <= 0:
        raise ValueError(f"n_elements must be positive, got {n_elements}")
    # Warm up (first call may JIT numpy ufunc dispatch, touch caches).
    kernel(n_elements)
    iters = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(iters):
            kernel(n_elements)
        elapsed = time.perf_counter() - t0
        if elapsed >= min_time:
            break
        iters *= 2
    best = elapsed
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        for _ in range(iters):
            kernel(n_elements)
        best = min(best, time.perf_counter() - t0)
    return best / (iters * n_elements)
