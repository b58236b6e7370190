"""Blelloch's work-efficient exclusive scan (up-sweep / down-sweep).

The algorithm behind NESL's scan primitive (the paper's reference [4]
and the Blelloch "scan as principal abstraction" argument [3]): an
up-sweep builds a reduction tree in place, then a down-sweep pushes
prefixes back down, giving the **exclusive** scan in 2(n-1) operations
and 2 log2 n parallel steps.

The down-sweep's root-clearing and swap steps fall outside the pure
(i, j)-combine circuit model of :mod:`repro.prefix.circuits`, which is
why this lives here as an algorithm; it is also the canonical
demonstration that the exclusive scan is the natural primitive (paper
§2: inclusive derives locally from exclusive, not vice versa).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

__all__ = ["blelloch_xscan", "blelloch_scan", "inclusive_from_exclusive"]


def blelloch_xscan(
    values: Sequence[Any],
    fn: Callable[[Any, Any], Any],
    identity: Any,
) -> list[Any]:
    """Exclusive scan of ``values`` under ``fn`` with the given identity.

    Handles any length (internally pads to a power of two with
    identities).  Runs in ``2(size - 1)`` applications of ``fn`` over
    ``2 log2(size)`` parallel steps, ``size`` the padded length.
    """
    n = len(values)
    if n == 0:
        return []
    size = 1
    while size < n:
        size <<= 1
    x = list(values) + [identity] * (size - n)
    # up-sweep: x[j] accumulates the sum of its subtree
    d = 1
    while d < size:
        for j in range(2 * d - 1, size, 2 * d):
            x[j] = fn(x[j - d], x[j])
        d <<= 1
    # down-sweep
    x[size - 1] = identity
    d = size // 2
    while d >= 1:
        for j in range(2 * d - 1, size, 2 * d):
            left = x[j - d]
            x[j - d] = x[j]
            x[j] = fn(left, x[j])
        d //= 2
    return x[:n]


def inclusive_from_exclusive(
    values: Sequence[Any],
    exclusive: Sequence[Any],
    fn: Callable[[Any, Any], Any],
) -> list[Any]:
    """Paper §1: "the inclusive scan can be defined in terms of the
    exclusive scan ... by applying the ⊕ operator to the elements in the
    original set and the elements in the set produced by the exclusive
    scan" — a purely local (communication-free) derivation."""
    return [fn(e, v) for e, v in zip(exclusive, values)]


def blelloch_scan(
    values: Sequence[Any],
    fn: Callable[[Any, Any], Any],
    identity: Any,
) -> list[Any]:
    """Inclusive scan built the canonical way: exclusive + local fix-up."""
    return inclusive_from_exclusive(
        values, blelloch_xscan(values, fn, identity), fn
    )
