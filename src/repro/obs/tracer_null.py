"""Tracing switched off: the no-op span and rank tracer every untraced
job holds, and the active-profile slot ``spmd_run`` reads.

Kept apart from :mod:`repro.obs.tracer` so a job without a tracer never
loads the span recorder; that module re-exports every name here and
owns :func:`~repro.obs.tracer.profiling`, which fills :data:`active`.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = ["NULL_SPAN", "NULL_TRACER", "active_tracer", "active_profile"]


class _NullSpan:
    """Shared do-nothing span/context used when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def add(self, nbytes: int = 0, elements: int = 0) -> None:
        pass


#: Shared do-nothing span returned by every disabled ``span()`` call.
NULL_SPAN = _NullSpan()


class _NullRankTracer:
    """Disabled tracer: every hook is a no-op, ``span()`` allocates nothing."""

    enabled = False
    __slots__ = ()

    def span(self, name: str, **kwargs: Any) -> _NullSpan:
        return NULL_SPAN

    def on_send(self, *args: Any) -> None:
        pass

    def on_recv(self, *args: Any) -> None:
        pass


#: Shared disabled tracer handed to every rank when no profiling is active.
NULL_TRACER = _NullRankTracer()

# The active profile: ``(tracer, ranks_override)`` installed by
# :func:`repro.obs.tracer.profiling`, what ``spmd_run`` picks up when it
# is not passed a tracer.
active_lock = threading.Lock()
active: tuple[Any, int | None] | None = None


def active_tracer() -> Any:
    """The tracer installed by :func:`~repro.obs.tracer.profiling`, if any."""
    return active[0] if active is not None else None


def active_profile() -> tuple[Any, int | None]:
    """The installed ``(tracer, ranks_override)`` pair (both None if off)."""
    return active if active is not None else (None, None)
