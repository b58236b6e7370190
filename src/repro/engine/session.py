"""A client's handle over an engine: :class:`Session`.

Kept apart from :mod:`repro.engine.job` (a job's handle and record) so an
engine that serves jobs straight from :meth:`~repro.engine.core.Engine.submit`
never compiles it; :meth:`~repro.engine.core.Engine.session` imports it,
and ``repro.engine.job.Session`` / ``repro.engine.core.Session`` resolve to
it.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable

from repro.engine.job import JobHandle, _deadline, _remaining

if TYPE_CHECKING:
    from repro.engine.core import Engine

__all__ = ["Session"]


class Session:
    """A client-facing handle over an :class:`Engine`.

    Sessions add per-client bookkeeping on top of the engine's global
    scheduling: each tracks the handles it submitted, so a client can
    drain *its own* jobs without waiting on anyone else's.  Many
    sessions (threads) may share one engine.
    """

    def __init__(self, engine: Engine):
        self._engine = engine
        self._lock = threading.Lock()
        self._handles: list[JobHandle] = []

    @property
    def engine(self) -> Engine:
        return self._engine

    @property
    def handles(self) -> list[JobHandle]:
        """Handles of every job this session submitted (snapshot)."""
        with self._lock:
            return list(self._handles)

    def submit(self, fn: Callable[..., Any], **kwargs: Any) -> JobHandle:
        """Submit a job (same keywords as :meth:`Engine.submit`)."""
        handle = self._engine.submit(fn, **kwargs)
        with self._lock:
            self._handles.append(handle)
        return handle

    def results(self, timeout: float | None = None) -> list:
        """The :class:`SpmdResult` of every submitted job, in submission
        order (raises on the first failed job, like the handle would)."""
        return [h.result(timeout) for h in self.handles]

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until every job this session submitted has finished."""
        deadline = _deadline(timeout)
        for handle in self.handles:
            remaining = _remaining(deadline)
            if remaining is not None and remaining <= 0.0:
                return False
            if not handle.wait(remaining):
                return False
        return True

    def close(self, timeout: float | None = None) -> None:
        """Drain the session's jobs (the engine itself stays up)."""
        self.drain(timeout)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
