"""The disabled engine telemetry: the null object every telemetry-off
:class:`~repro.engine.Engine` holds.

Kept apart from :mod:`repro.obs.telemetry` so an engine built without
telemetry never loads the lifecycle/snapshot machinery; that module
re-exports :data:`NULL_ENGINE_TELEMETRY` for callers that name it there.
It answers the same six engine hooks (``job_admitted``, ``job_rejected``,
``job_assembled``, ``job_running``, ``job_done``, ``job_retried``) and
cold-path reads; the engine's counts never pass through either object.
"""

from __future__ import annotations

from typing import Any

__all__ = ["NULL_ENGINE_TELEMETRY"]


class _NullEngineTelemetry:
    """Disabled stand-in: ``enabled`` gates every engine call site, so
    none of these methods run on the hot path; they exist so stray
    cold-path calls (snapshots of a disabled engine) degrade gracefully."""

    enabled = False
    nprocs = 0
    registry = None
    __slots__ = ()

    def bind(self, engine: Any) -> None:
        pass

    def now(self) -> float:
        return 0.0

    def job_admitted(self, *a: Any, **k: Any) -> None:
        return None

    def job_rejected(self, *a: Any, **k: Any) -> None:
        pass

    def job_assembled(self, *a: Any, **k: Any) -> None:
        pass

    def job_running(self, *a: Any, **k: Any) -> None:
        pass

    def job_done(self, *a: Any, **k: Any) -> None:
        pass

    def job_retried(self, *a: Any, **k: Any) -> None:
        pass

    def utilization(self, now: float | None = None) -> list[float]:
        return []

    def intervals(self) -> list:
        return []

    def recent_jobs(self, n: int = 16) -> list:
        return []

    def snapshot(self) -> dict[str, Any]:
        return {"type": "snapshot", "enabled": False}


#: Shared no-op telemetry handed to engines constructed without it.
NULL_ENGINE_TELEMETRY = _NullEngineTelemetry()
