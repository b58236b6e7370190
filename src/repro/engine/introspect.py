"""The bodies of ``Engine.stats()`` and ``Scheduler.stats()``: only a
client reading the counts runs them, no job does.  Key table:
``docs/observability.md``."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.engine.core import Engine
    from repro.engine.scheduler import Scheduler


def engine_stats(self: Engine) -> dict[str, Any]:
    pool = self._proc_pool
    with self._lock:
        return {
            "nprocs": self._nprocs,
            **self._sched.stats(),
            "schedule_cache": self._world.schedule_cache.stats(),
            "kernel_cache": self._world.kernel_cache.stats(),
            "backend": self._backend,
            "ipc": None if pool is None else pool.ipc_stats(),
            "topology": self._world.topology.signature,
            "fabric": self._world.topology.stats(),
        }


def scheduler_stats(self: Scheduler) -> dict[str, Any]:
    gangs = self._gangs
    return {
        **self.counts,
        "pending": len(self.pending),
        "inflight": len(self.running),
        "retry_backlog": len(self.parked),
        "free_ranks": len(self.free),
        "quarantined_ranks": sorted(self.quarantined),
        "effective_capacity": self.capacity(),
        "degraded": self.degraded(),
        "status": self.status(),
        "placement": {
            "gangs_placed": gangs,
            "mean_gang_spread": self._spread_sum / gangs if gangs else 0.0,
            "single_node_gangs": self._single_node_gangs,
        },
    }
