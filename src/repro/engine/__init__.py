"""Persistent multi-tenant execution engine for SPMD jobs.

The paper's global-view abstraction assumes a long-lived SPMD execution
context; this package provides one.  An :class:`Engine` owns a single
persistent :class:`~repro.runtime.world.World` and one resident thread
per pool rank; clients submit SPMD functions as **jobs** — through
:meth:`Engine.submit` directly or a per-client :class:`Session` — and
get :class:`JobHandle`\\ s back.  Jobs run over isolated communicator
contexts with per-job virtual-clock epochs, so every job's results,
traces and makespan are bit-identical to a standalone
:func:`repro.runtime.spmd_run` of the same function, while the engine
amortizes thread churn and schedule tuning across jobs.

Quick tour
----------
>>> from repro.engine import Engine
>>> from repro import global_reduce
>>> from repro.ops import SumOp
>>> def program(comm):
...     return global_reduce(comm, SumOp(), [comm.rank + 1.0])
>>> with Engine(8) as engine:
...     session = engine.session()
...     handles = [session.submit(program, nprocs=4) for _ in range(10)]
...     results = [h.result() for h in handles]
>>> results[0].returns[0]
10.0

``spmd_run`` itself is now a thin compat shim over a transient engine,
so existing callers get the same machinery without code changes.

The engine self-heals: a supervisor thread quarantines and revives
pool ranks that die inside jobs, reaps stuck jobs, and re-runs jobs
submitted with a :class:`RetryPolicy` until they succeed (bit-identical
to a fault-free run) or exhaust their attempts.  See ``docs/engine.md``
for lifecycle, isolation model, backpressure semantics, the schedule
cache and the self-healing contract.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "core": ("Engine", "Session"),
    "job": ("JobHandle",),
    "resilience": ("RetryPolicy", "Supervisor"),
})
