"""Reproduction of *Global-View Abstractions for User-Defined Reductions
and Scans* (Deitz, Callahan, Chamberlain, Snyder — PPoPP 2006).

Quick tour
----------
>>> from repro import spmd_run, global_reduce
>>> from repro.ops import MinKOp
>>> import numpy as np
>>> def program(comm):
...     local = np.arange(comm.rank, 100, comm.size)   # my block
...     return global_reduce(comm, MinKOp(3), local)
>>> spmd_run(program, nprocs=4).returns[0]
array([2., 1., 0.])

Long-lived services use the persistent engine instead of per-call
``spmd_run`` — same results, amortized pool and schedule tuning:

>>> from repro import Engine
>>> with Engine(nprocs=8) as engine:
...     session = engine.session()
...     handles = [session.submit(program, nprocs=4) for _ in range(100)]
...     results = [h.result() for h in handles]

Layers (bottom-up):

* :mod:`repro.runtime` — SPMD executor, virtual time, cost models
* :mod:`repro.engine` — persistent multi-tenant engine (resident rank
  pool, job scheduling, schedule caching, backpressure)
* :mod:`repro.mpi` — simulated MPI (communicators, 12 built-in ops,
  user-defined ops, collectives)
* :mod:`repro.localview` — the paper's Section-2 LOCAL_* routines
* :mod:`repro.core` — **the contribution**: global-view operators and
  the reduce/scan drivers of Listings 2–3
* :mod:`repro.ops` — the operator library (mink, mini, counts, sorted,
  extrema, ...)
* :mod:`repro.rsmpi` — RSMPI API + the operator-DSL preprocessor
* :mod:`repro.arrays` — Chapel-style distributed arrays
* :mod:`repro.prefix` — parallel-prefix networks (Ladner–Fischer et al.)
* :mod:`repro.nas` — NAS IS and MG(ZRAN3) substrates for Figures 2–3
* :mod:`repro.analysis` — speedup series and paper-style reports
"""

from repro import _lazy

__version__ = "1.0.0"

__getattr__, __dir__, _exports = _lazy.attach(__name__, {
    "core.operator": ("ReduceScanOp",),
    "core.validation": ("check_operator",),
    "core.functional": ("from_binary", "make_op"),
    "core.reduce": ("global_reduce",),
    "core.fusion": ("global_reduce_many",),
    "core.scan": ("global_scan", "global_xscan"),
    "engine.core": ("Engine", "Session"),
    "engine.job": ("JobHandle",),
    "runtime.costmodel": ("CostModel",),
    "runtime.executor": ("SpmdResult", "spmd_run"),
})
__all__ = ["__version__", *_exports]
