"""Deterministic, seeded fault injection for the SPMD simulator.

The package has four layers:

``plan``
    :class:`FaultPlan` — a declarative, fully reproducible schedule of
    faults (rank fail-stop at a virtual time or nth send, message
    drop/duplication/delay/reorder rates, straggler slowdowns), plus
    :func:`random_plan` which derives one from a single integer seed.
``injection``
    :class:`FaultInjector` — a plan bound to a running world.  The
    runtime calls into it from ``RankContext.charge``/``send_raw`` and
    it answers "does this rank die now?", "how is this transmission
    perturbed?", counting every event on the rank's always-on trace
    (``Trace.faults``).
``reliable``
    The reliable-delivery layer over lossy links: sequence-numbered
    frames, sender-modeled retransmit with exponential backoff in
    virtual time, receiver-side duplicate suppression and reorder
    repair.  Every layer above sees exactly-once, in-order delivery.
``chaos``
    The soak harness behind ``python -m repro chaos``: runs every
    operator in ``repro.ops`` under random plans and checks results
    against failure-free baselines.  (Imported lazily — it pulls in
    ``repro.core``, which depends back on the runtime.)

Determinism: every random decision is drawn from a per-rank
``random.Random`` stream seeded with a string derived from the plan
seed and the rank, so outcomes depend only on (plan, nprocs, program),
never on the thread schedule.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "injection": ("FaultInjector",),
    "plan": (
        "FailStop", "FaultPlan", "LinkFaults", "TransientPlan", "random_plan",
        "reseed", "transient_plan"
    ),
    "reliable": ("Frame",),
})
