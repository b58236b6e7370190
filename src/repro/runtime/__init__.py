"""SPMD runtime: simulated ranks, virtual time, cost models, traces."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "channels": ("ANY_SOURCE", "ANY_TAG", "Envelope", "Mailbox", "Membership"),
    "clock": ("VirtualClock",),
    "costmodel": (
        "CostModel", "DEFAULT_RATES", "calibrate_rate", "cluster_2006",
        "modern_node"
    ),
    "executor": ("SpmdResult", "spmd_run"),
    "trace": ("Trace", "merge_traces"),
    "world": ("RankContext", "World"),
})
