"""Parallel-prefix networks and algorithms (Ladner–Fischer et al.)."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "blelloch": (
        "blelloch_scan", "blelloch_xscan", "inclusive_from_exclusive"
    ),
    "circuits": ("PrefixCircuit",),
    "networks": (
        "ALL_NETWORKS", "brent_kung", "hillis_steele", "kogge_stone",
        "ladner_fischer", "serial", "sklansky"
    ),
})
