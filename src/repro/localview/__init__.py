"""Local-view user-defined reductions and scans (paper Section 2)."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "api": (
        "LOCAL_ALLREDUCE", "LOCAL_REDUCE", "LOCAL_SCAN", "LOCAL_XSCAN",
        "exclusive_from_inclusive_shift"
    ),
    "mink_c": ("make_local_mink_op", "mink_combine", "mink_ident"),
})
