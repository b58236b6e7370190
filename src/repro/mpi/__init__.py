"""Simulated MPI: communicators, the 12 built-in ops, user-defined ops."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "comm": ("ANY_SOURCE", "ANY_TAG", "Communicator"),
    "request": ("ProgressEngine", "Request", "waitall"),
    "op": (
        "BAND", "BOR", "BUILTIN_OPS", "BXOR", "LAND", "LOR", "LXOR", "MAX",
        "MAXLOC", "MIN", "MINLOC", "Op", "PROD", "SUM", "op_create"
    ),
    "topology": ("binomial_tree", "dims_create", "kary_tree", "tree_depth"),
    "tuning": (
        "DecisionTable", "choose_allreduce", "choose_reduce", "choose_scan",
        "get_decision_table", "set_decision_table"
    ),
})
