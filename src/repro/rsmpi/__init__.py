"""RSMPI: global-view user-defined reductions and scans for MPI
programs (paper Section 4)."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "api": ("RSMPI_Reduce", "RSMPI_Reduceall", "RSMPI_Scan", "RSMPI_Xscan"),
    "iterators": ("indexed", "mapped", "materialize", "strided"),
    "library": ("OPERATOR_SOURCES", "load_operator", "operator_names"),
    "operator_spec": (
        "DBL_MAX", "DBL_MIN", "INT_MAX", "INT_MIN", "OperatorSpec",
        "StateRecord"
    ),
    "preprocessor": (
        "compile_operator", "compile_operator_spec", "parse_operator"
    ),
})
