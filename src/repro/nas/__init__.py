"""NAS kernel substrates: IS (integer sort), MG (ZRAN3 + comm3), and EP
(embarrassingly parallel), plus the communication-call census."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "callcounts": ("CallCensus", "census"),
    "cg": (
        "CGResult", "cg_solve", "cg_solve_fused", "laplacian_matvec",
        "poisson_rhs", "random_rhs"
    ),
    "ep": (
        "EP_CLASSES", "EP_CLASSES_FULL", "EPOp", "EPResult", "ep_class",
        "ep_mpi", "ep_rsmpi"
    ),
    "common": (
        "IS_CLASSES", "IS_CLASSES_FULL", "ISClass", "MG_CLASSES",
        "MG_CLASSES_FULL", "MGClass", "is_class", "mg_class"
    ),
})
