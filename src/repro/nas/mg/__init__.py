"""NAS MG's ZRAN3 initialization: the 40-reduction F+MPI variant vs. the
single user-defined-reduction F+RSMPI variant (paper Figure 3)."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "comm3": ("comm3", "norm2u3", "vcycle_communication_round"),
    "grid": ("Block3D", "fill_zran_block"),
    "zran3": ("MM", "Zran3Result", "zran3_mpi", "zran3_rsmpi"),
})
