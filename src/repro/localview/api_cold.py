"""The local-view routines no global-view driver calls: the inclusive
:func:`LOCAL_SCAN` and the inclusive-to-exclusive shift (paper
Section 2).

:mod:`repro.localview.api` keeps the three the drivers' combine phases
run (``LOCAL_ALLREDUCE``, ``LOCAL_REDUCE``, ``LOCAL_XSCAN``) and
re-exports both names here.
"""

from __future__ import annotations

from typing import Any

from repro.localview.api import CombineFn, IdentFn, _as_op, _local_view
from repro.mpi.comm import Communicator
from repro.mpi.op import Op

__all__ = ["LOCAL_SCAN", "exclusive_from_inclusive_shift"]


def LOCAL_SCAN(
    comm: Communicator,
    ident: IdentFn | None,
    combine: CombineFn | Op,
    value: Any,
    *,
    commutative: bool = True,
    combine_seconds: float = 0.0,
    algorithm: str = "auto",
) -> Any:
    """Inclusive prefix over processors: rank r gets v_0 ⊕ ... ⊕ v_r.

    The identity function is accepted for symmetry with LOCAL_XSCAN but
    is not needed by the inclusive scan (paper §2: the inclusive scan can
    be computed from the exclusive one without communication, not vice
    versa).
    """
    return _local_view(
        comm, "LOCAL_SCAN", comm.scan,
        value, _as_op(combine, commutative, ident),
        combine_seconds=combine_seconds, algorithm=algorithm,
    )


def exclusive_from_inclusive_shift(
    comm: Communicator,
    inclusive_local: Any,
    ident: IdentFn,
) -> Any:
    """Derive the exclusive scan from the inclusive one **by shifting**.

    Paper §2: "Given the inclusive scan, it is impossible to compute the
    exclusive scan without communication if the combine function cannot
    be inverted ... the exclusive scan can only be computed from the
    inclusive scan by shifting the values across the processors."  This
    is that shift: every rank sends its inclusive value one rank to the
    right; rank 0 takes the identity.  One neighbor message per rank —
    cheaper than re-scanning, dearer than the local inclusive-from-
    exclusive direction, which needs no communication at all.

    Works per-rank on the local-view values (one value per rank); for
    element sequences apply it to the last local element and shift
    locally.
    """
    r, p = comm.rank, comm.size
    if r < p - 1:
        comm.send(inclusive_local, dest=r + 1, tag=11)
    if r > 0:
        return comm.recv(source=r - 1, tag=11)
    return ident()
