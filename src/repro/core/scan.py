"""The global-view scan drivers (paper Listing 3).

Exclusive scan::

    forall processors q in 0..p-1          # (the paper writes 0..p-2 for
        s_q <- f_ident()                   #  the accumulate phase; rank
        ... accumulate phase ...           #  p-1's state is simply unused)
        LOCAL_XSCAN(f_ident, f_combine, s_q)
    forall processors q in 0..p-1
        for i in 0..n-1
            out_q(i) <- f_scan_gen(s_q, in_q(i), ...)
            s_q      <- f_accum(s_q, in_q(i), ...)

The inclusive scan interchanges the last two lines (paper: "By
interchanging lines 12 and 13, this algorithm is made to compute an
inclusive scan").

Note the asymmetry the paper stresses (§2): the exclusive scan is the
primitive — the inclusive scan derives from it *locally* (generate after
accumulating), whereas deriving exclusive from inclusive would need
communication or an invertible combine.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.operator import ReduceScanOp
from repro.core.reduce import accumulate_local, wire_op
from repro.errors import OperatorError
from repro.localview.api import LOCAL_XSCAN
from repro.mpi.comm import Communicator
from repro.obs.tracer_null import NULL_SPAN
from repro.util.sizing import payload_nbytes

__all__ = ["global_scan", "global_xscan"]


def _scan_impl(
    comm: Communicator,
    op: ReduceScanOp,
    values: Sequence[Any] | np.ndarray,
    *,
    exclusive: bool,
    accum_rate: str | None,
    combine_seconds: float | None,
    scan_rate: str | None,
    algorithm: str,
) -> list[Any]:
    if not isinstance(op, ReduceScanOp):
        raise OperatorError(
            f"global scans need a ReduceScanOp, got {type(op).__name__}; "
            "wrap plain functions with make_op()/from_binary()"
        )
    tr = comm.tracer
    with (
        tr.span("global_xscan" if exclusive else "global_scan", op=op.name)
        if tr.enabled else NULL_SPAN
    ):
        # Accumulate phase (identical to the reduction's).
        state = accumulate_local(comm, op, values, accum_rate=accum_rate)
        # Combine phase: exclusive prefix of the per-rank states.  Always
        # exclusive — each rank needs the combination of *earlier* ranks'
        # states only; inclusivity is a local property of the generate
        # loop.
        cs = op.combine_seconds if combine_seconds is None else combine_seconds
        with (
            tr.span("combine", phase="combine", op=op.name,
                    nbytes=payload_nbytes(state))
            if tr.enabled else NULL_SPAN
        ):
            prefix = _scan_combine(comm, op, state, cs, algorithm)
        # Generate phase: walk the local data again, emitting outputs.
        with (
            tr.span("generate", phase="generate", op=op.name,
                    elements=len(values))
            if tr.enabled else NULL_SPAN
        ):
            return _scan_generate(
                comm, op, prefix, values, exclusive, accum_rate, scan_rate
            )


def _scan_combine(
    comm: Communicator,
    op: ReduceScanOp,
    state: Any,
    cs: float | None,
    algorithm: str,
) -> Any:
    def xscan(c: Communicator, s: Any) -> Any:
        return LOCAL_XSCAN(
            c, op.ident, wire_op(op), s,
            combine_seconds=cs, algorithm=algorithm,
        )

    if comm.context.world.can_fail:
        # Restartable path (mirrors global_reduce): the
        # post-accumulate state is the checkpoint; on a combine
        # failure, survivors shrink and re-run the prefix over
        # the surviving states (commutative ops only), so each
        # survivor's prefix covers its surviving predecessors.
        from repro.core.resilient import resilient_combine

        return resilient_combine(comm, op, state, xscan)[0]
    return xscan(comm, state)


def _scan_generate(
    comm: Communicator,
    op: ReduceScanOp,
    prefix: Any,
    values: Sequence[Any] | np.ndarray,
    exclusive: bool,
    accum_rate: str | None,
    scan_rate: str | None,
) -> list[Any]:
    kern = comm.context.world.kernel_cache.get(op, values)
    tr = comm.tracer
    if tr.enabled:
        tr.note(kernel=kern.kind)  # on the generate span
    out, _final = kern.scan(op, prefix, values, exclusive=exclusive)
    rate = accum_rate if accum_rate is not None else op.accum_rate
    if scan_rate is None:
        scan_rate = rate
    if scan_rate is not None and len(values) > 0:
        comm.charge_elements(scan_rate, len(values), f"scan_gen:{op.name}")
    return out


def global_xscan(
    comm: Communicator,
    op: ReduceScanOp,
    values: Sequence[Any] | np.ndarray,
    *,
    accum_rate: str | None = None,
    combine_seconds: float | None = None,
    scan_rate: str | None = None,
    algorithm: str = "auto",
) -> list[Any]:
    """Global-view **exclusive** scan: output ``i`` reflects all elements
    strictly before global position ``i`` (the first output is generated
    from the identity state).

    Every rank returns the list of outputs for its local block.
    """
    return _scan_impl(
        comm, op, values,
        exclusive=True, accum_rate=accum_rate,
        combine_seconds=combine_seconds, scan_rate=scan_rate,
        algorithm=algorithm,
    )


def global_scan(
    comm: Communicator,
    op: ReduceScanOp,
    values: Sequence[Any] | np.ndarray,
    *,
    accum_rate: str | None = None,
    combine_seconds: float | None = None,
    scan_rate: str | None = None,
    algorithm: str = "auto",
) -> list[Any]:
    """Global-view **inclusive** scan: output ``i`` reflects all elements
    up to and including global position ``i``.

    Every rank returns the list of outputs for its local block.
    """
    return _scan_impl(
        comm, op, values,
        exclusive=False, accum_rate=accum_rate,
        combine_seconds=combine_seconds, scan_rate=scan_rate,
        algorithm=algorithm,
    )
