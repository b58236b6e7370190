"""The global-view reduction driver (paper Listing 2).

::

    forall processors q in 0..p-1
        s_q <- f_ident()
        if n > 0:   s_q <- f_pre_accum(s_q, in_q(0), ...)
        for i in 0..n-1:  s_q <- f_accum(s_q, in_q(i), ...)
        if n > 0:   s_q <- f_post_accum(s_q, in_q(n-1), ...)
        LOCAL_REDUCE(f_combine, s_q)
    forall processors q in 0..p-1
        out_q <- f_red_gen(s_q)

The accumulate phase runs locally with no communication; the combine
phase is one local-view reduction of the per-rank states; the generate
phase translates the final state to the output type.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.kernels import Kernel, batched_accumulate
from repro.core.operator import ReduceScanOp
from repro.errors import OperatorError
from repro.localview.api import LOCAL_ALLREDUCE, LOCAL_REDUCE
from repro.mpi import tuning as _tuning
from repro.mpi.comm import Communicator
from repro.mpi.op import Op
from repro.runtime.channels import MISS as _proc_MISS
from repro.util.sizing import payload_nbytes

__all__ = [
    "global_reduce",
    "accumulate_local",
    "accumulate_local_many",
    "wire_op",
]

#: Target chunk size for the overlapped accumulate/combine pipeline.
_OVERLAP_CHUNK_BYTES = 64 * 1024


def wire_op(op: ReduceScanOp) -> Op:
    """Lower a global-view operator's combine function to a wire-level
    :class:`~repro.mpi.op.Op`, carrying the metadata the algorithm tuner
    needs (commutativity, elementwise splittability, identity)."""
    return Op(
        op.combine,
        commutative=op.commutative,
        identity=op.ident,
        elementwise=getattr(op, "elementwise", False),
        name=op.name,
    )


def accumulate_local(
    comm: Communicator,
    op: ReduceScanOp,
    values: Sequence[Any] | np.ndarray,
    *,
    accum_rate: str | None = None,
) -> Any:
    """The accumulate phase: fold this rank's local values into a fresh
    state, with the pre/post hooks of Listing 2 (lines 2–8).

    Charges ``len(values)`` elements of virtual time at ``accum_rate``
    (or the operator's own ``accum_rate``) when one is set.
    """
    tr = comm.tracer
    if not tr.enabled:
        return _accumulate_impl(comm, op, values, accum_rate)
    with tr.span("accumulate", phase="accumulate", op=op.name) as sp:
        state = _accumulate_impl(comm, op, values, accum_rate)
        sp.add(nbytes=payload_nbytes(values), elements=len(values))
    return state


def accumulate_local_many(
    comm: Communicator,
    ops: Sequence[ReduceScanOp],
    values: Sequence[Any] | np.ndarray,
    *,
    accum_rate: str | None = None,
) -> list[Any]:
    """Accumulate the *same* local block under K operators, sharing one
    data sweep when every operator's kernel is tile-exact (see
    :func:`repro.core.kernels.batched_accumulate`).

    Each returned state is byte-identical to
    ``accumulate_local(comm, op, values)`` for the matching op, and the
    virtual-time charges and per-op accumulate spans are the same shape
    as K sequential calls — only the wall-clock data movement is shared.
    """
    n = len(values)
    if len(ops) < 2 or n == 0:
        return [
            accumulate_local(comm, op, values, accum_rate=accum_rate)
            for op in ops
        ]
    tr = comm.tracer
    states = batched_accumulate(
        ops, values, cache=comm.context.world.kernel_cache,
        metrics=tr.metrics if tr.enabled else None,
    )
    nbytes = payload_nbytes(values)
    for op in ops:
        rate = accum_rate if accum_rate is not None else op.accum_rate
        if not tr.enabled:
            if rate is not None:
                comm.charge_elements(rate, n, f"accum:{op.name}")
            continue
        # Virtual time only advances inside charge_elements, so per-op
        # spans around the charges attribute phases exactly as K
        # sequential accumulate_local calls would.
        with tr.span("accumulate", phase="accumulate", op=op.name) as sp:
            sp.add(nbytes=nbytes, elements=n)
            if rate is not None:
                comm.charge_elements(rate, n, f"accum:{op.name}")
    return states


def _accumulate_impl(
    comm: Communicator,
    op: ReduceScanOp,
    values: Sequence[Any] | np.ndarray,
    accum_rate: str | None,
) -> Any:
    n = len(values)
    if n == 0:
        return op.ident()
    kern = _fold_kernel(comm, op, values)
    # Process backend: offload the fold to this rank's worker process,
    # which runs the identical fold; virtual time is charged here, in
    # the parent, exactly as for the in-process fold — so clocks, traces
    # and schedules cannot depend on where the fold ran.
    pool = getattr(comm.context.world, "proc_pool", None)
    state = (
        _proc_MISS if pool is None
        else pool.accumulate(comm.context.rank, op, values)
    )
    if state is _proc_MISS:
        state = op.pre_accum(op.ident(), values[0])
        state = kern.accumulate(op, state, values)
        state = op.post_accum(state, values[n - 1])
    rate = accum_rate if accum_rate is not None else op.accum_rate
    if rate is not None:
        comm.charge_elements(rate, n, f"accum:{op.name}")
    return state


def _fold_kernel(
    comm: Communicator, op: ReduceScanOp, values: Sequence[Any] | np.ndarray
) -> Kernel:
    """The kernel that folds this non-empty block, counted under
    ``kernels.accum.<kind>`` — before the fold and wherever it then
    runs, so kernel observability cannot depend on the backend."""
    kern = comm.context.world.kernel_cache.get(op, values)
    m = comm.tracer.metrics
    if m.enabled:
        m.counter(f"kernels.accum.{kern.kind}").inc()
    return kern


def global_reduce(
    comm: Communicator,
    op: ReduceScanOp,
    values: Sequence[Any] | np.ndarray,
    *,
    root: int | None = None,
    fanout: int = 2,
    accum_rate: str | None = None,
    combine_seconds: float | None = None,
    algorithm: str = "auto",
    overlap: str = "auto",
) -> Any:
    """Globally reduce the distributed data whose local block is
    ``values``, using the global-view operator ``op``.

    This is the Chapel expression ``op reduce A`` (paper §3.1.1): the
    caller thinks about one conceptual global array; both the accumulate
    and the combine phases live inside the abstraction.

    Parameters
    ----------
    comm:
        The communicator; every member must call with its own block.
        Blocks may be empty on some ranks (their contribution is the
        identity state).
    op:
        The operator.  Its ``commutative`` flag selects between
        order-preserving and as-available combining.
    values:
        This rank's local elements, ordered; across ranks the
        concatenation in rank order is the conceptual global array
        (which is what makes non-commutative operators meaningful).
    root:
        If None (default) every rank returns the result (allreduce
        flavor); otherwise only ``root`` returns it and others get None.
    fanout:
        Combining-tree fan-out for commutative operators (§1).
    accum_rate, combine_seconds:
        Cost-model overrides; default to the operator's own settings.
    algorithm:
        Combine-phase schedule, forwarded to the local-view layer.  The
        default ``"auto"`` consults :mod:`repro.mpi.tuning`'s decision
        table (operators with ``elementwise = True`` and 1-D array
        states become eligible for segmenting schedules).
    overlap:
        ``"auto"`` (default) pipelines accumulate and combine for large
        elementwise column-blocked inputs — the local array is split
        into column chunks and the combine rounds of chunk *i* progress
        (via nonblocking collectives) while ``accum_block`` runs on
        chunk *i+1*.  Bit-identical to the unpipelined path; only the
        virtual makespan changes.  ``"off"`` disables the pipeline.

    Returns
    -------
    ``op.red_gen(final_state)`` on the receiving rank(s).
    """
    if not isinstance(op, ReduceScanOp):
        raise OperatorError(
            f"global_reduce needs a ReduceScanOp, got {type(op).__name__}; "
            "wrap plain functions with make_op()/from_binary()"
        )
    tr = comm.tracer
    if not tr.enabled:
        return _global_reduce_impl(
            comm, op, values, root, fanout, accum_rate, combine_seconds,
            algorithm, overlap,
        )
    with tr.span("global_reduce", op=op.name):
        return _global_reduce_impl(
            comm, op, values, root, fanout, accum_rate, combine_seconds,
            algorithm, overlap,
        )


def _global_reduce_impl(
    comm: Communicator,
    op: ReduceScanOp,
    values: Sequence[Any] | np.ndarray,
    root: int | None,
    fanout: int,
    accum_rate: str | None,
    combine_seconds: float | None,
    algorithm: str,
    overlap: str,
) -> Any:
    tr = comm.tracer
    cs = op.combine_seconds if combine_seconds is None else combine_seconds
    if overlap == "auto" and root is None and algorithm == "auto":
        total = _overlapped_allreduce(
            comm, op, values, accum_rate=accum_rate, cs=cs
        )
        if total is not None:
            if not tr.enabled:
                return op.red_gen(total)
            with tr.span("generate", phase="generate", op=op.name):
                return op.red_gen(total)
    state = accumulate_local(comm, op, values, accum_rate=accum_rate)
    shrunk = False
    if tr.enabled:
        with tr.span("combine", phase="combine", op=op.name) as sp:
            sp.add(nbytes=payload_nbytes(state))
            total, shrunk, rcomm = _combine_phase(
                comm, op, state, root, fanout, cs, algorithm
            )
    else:
        total, shrunk, rcomm = _combine_phase(
            comm, op, state, root, fanout, cs, algorithm
        )
    if root is not None and shrunk:
        # The group shrank mid-combine: the result goes to the
        # original root if it survived, to every survivor otherwise
        # (rooted semantics are unsatisfiable without the root).
        root_world = comm._world_rank(root)
        if root_world in rcomm._members and comm.context.rank != root_world:
            return None
        if not tr.enabled:
            return op.red_gen(total)
        with tr.span("generate", phase="generate", op=op.name):
            return op.red_gen(total)
    if root is None or comm.rank == root:
        if not tr.enabled:
            return op.red_gen(total)
        with tr.span("generate", phase="generate", op=op.name):
            return op.red_gen(total)
    return None


def _combine_phase(
    comm: Communicator,
    op: ReduceScanOp,
    state: Any,
    root: int | None,
    fanout: int,
    cs: float | None,
    algorithm: str,
):
    wop = wire_op(op)
    if comm.context.world.can_fail:
        # Restartable path: the post-accumulate state is the
        # checkpoint; on a combine failure, survivors shrink and
        # re-combine from checkpoints (commutative ops only).
        # The allreduce flavor is used even for rooted reduces
        # so every survivor can answer if the root dies.
        from repro.core.resilient import resilient_combine

        total, rcomm = resilient_combine(
            comm, op, state,
            lambda c, s: LOCAL_ALLREDUCE(
                c, wop, s,
                commutative=op.commutative, combine_seconds=cs,
                algorithm=algorithm,
            ),
        )
        return total, rcomm is not comm, rcomm
    if root is None:
        total = LOCAL_ALLREDUCE(
            comm, wop, state,
            commutative=op.commutative, combine_seconds=cs,
            algorithm=algorithm,
        )
    else:
        total = LOCAL_REDUCE(
            comm, wop, state,
            root=root, commutative=op.commutative, fanout=fanout,
            combine_seconds=cs, algorithm=algorithm,
        )
    return total, False, comm


def _overlapped_allreduce(
    comm: Communicator,
    op: ReduceScanOp,
    values: Any,
    *,
    accum_rate: str | None,
    cs: float | None,
) -> Any:
    """The chunked accumulate/combine pipeline.  Returns the combined
    full state, or None when the input is not eligible.

    Eligibility: an allreduce-flavored call in a fault-free world, over
    a 2-D column-blocked ndarray (rows are elements, columns are state
    slots), an elementwise operator with the default pre/post hooks, a
    state large enough that the tuner would segment it, and a combine
    schedule whose per-element association order is independent of
    where the state is cut (recursive doubling / Rabenseifner — ring's
    rotation makes its association depend on segment boundaries, so it
    bails).  Under those gates the column chunks accumulate and combine
    bit-identically to the whole, because NumPy's axis-0 reduction is
    per-column independent and the schedule is pinned per chunk.

    Cost accounting: each chunk charges its fraction ``n·(hi-lo)/m`` of
    the accumulate elements at the operator's rate *before* the next
    chunk's combine is issued, so chunk i's combine rounds progress
    (engine drains on every block) while chunk i+1 accumulates — the
    overlapped time shows up as merged, not summed, virtual time.
    """
    if comm.size == 1 or comm.context.world.can_fail:
        return None
    if not isinstance(values, np.ndarray) or values.ndim != 2:
        return None
    if not getattr(op, "elementwise", False):
        return None
    cls = type(op)
    if (cls.pre_accum is not ReduceScanOp.pre_accum
            or cls.post_accum is not ReduceScanOp.post_accum):
        return None
    n, m = values.shape
    nprocs = comm.size
    if n == 0 or m < 2 * nprocs:
        return None
    # Probe the state dtype on a tiny slice (no virtual-time charges).
    probe = op.accum_block(op.ident(), values[:1, :2])
    if not isinstance(probe, np.ndarray) or probe.shape != (2,):
        return None
    if probe.dtype == object:
        return None
    state_nbytes = m * probe.itemsize
    if state_nbytes <= 2 * _OVERLAP_CHUNK_BYTES:
        return None  # not enough combine work to hide anything behind
    wop = wire_op(op)
    resolved = _tuning.choose_allreduce(
        state_nbytes, nprocs, wop.commutative, wop.elementwise and m >= nprocs
    )
    if resolved not in ("recursive_doubling", "rabenseifner"):
        return None
    chunk_cols = max(
        nprocs, int(np.ceil(m * _OVERLAP_CHUNK_BYTES / state_nbytes))
    )
    k = max(2, -(-m // chunk_cols))
    bounds = [m * i // k for i in range(k + 1)]
    rate = accum_rate if accum_rate is not None else op.accum_rate
    tr = comm.tracer
    requests = []
    for i in range(k):
        lo, hi = bounds[i], bounds[i + 1]
        sub = values[:, lo:hi]
        if tr.enabled:
            with tr.span("accumulate", phase="accumulate", op=op.name) as sp:
                chunk = op.accum_block(op.ident(), sub)
                sp.add(nbytes=sub.nbytes, elements=n * (hi - lo) / m)
        else:
            chunk = op.accum_block(op.ident(), sub)
        if rate is not None:
            comm.charge_elements(rate, n * (hi - lo) / m, f"accum:{op.name}")
        requests.append(
            comm.iallreduce(chunk, wop, combine_seconds=cs, algorithm=resolved)
        )
    return np.concatenate([np.atleast_1d(r.wait()) for r in requests])
