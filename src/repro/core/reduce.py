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

Each phase is written once, here; :func:`global_reduce` (plain or
pipelined), the waves of :mod:`repro.core.fusion` and the scans of
:mod:`repro.core.scan` compose them.  Every fold — whole block, column
chunk, fused member — notes its kernel route on its span (counted as
``kernels.accum.<kind>``), is offered to the process backend and is
charged in one body; ``algorithm="auto"`` is the communicator's
decision alone (a driver that must know it first asks
``Communicator._auto_choice``); a phase span opens as ``tr.span(...) if
tr.enabled else NULL_SPAN`` around one body.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.kernels import batched_accumulate, sweep_width
from repro.core.operator import ReduceScanOp
from repro.errors import OperatorError
from repro.localview.api import LOCAL_ALLREDUCE, LOCAL_REDUCE
from repro.mpi.collectives import SCHEDULES, _InPlace
from repro.mpi.comm import Communicator
from repro.mpi.op import Op
from repro.obs.tracer_null import NULL_SPAN
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

#: Allreduce schedules whose per-element association order does not
#: depend on where the state is cut (ring's rotation and the
#: hierarchical schedule's node-local ring follow segment boundaries).
_CUT_INVARIANT = ("recursive_doubling", "rabenseifner")


def wire_op(op: ReduceScanOp) -> Op:
    """Lower a global-view operator's combine function to a wire-level
    :class:`~repro.mpi.op.Op`, carrying the metadata the algorithm tuner
    needs (commutativity, elementwise splittability, identity)."""
    return Op(
        op.combine,
        commutative=op.commutative,
        identity=op.ident,
        elementwise=op.elementwise,
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
    return _accumulate_impl(comm, op, values, accum_rate, len(values))


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
    world = comm.context.world
    # The sweep runs under this process's GIL, so with a process backend
    # each fold is offered to this rank's worker instead (a batch of
    # GIL-holding fallback kernels is tile-exact too, and the sweep
    # folds every member whether or not its kernel is).
    sweep = 0
    if len(ops) > 1 and n > 0 and world.proc_pool is None:
        cache = world.kernel_cache
        swept = batched_accumulate(ops, values, cache=cache)
        if comm.tracer.enabled:
            sweep = sweep_width([cache.get(op, values) for op in ops], n)
    else:
        swept = [_proc_MISS] * len(ops)
    return [
        _accumulate_impl(comm, op, values, accum_rate, n, state, sweep)
        for op, state in zip(ops, swept)
    ]


def _accumulate_impl(
    comm: Communicator,
    op: ReduceScanOp,
    values: Sequence[Any] | np.ndarray,
    accum_rate: str | None,
    elements: float,
    state: Any = _proc_MISS,
    sweep: int = 0,
    counted: int | None = None,
) -> Any:
    """The one fold of one block.  ``elements`` is what it is charged
    for: the block's length, or a column chunk's share ``n·(hi-lo)/m``;
    its span reports ``counted`` (a chunk's integer share) if given.
    ``state`` is the fold's result when a batch has already produced it,
    and ``sweep`` (traced runs only) that batch's
    :func:`~repro.core.kernels.sweep_width`.

    Under a tracer the accumulate span notes the fold's ``kernel`` route
    and, for a batch member, its ``sweep`` width (1: its own pass)."""
    tr = comm.tracer
    with (
        tr.span("accumulate", phase="accumulate", op=op.name,
                nbytes=payload_nbytes(values),
                elements=elements if counted is None else counted)
        if tr.enabled else NULL_SPAN
    ):
        n = len(values)
        if n == 0:
            return op.ident()
        world = comm.context.world
        kern = world.kernel_cache.get(op, values)
        # Noted before the fold and wherever it then runs, so kernel
        # observability cannot depend on the backend.
        if tr.enabled:
            tr.note(kernel=kern.kind)
            if sweep:
                tr.note(sweep=sweep)
        # Process backend: offload the fold to this rank's worker, which
        # runs the identical fold; virtual time is charged here, in the
        # parent, exactly as for the in-process fold — so clocks, traces
        # and schedules cannot depend on where the fold ran.  An
        # elementwise kernel is one ``ufunc.reduce``, which releases the
        # GIL by itself: a worker could only add the round trip.
        pool = world.proc_pool
        if (
            state is _proc_MISS and pool is not None
            and kern.kind != "elementwise"
        ):
            state = pool.accumulate(comm.context.rank, op, values)
        if state is _proc_MISS:
            state = op.pre_accum(op.ident(), values[0])
            state = kern.accumulate(op, state, values)
            state = op.post_accum(state, values[n - 1])
        rate = accum_rate if accum_rate is not None else op.accum_rate
        if rate is not None:
            comm.charge_elements(rate, elements, f"accum:{op.name}")
        return state


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
        default ``"auto"`` is the communicator's choice from its world's
        decision table (operators with ``elementwise = True`` and 1-D
        array states become eligible for segmenting schedules).
    overlap:
        ``"auto"`` (default) pipelines accumulate and combine for large
        elementwise column-blocked inputs — the local array is split
        into column chunks and the combine rounds of chunk *i* progress
        (via nonblocking collectives) while chunk *i+1* accumulates.
        Bit-identical to the unpipelined path (it stands down wherever
        it could not be); ``"off"`` disables the pipeline.

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
    with tr.span("global_reduce", op=op.name) if tr.enabled else NULL_SPAN:
        cs = op.combine_seconds if combine_seconds is None else combine_seconds
        pipelined = (
            _overlapped_allreduce(comm, op, values, accum_rate, cs)
            if overlap == "auto" and root is None and algorithm == "auto"
            else None
        )
        state, chunks = pipelined or (
            accumulate_local(comm, op, values, accum_rate=accum_rate), None
        )
        with (
            tr.span("combine", phase="combine", op=op.name,
                    nbytes=payload_nbytes(state))
            if tr.enabled else NULL_SPAN
        ):
            if chunks is None:
                total, rcomm = _combine_phase(
                    comm, op, state, root, fanout, cs, algorithm
                )
            else:
                # Chunk i's rounds progressed while chunk i+1
                # accumulated; what is left of them is waited out here.
                # A chunk reduced in its own slice of ``state`` is done;
                # a fresh result (doubling, or a non-power-of-two
                # fold-out) is written back into the slice.
                for view, req in chunks:
                    got = req.wait()
                    if not np.shares_memory(got, view):
                        view[...] = got
                total, rcomm = state, comm
        if root is not None:
            # The root answers.  If the group shrank mid-combine and the
            # root did not survive, every survivor does (rooted semantics
            # are unsatisfiable without the root).
            root_world = comm._world_rank(root)
            if comm.context.rank != root_world and root_world in rcomm._members:
                return None
        return _generate(comm, op, total)


def _generate(comm: Communicator, op: ReduceScanOp, total: Any) -> Any:
    """The generate phase (Listing 2, line 12), for the plain reduce and
    for each member a fused wave delivers."""
    tr = comm.tracer
    with (
        tr.span("generate", phase="generate", op=op.name)
        if tr.enabled else NULL_SPAN
    ):
        return op.red_gen(total)


def _combine_phase(
    comm: Communicator,
    op: ReduceScanOp,
    state: Any,
    root: int | None,
    fanout: int,
    cs: float | None,
    algorithm: str,
) -> tuple[Any, Communicator]:
    """The blocking combine: ``(total, communicator it ran on)``."""
    wop = wire_op(op)

    def allreduce(c: Communicator, s: Any) -> Any:
        return LOCAL_ALLREDUCE(c, wop, s, combine_seconds=cs, algorithm=algorithm)

    if comm.context.world.can_fail:
        # Restartable path: the post-accumulate state is the
        # checkpoint; on a combine failure, survivors shrink and
        # re-combine from checkpoints (commutative ops only).
        # The allreduce flavor is used even for rooted reduces
        # so every survivor can answer if the root dies.
        from repro.core.resilient import resilient_combine

        return resilient_combine(comm, op, state, allreduce)
    if root is None:
        return allreduce(comm, state), comm
    return LOCAL_REDUCE(
        comm, wop, state, root=root, fanout=fanout,
        combine_seconds=cs, algorithm=algorithm,
    ), comm


def _overlapped_allreduce(
    comm: Communicator,
    op: ReduceScanOp,
    values: Any,
    accum_rate: str | None,
    cs: float | None,
) -> tuple[np.ndarray, list] | None:
    """The chunked accumulate/combine pipeline, up to its last issue.
    Returns ``(out, chunks)`` — the one result buffer of the whole
    state, allocated once, and per column chunk ``(out[lo:hi], request)``
    — or None when the input is not eligible.  Each chunk's fold is
    copied into its slice and dropped, and its allreduce is issued on
    the slice itself: a segmenting schedule reduces there in place (the
    driver owns the buffer, MPI_IN_PLACE), a doubling one returns a
    fresh result.  The caller's combine phase waits the requests out
    and writes back any result that does not share its slice's memory,
    leaving the answer in ``out`` with no concatenation.

    Eligibility: an allreduce-flavored call in a fault-free world, over
    a 2-D column-blocked ndarray (rows are elements, columns are state
    slots), an elementwise operator with the default pre/post hooks, a
    state large enough that the tuner would segment it, and — asked of
    the communicator for the whole state — a combine schedule whose
    per-element association order is independent of where the state is
    cut (:data:`_CUT_INVARIANT`; on ring, or under a fabric table that
    routes to ``hierarchical``, the pipeline stands down).  Under those
    gates the column chunks accumulate and combine bit-identically to
    the whole, because NumPy's axis-0 reduction is per-column
    independent and the schedule is pinned per chunk.

    Cost accounting: each chunk charges its fraction ``n·(hi-lo)/m`` of
    the accumulate elements (its span counts ``n·hi//m - n·lo//m``, so
    the spans sum to ``n``) *before* the next chunk's combine is
    issued, so chunk i's combine rounds progress
    (engine drains on every block) while chunk i+1 accumulates — the
    overlapped time shows up as merged, not summed, virtual time.
    """
    if comm.size == 1 or comm.context.world.can_fail or not op.elementwise:
        return None
    if not isinstance(values, np.ndarray) or values.ndim != 2:
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
    if (not isinstance(probe, np.ndarray) or probe.shape != (2,)
            or probe.dtype == object):
        return None
    state_nbytes = m * probe.itemsize
    if state_nbytes <= 2 * _OVERLAP_CHUNK_BYTES:
        return None  # not enough combine work to hide anything behind
    wop = wire_op(op)
    out = np.empty(m, probe.dtype)
    resolved, _radix = comm._auto_choice("allreduce", out, wop)
    if resolved not in _CUT_INVARIANT:
        return None
    in_place = SCHEDULES["allreduce"][resolved].segments
    chunk_cols = max(
        nprocs, int(np.ceil(m * _OVERLAP_CHUNK_BYTES / state_nbytes))
    )
    k = max(2, -(-m // chunk_cols))
    bounds = [m * i // k for i in range(k + 1)]
    chunks = []
    for lo, hi in zip(bounds, bounds[1:]):
        view = out[lo:hi]
        np.copyto(view, _accumulate_impl(
            comm, op, values[:, lo:hi], accum_rate, n * (hi - lo) / m,
            counted=n * hi // m - n * lo // m,
        ), casting="no")
        req = comm.iallreduce(
            _InPlace(view) if in_place else view, wop,
            combine_seconds=cs, algorithm=resolved,
        )
        chunks.append((view, req))
    return out, chunks
