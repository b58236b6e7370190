"""Bucketed fusion of concurrent reductions.

A :class:`ReductionBucket` coalesces several pending reductions —
global-view :func:`~repro.core.reduce.global_reduce` calls and wire-level
``LOCAL_ALLREDUCE``-style values, possibly under *different* operators —
into shared combine **waves**: one tree traversal carries the product of
the member states, generalizing :class:`repro.ops.fused.FusedOp` from
"one operator over k projections of one element" to "k independent
reductions issued together".  K queued reductions that fuse into one
wave cost one collective's latency instead of K — the same lever as
gradient bucketing in distributed training stacks, and the batching the
paper's local-view aggregation argues for.

Bit-identity contract
---------------------

Fused results are bit-identical to the corresponding sequence of
blocking calls, for every operator (commutative or not):

* an entry joins a wave only if its *own* ``algorithm="auto"`` choice
  (the communicator's answer, from the *world's* table) would be
  recursive doubling (true for every non-splittable state —
  scalars, objects, tuple states — and for splittable arrays under the
  tuned byte threshold); the wave itself is pinned to recursive
  doubling, so each member goes through exactly the association order
  its blocking call would have used;
* entries whose auto choice is anything else (large splittable arrays
  routed to ring/Rabenseifner, or to ``hierarchical`` by a fabric's own
  table) are dispatched as *individual* nonblocking collectives with
  ``algorithm="auto"`` — again the blocking association order — because
  fusing them would trade away their bandwidth-optimal schedule for no
  latency win.

A wave whose *own* auto choice is recursive doubling too (always, for
the non-splittable product state; under the byte threshold for a
concatenated array) is issued as ``"auto"`` rather than by name, which
lets it take the tuner's fitted fan-out: the radix moves rounds and
messages, never the association.

The fuse-or-dispatch watermark is the ``fusion`` band of that same
:class:`~repro.mpi.tuning.DecisionTable` (``python -m repro tune`` fits
both, per fabric), so the two decisions share one cost model.

Phases are the driver's own (:mod:`repro.core.reduce`): accumulate at
``add``, generate at delivery, and between them a ``combine`` span
around the wait, named for the wave (``fused[K]``) or a lone operator.

Failure semantics: waves ride the nonblocking request layer, so a peer
fail-stop surfaces as ``RankFailedError`` from ``waitall()``/
``result()``; the bucket does not run the resilient shrink-and-retry
recovery of ``global_reduce`` (fuse inside a ``can_fail`` world only if
the caller handles the error).  Under lossy plans the reliable-delivery
layer makes fused results identical to fault-free runs, like every other
collective.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.operator import ReduceScanOp
from repro.core.reduce import _generate, accumulate_local_many, wire_op
from repro.localview.api import _as_op
from repro.mpi import tuning as _tuning
from repro.mpi.comm import Communicator
from repro.mpi.op import Op
from repro.obs.tracer_null import NULL_SPAN
from repro.util.sizing import payload_nbytes

__all__ = ["PendingReduction", "ReductionBucket", "global_reduce_many"]


class _WaveState(list):
    """Product state carried by one fused combine wave: slot ``i`` holds
    member ``i``'s state (the :class:`repro.ops.fused._FusedState`
    pattern, across independent reductions instead of projections)."""

    def transfer_nbytes(self) -> int:
        return sum(payload_nbytes(s) for s in self)


def _wave_op(member_ops: Sequence[Op]) -> Op:
    """The product operator combining two :class:`_WaveState`\\ s slot by
    slot.  Commutative only if every member is (the wave is pinned to the
    order-preserving recursive doubling either way)."""

    def fn(a: _WaveState, b: _WaveState) -> _WaveState:
        for i, mop in enumerate(member_ops):
            a[i] = mop.fn(a[i], b[i])
        return a

    return Op(
        fn,
        commutative=all(m.commutative for m in member_ops),
        name=f"fused[{len(member_ops)}]",
    )


class PendingReduction:
    """Handle to one reduction queued in a :class:`ReductionBucket`."""

    __slots__ = ("op_name", "nbytes", "_wire", "_state", "_generate",
                 "_bucket", "_result", "_done")

    def __init__(self, bucket: "ReductionBucket", wire: Op, state: Any,
                 generate: Callable[[Any], Any] | None):
        self.op_name = wire.name
        self.nbytes = payload_nbytes(state)  # as queued: combining may grow it
        self._wire = wire
        self._state = state
        self._generate = generate
        self._bucket = bucket
        self._result: Any = None
        self._done = False

    @property
    def done(self) -> bool:
        """True once the fused wave carrying this entry has completed."""
        return self._done

    def result(self) -> Any:
        """The reduction result, flushing and waiting if necessary."""
        if not self._done:
            self._bucket.waitall()
        return self._result

    def _deliver(self, raw: Any) -> None:
        self._result = self._generate(raw) if self._generate is not None else raw
        self._done = True


class ReductionBucket:
    """Coalesces pending reductions into shared combine waves.

    Usable directly (``add``/``allreduce`` then ``waitall``) or as a
    context manager via :meth:`repro.mpi.comm.Communicator.fused`.
    Queued entries fuse until the pending bytes cross the ``fusion``
    threshold of the world's table, which flushes a wave as a
    *nonblocking* collective — so waves themselves overlap — and
    ``waitall()`` flushes the remainder and completes everything.
    """

    def __init__(self, comm: Communicator):
        self._comm = comm
        fabric = comm.context.world.topology.signature
        self._max_bytes = _tuning.fusion_flush_bytes(
            comm.size, table=_tuning.get_decision_table(fabric)
        )
        self._queue: list[PendingReduction] = []
        self._queued_bytes = 0
        self._inflight: list[tuple[Any, list[PendingReduction], Callable]] = []

    # -- queueing ----------------------------------------------------------

    def add(
        self,
        op: ReduceScanOp,
        values: Sequence[Any] | np.ndarray,
        *,
        accum_rate: str | None = None,
    ) -> PendingReduction:
        """Queue a global-view reduction (the fused counterpart of
        :func:`repro.core.reduce.global_reduce` with ``root=None``): the
        accumulate phase runs now, the combine wave is deferred, and the
        generate phase runs at delivery."""
        return self.add_many([op], values, accum_rate=accum_rate)[0]

    def add_many(
        self,
        ops: Sequence[ReduceScanOp],
        values: Sequence[Any] | np.ndarray,
        *,
        accum_rate: str | None = None,
    ) -> list[PendingReduction]:
        """Queue K reductions of the *same* local block, sharing one
        accumulate-phase data sweep when every operator's kernel is
        tile-exact (:func:`repro.core.reduce.accumulate_local_many`).
        Results are bit-identical to K :meth:`add` calls."""
        states = accumulate_local_many(
            self._comm, ops, values, accum_rate=accum_rate
        )
        return [
            self._enqueue(
                wire_op(op), state, partial(_generate, self._comm, op)
            )
            for op, state in zip(ops, states)
        ]

    def allreduce(
        self,
        value: Any,
        op: Op | Callable[[Any, Any], Any],
        *,
        commutative: bool = True,
        identity: Callable[[], Any] | None = None,
    ) -> PendingReduction:
        """Queue a wire-level allreduce of ``value`` (the fused
        counterpart of ``comm.allreduce`` / ``LOCAL_ALLREDUCE``)."""
        return self._enqueue(_as_op(op, commutative, identity), value, None)

    def _enqueue(self, wire: Op, state: Any,
                 generate: Callable[[Any], Any] | None) -> PendingReduction:
        pending = PendingReduction(self, wire, state, generate)
        if not self._auto_is_doubling(state, wire):
            # This entry's own auto schedule segments the payload; fusing
            # it would both break bit-identity with the blocking call and
            # forfeit the bandwidth-optimal schedule.  Dispatch it alone.
            self._dispatch([pending], fused=False)
            return pending
        self._queue.append(pending)
        self._queued_bytes += pending.nbytes
        if self._queued_bytes > self._max_bytes and len(self._queue) > 1:
            self.flush()
        return pending

    def _auto_is_doubling(self, value: Any, op: Op) -> bool:
        """Would ``algorithm="auto"`` run this allreduce on the doubling
        schedule (at whatever radix)?"""
        algorithm, _radix = self._comm._auto_choice("allreduce", value, op)
        return algorithm == _tuning.RADIX_SCHEDULES["allreduce"]

    # -- flushing ----------------------------------------------------------

    def flush(self) -> None:
        """Issue the queued entries as one fused wave (nonblocking); a
        single queued entry goes out as a plain collective."""
        if not self._queue:
            return
        queue, self._queue, self._queued_bytes = self._queue, [], 0
        self._dispatch(queue, fused=len(queue) > 1)

    def _dispatch(self, entries: list[PendingReduction], *, fused: bool) -> None:
        comm = self._comm
        if not fused:
            (entry,) = entries
            req = comm.iallreduce(entry._state, entry._wire)
            self._inflight.append((req, entries, self._deliver_single))
            return
        homogeneous = self._concat_wave(entries)
        if homogeneous is not None:
            self._inflight.append(homogeneous)
            return
        wave = _WaveState(e._state for e in entries)
        wop = _wave_op([e._wire for e in entries])
        # A list state is never splittable, so auto resolves to recursive
        # doubling for it; asking for auto lets the wave take the fitted
        # radix (same association at every radix).
        req = comm.iallreduce(wave, wop)
        self._inflight.append((req, entries, self._deliver_wave))

    def _concat_wave(self, entries: list[PendingReduction]):
        """Fast path: members sharing one elementwise combine over
        same-dtype scalars/1-D arrays concatenate into a single array
        wave (one payload, no per-slot Python dispatch).  Recursive
        doubling combines the concatenation exactly as it would each
        member, so bit-identity is preserved."""
        first = entries[0]._wire
        if not first.elementwise:
            return None
        parts = []
        for e in entries:
            if e._wire.fn is not first.fn:
                return None
            arr = np.asarray(e._state)
            if arr.ndim > 1 or arr.dtype != np.asarray(entries[0]._state).dtype:
                return None
            if arr.dtype == object:
                return None
            parts.append(np.atleast_1d(arr))
        offsets = np.cumsum([0] + [p.shape[0] for p in parts])
        shapes = [np.asarray(e._state).ndim for e in entries]

        def deliver(raw: Any, members: list[PendingReduction]) -> None:
            for i, e in enumerate(members):
                piece = raw[offsets[i]:offsets[i + 1]]
                e._deliver(piece[0] if shapes[i] == 0 else piece)

        wave = np.concatenate(parts)
        # Pinned to recursive doubling either way; "auto" where that is
        # the concatenation's own choice, so it takes the fitted radix.
        req = self._comm.iallreduce(
            wave, first,
            algorithm=(
                "auto" if self._auto_is_doubling(wave, first)
                else _tuning.RADIX_SCHEDULES["allreduce"]
            ),
        )
        return (req, entries, deliver)

    @staticmethod
    def _deliver_single(raw: Any, entries: list[PendingReduction]) -> None:
        entries[0]._deliver(raw)

    @staticmethod
    def _deliver_wave(raw: Any, entries: list[PendingReduction]) -> None:
        for slot, entry in zip(raw, entries):
            entry._deliver(slot)

    # -- completion --------------------------------------------------------

    def waitall(self) -> None:
        """Flush the queue and wait for every in-flight wave; afterwards
        every handle's ``result()`` is ready."""
        self.flush()
        inflight, self._inflight = self._inflight, []
        tr = self._comm.tracer
        for req, entries, deliver in inflight:
            # A wave's members share its rounds, so the wait goes under
            # the wave's name; a lone dispatch keeps its operator's.
            k = len(entries)
            with (
                tr.span("combine", phase="combine",
                        op=entries[0].op_name if k == 1 else f"fused[{k}]",
                        nbytes=sum(e.nbytes for e in entries))
                if tr.enabled else NULL_SPAN
            ):
                if k > 1 and tr.enabled:
                    tr.note(wave=k)
                raw = req.wait()
            deliver(raw, entries)

    def __enter__(self) -> "ReductionBucket":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.waitall()
        return False


def global_reduce_many(
    comm: Communicator,
    items: Sequence[tuple[ReduceScanOp, Sequence[Any] | np.ndarray]],
    *,
    accum_rate: str | None = None,
) -> list[Any]:
    """Run K global reductions as fused combine waves; returns their
    results in order.  Equivalent to (and bit-identical with)
    ``[global_reduce(comm, op, values) for op, values in items]``, at a
    fraction of the combine-phase latency.

    Consecutive items reducing the *same* ``values`` object additionally
    share one accumulate-phase data sweep (:meth:`ReductionBucket.add_many`)
    when their kernels allow it — the K-operators-one-block case of
    ``comm.fused()`` costs one pass over memory instead of K."""
    bucket = ReductionBucket(comm)
    items = list(items)
    handles: list[PendingReduction] = []
    i = 0
    while i < len(items):
        op, values = items[i]
        j = i + 1
        while j < len(items) and items[j][1] is values:
            j += 1
        if j - i > 1:
            handles.extend(
                bucket.add_many(
                    [o for o, _ in items[i:j]], values, accum_rate=accum_rate
                )
            )
        else:
            handles.append(bucket.add(op, values, accum_rate=accum_rate))
        i = j
    bucket.waitall()
    return [h.result() for h in handles]
