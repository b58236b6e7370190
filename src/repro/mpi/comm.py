"""The simulated MPI communicator.

:class:`Communicator` is the per-rank handle an SPMD function receives
from :func:`repro.runtime.spmd_run`.  It offers the familiar MPI surface —
point-to-point ``send``/``recv``, the collective set, ``split``/``dup`` —
over the virtual-time runtime.  Collective message tags are namespaced by
a per-communicator context id and a per-rank collective sequence number,
so concurrent communicators and back-to-back collectives can never match
each other's messages (the same guarantee real MPI provides via context
ids).

Group ranks vs. world ranks: a communicator addresses its members by
*group* rank (0..size-1); translation to world ranks happens here, at the
lowest level, exactly once.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence

from repro.errors import CommunicatorError, RankFailedError
from repro.mpi import collectives as _coll
from repro.mpi import request as _req
from repro.mpi import tuning as _tuning
from repro.mpi.op import Op
from repro.obs.tracer import NULL_SPAN
from repro.runtime.channels import ANY_SOURCE, ANY_TAG
from repro.runtime.fabric import contiguous_node_groups
from repro.runtime.world import RankContext
from repro.util.sizing import cheap_nbytes

__all__ = ["Communicator", "ANY_SOURCE", "ANY_TAG"]


def _reroot_plan(ch: "_Channel", plan, root: int):
    """Wrap a rank-0-rooted reduce plan with the re-root forwarding hop
    (keeps the tree order-preserving)."""
    result = yield from plan
    if ch.rank == 0:
        ch.send(root, result)
        return None
    if ch.rank == root:
        got = yield _coll.Recv(0)
        return got
    return None


def _finished_plan(result):
    """An already-complete plan: how the result of the one schedule
    without a plan form (``resumable=False``) joins the plan pipeline."""
    return result
    yield  # pragma: no cover - unreachable; makes this a generator


class _Channel:
    """Binds a communicator and one collective call's wire tag; this is
    the :class:`repro.mpi.collectives.CollChannel` implementation."""

    __slots__ = ("comm", "tag")

    def __init__(self, comm: "Communicator", tag: Hashable):
        self.comm = comm
        self.tag = tag

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    def send(self, dest: int, payload: Any) -> None:
        self.comm._ctx.send_raw(self.comm._world_rank(dest), self.tag, payload)

    def recv(self, source: int) -> Any:
        return self.comm._ctx.recv_raw(self.comm._world_rank(source), self.tag)

    def collect(self, source: int):
        return self.comm._ctx.collect_envelope(
            self.comm._world_rank(source), self.tag
        )

    def probe(self, source: int) -> bool:
        """True if the next message from ``source`` on this collective's
        tag is already queued (non-blocking; used by the progress engine)."""
        ctx = self.comm._ctx
        return ctx.world.mailboxes[ctx.rank].probe(
            self.comm._world_rank(source), self.tag
        )

    def apply(self, env) -> Any:
        return self.comm._ctx.apply_recv(env)

    def charge(self, seconds: float, label: str) -> None:
        self.comm._ctx.charge(seconds, label)

    @property
    def metrics(self):
        """The run's metrics registry (no-op when tracing is disabled)."""
        return self.comm._ctx.tracer.metrics


class Communicator:
    """MPI-like communicator over the simulated runtime."""

    def __init__(
        self,
        ctx: RankContext,
        members: Sequence[int] | None = None,
        cid: Hashable = 0,
    ):
        self._ctx = ctx
        if members is None:
            members = range(ctx.nprocs)
        self._members = tuple(members)
        if ctx.rank not in self._members:
            raise CommunicatorError(
                f"world rank {ctx.rank} is not a member of this communicator"
            )
        self._rank = self._members.index(ctx.rank)
        self._cid = cid
        self._coll_seq = 0
        self._split_seq = 0
        self._agree_seq = 0
        # Node partition of the members under the world's topology,
        # computed on first use (False = not yet computed; the computed
        # value may legitimately be None on a flat fabric).
        self._node_groups_cache: Any = False

    # -- introspection ------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank within the communicator's group."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of processes in the communicator's group."""
        return len(self._members)

    @property
    def world_rank(self) -> int:
        return self._ctx.rank

    @property
    def context(self) -> RankContext:
        """The underlying rank context (clock, trace, raw messaging)."""
        return self._ctx

    @property
    def trace(self):
        return self._ctx.trace

    @property
    def tracer(self):
        """This rank's span tracer (the shared no-op when disabled)."""
        return self._ctx.tracer

    def charge(self, seconds: float, label: str = "compute") -> None:
        """Charge modeled local-compute time to this rank's virtual clock."""
        self._ctx.charge(seconds, label)

    def charge_elements(
        self, rate_name: str, n_elements: float, label: str | None = None
    ) -> None:
        """Charge ``n_elements`` of work at a named cost-model rate."""
        self._ctx.charge_elements(rate_name, n_elements, label)

    def _world_rank(self, group_rank: int) -> int:
        if not 0 <= group_rank < len(self._members):
            raise CommunicatorError(
                f"rank {group_rank} out of range for communicator of size "
                f"{len(self._members)}"
            )
        return self._members[group_rank]

    def _group_rank(self, world_rank: int) -> int:
        try:
            return self._members.index(world_rank)
        except ValueError:
            raise CommunicatorError(
                f"world rank {world_rank} is not in this communicator"
            ) from None

    # -- point-to-point -----------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send ``obj`` to group rank ``dest`` (eager/non-blocking)."""
        self._ctx.trace.on_p2p("send")
        self._ctx.send_raw(self._world_rank(dest), ("u", self._cid, tag), obj)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Receive from group rank ``source`` (or any member) and return
        the payload.  Blocks until a matching message arrives."""
        self._ctx.trace.on_p2p("recv")
        wsource = ANY_SOURCE if source == ANY_SOURCE else self._world_rank(source)
        # ANY_TAG stays inside the tag tuple: the mailbox treats a
        # trailing wildcard as "any user tag *on this communicator*",
        # which both scopes the match correctly and lets revocation of
        # this communicator release the wait.
        return self._ctx.recv_raw(wsource, ("u", self._cid, tag))

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: int = 0,
    ) -> Any:
        """Combined send+receive (deadlock-free: sends are eager)."""
        self.send(obj, dest, sendtag)
        return self.recv(source, recvtag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True if a matching message is already queued (non-blocking)."""
        wsource = ANY_SOURCE if source == ANY_SOURCE else self._world_rank(source)
        wtag = ("u", self._cid, tag)  # trailing ANY_TAG = scoped wildcard
        return self._ctx.world.mailboxes[self._ctx.rank].probe(wsource, wtag)

    # -- collective plumbing -------------------------------------------------

    def _channel(self, name: str) -> _Channel:
        """Open a collective's channel: allocate its wire tag.

        The tag carries the collective's *name* in addition to the
        context id and sequence number, so mismatched collectives across
        ranks (one calls bcast, another barrier) can never cross-match —
        they deadlock and are caught by the run's wall-clock timeout
        instead of silently exchanging wrong payloads.
        """
        self._coll_seq += 1
        return _Channel(self, ("c", self._cid, self._coll_seq, name))

    @staticmethod
    def _tuning_inputs(value: Any, op: Any, nprocs: int) -> tuple[int, bool]:
        """``(nbytes, splittable)`` for the algorithm tuner.

        Sized without pickling (:func:`~repro.util.sizing.cheap_nbytes`:
        arrays, scalars, states that report their own wire size and
        containers of those).  An unknown size is reported as
        unboundedly large: no segmenting algorithm can use such a
        payload anyway, and the radix guard then keeps plain doubling.
        """
        nbytes = cheap_nbytes(value)
        return (
            _tuning._UNBOUNDED if nbytes is None else nbytes,
            _tuning.is_splittable(value, op, nprocs),
        )

    def _node_groups(self) -> tuple[tuple[int, ...], ...] | None:
        """The members' node partition under the world's topology (group
        ranks, contiguous by construction), or ``None`` when there is no
        hierarchy to exploit.  Computed once per communicator — members
        and topology are both immutable."""
        if self._node_groups_cache is False:
            self._node_groups_cache = contiguous_node_groups(
                self._ctx.world.topology, self._members
            )
        return self._node_groups_cache

    def _auto_choice(
        self, kind: str, value: Any, op: Any, combine_seconds: float = 0.0
    ) -> tuple[str, int]:
        """Resolve ``algorithm="auto"`` for one collective call to
        ``(algorithm, radix)`` — the one resolver: the global-view
        drivers that must know the answer before they issue (the
        overlapped reduce, a fusion bucket) ask here too.

        One lookup in the world's cross-job ``ScheduleCache``: cached
        constant-decision spans return exactly what the tuning choice
        functions would, amortized across every job sharing the world.
        The world's topology signature joins the decision key: a fabric
        with a fitted per-topology table gets its own answers (possibly
        ``"hierarchical"``), everyone else falls back to the flat table.
        The radix is the fitted fan-out of the doubling schedules and 2
        for every other algorithm.
        """
        commutative = op.commutative if isinstance(op, Op) else True
        nbytes, splittable = self._tuning_inputs(value, op, self.size)
        world = self._ctx.world
        return world.schedule_cache.schedule(
            kind, nbytes, self.size, commutative, splittable,
            topology=world.topology.signature,
            combine_seconds=combine_seconds,
            cost_model=self._ctx.cost_model,
        )

    def _collective(
        self,
        name: str,
        kind: str,
        *operands: Any,
        algorithm: str | None = None,
        root: int = 0,
        request: bool = False,
        **options: Any,
    ) -> Any:
        """Run (or, with ``request=True``, issue) one collective.

        The one place a ``(kind, algorithm)`` pair becomes a plan and the
        one place a collective span opens; every public entry point
        below, blocking and ``i*`` alike, is a call of this.
        ``operands`` and ``options`` go to the schedule's plan factory;
        ``algorithm=None`` means the kind's only schedule; a non-zero
        ``root`` re-roots a rank-0-rooted plan.
        """
        tr = self._ctx.tracer
        # Blocking reductions and scans name their op on the span
        # (operands lead with (value, op); nothing else has .name).
        with (
            tr.span(
                name, phase="collective",
                op=None if request or len(operands) < 2
                else getattr(operands[1], "name", None),
            )
            if tr.enabled else NULL_SPAN
        ):
            self._ctx.trace.on_collective(name, kind)
            ch = self._channel(name)
            if algorithm == "auto":
                # (value, op) lead the operands of every tuned kind.  The
                # radix is auto's alone: a named schedule is the classic
                # one.
                algorithm, radix = self._auto_choice(
                    kind, *operands[:2], options.get("combine_seconds", 0.0)
                )
                if radix != 2:
                    options["radix"] = radix
            schedule = _coll.schedule(
                kind, algorithm, caller=name, resumable=request
            )
            if schedule.groups:
                # With no hierarchy (flat fabric, or all members on one
                # node) the plan degrades to the flat schedules internally.
                options["groups"] = self._node_groups()
            plan = schedule.plan(ch, *operands, **options)
            if not schedule.resumable:
                plan = _finished_plan(plan)
            if root != 0:
                plan = _reroot_plan(ch, plan, root)
            if request:
                return _req.Request(self._ctx, ch, plan, name=name)
            return _coll.run_plan(ch, plan)

    # -- collectives ----------------------------------------------------------

    def barrier(self) -> None:
        """Block until every member has entered the barrier."""
        self._collective("barrier", "barrier")

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns the value."""
        return self._collective("bcast", "bcast", obj, root)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one value per rank; root returns the rank-ordered list."""
        return self._collective("gather", "gather", obj, root)

    def allgather(self, obj: Any) -> list[Any]:
        """Gather one value per rank onto every rank (gather + bcast)."""
        return self._collective("allgather", "allgather", obj)

    def scatter(self, items: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter ``items[i]`` (on root) to rank ``i``; returns my item."""
        return self._collective("scatter", "scatter", items, root)

    def alltoall(self, items: Sequence[Any]) -> list[Any]:
        """Personalized all-to-all: ``items[i]`` goes to rank ``i``."""
        return self._collective("alltoall", "alltoall", items)

    def reduce(
        self,
        value: Any,
        op: Op | Callable[[Any, Any], Any],
        root: int = 0,
        *,
        fanout: int = 2,
        combine_seconds: float = 0.0,
        algorithm: str = "auto",
    ) -> Any:
        """Reduce ``value`` across ranks with ``op``; the result lands on
        ``root`` (``None`` elsewhere).

        Aggregation: pass NumPy arrays to reduce many values at once
        (MPI's ``count > 1``).  ``algorithm`` selects the schedule:
        ``"auto"`` (default) consults :mod:`repro.mpi.tuning`'s decision
        table — the order-preserving ``"binomial"`` tree for small or
        non-splittable payloads, the segmented ``"pipelined_ring"`` for
        large 1-D arrays under elementwise ops — and both names may be
        given explicitly.  Passing ``fanout > 2`` with a commutative op
        selects the ``"kary"`` available-order tree (as before); that
        schedule is never chosen automatically.

        An op that mutates its left operand may mutate the ``value``
        passed in (the local contribution seeds the combining chain);
        pass a copy if the input must survive.  The global-view drivers
        always pass freshly accumulated states, so operators defined
        through :class:`~repro.core.operator.ReduceScanOp` are unaffected.
        """
        kary = _coll.REDUCE_KARY.name
        if algorithm == "auto" and fanout > 2 and (
            op.commutative if isinstance(op, Op) else True
        ):
            algorithm = kary
        options = {"fanout": max(fanout, 2)} if algorithm == kary else {}
        return self._collective(
            "reduce", "reduce", value, op, algorithm=algorithm, root=root,
            combine_seconds=combine_seconds, **options,
        )

    def allreduce(
        self,
        value: Any,
        op: Op | Callable[[Any, Any], Any],
        *,
        combine_seconds: float = 0.0,
        algorithm: str = "auto",
    ) -> Any:
        """Reduce across ranks; every rank returns the result.

        ``algorithm`` selects the schedule: ``"auto"`` (default) consults
        :mod:`repro.mpi.tuning`'s cost-model-fitted decision table and
        only ever routes commutative ops over splittable payloads away
        from recursive doubling.  Explicit choices:
        ``"recursive_doubling"`` (latency-optimal, order-preserving,
        works for any operand), ``"ring"`` (bandwidth-optimal for large
        NumPy arrays; commutative only), ``"rabenseifner"``
        (reduce-scatter + allgather; best latency/bandwidth balance for
        medium-to-large arrays; commutative only) or ``"hierarchical"``
        (topology-aware node/leader schedule; wins on multi-tier fabrics
        and degrades to recursive doubling on the flat one).
        """
        return self._collective(
            "allreduce", "allreduce", value, op, algorithm=algorithm,
            combine_seconds=combine_seconds,
        )

    def reduce_scatter(
        self,
        value: Any,
        op: Op | Callable[[Any, Any], Any],
        *,
        combine_seconds: float = 0.0,
    ) -> tuple[Any, tuple[int, int]]:
        """Element-wise reduce a NumPy array and scatter it: rank r
        returns ``(segment_r, (lo, hi))`` of the reduced array
        (MPI_Reduce_scatter_block semantics; commutative ops only).

        Moves (p-1)/p of the data per rank — the building block of the
        ring all-reduce and of bandwidth-bound aggregated reductions.
        """
        return self._collective(
            "reduce_scatter", "reduce_scatter", value, op,
            combine_seconds=combine_seconds,
        )

    def scan(
        self,
        value: Any,
        op: Op | Callable[[Any, Any], Any],
        *,
        combine_seconds: float = 0.0,
        algorithm: str = "auto",
    ) -> Any:
        """Inclusive prefix reduction over ranks (MPI_Scan).

        ``algorithm``: ``"auto"`` (default; table-driven), ``"binomial"``
        (simultaneous binomial, log2(p) rounds) or ``"chain"`` (linear
        chain, p-1 serialized hops but minimal total traffic).
        """
        return self._collective(
            "scan", "scan", value, op, algorithm=algorithm,
            exclusive=False, identity=None, combine_seconds=combine_seconds,
        )

    def exscan(
        self,
        value: Any,
        op: Op | Callable[[Any, Any], Any],
        *,
        identity: Callable[[], Any] | None = None,
        combine_seconds: float = 0.0,
        algorithm: str = "auto",
    ) -> Any:
        """Exclusive prefix reduction over ranks (MPI_Exscan).

        Rank 0 returns ``identity()`` if given (or the op's own identity),
        else ``None`` — MPI leaves this slot undefined; the paper's
        LOCAL_XSCAN takes an identity function to define it.  See
        :meth:`scan` for ``algorithm``.
        """
        if identity is None and isinstance(op, Op):
            identity = op.identity
        return self._collective(
            "exscan", "scan", value, op, algorithm=algorithm,
            exclusive=True, identity=identity,
            combine_seconds=combine_seconds,
        )

    # -- nonblocking collectives ----------------------------------------------

    def iallreduce(
        self,
        value: Any,
        op: Op | Callable[[Any, Any], Any],
        *,
        combine_seconds: float = 0.0,
        algorithm: str = "auto",
    ) -> _req.Request:
        """Nonblocking :meth:`allreduce`: issues the same schedule as the
        blocking call (first-round sends leave immediately) and returns a
        :class:`repro.mpi.request.Request`; ``wait()`` yields the value
        every rank would have gotten from ``allreduce`` — bit-identical,
        for any operator and any algorithm choice."""
        return self._collective(
            "iallreduce", "allreduce", value, op, algorithm=algorithm,
            request=True, combine_seconds=combine_seconds,
        )

    def ireduce(
        self,
        value: Any,
        op: Op | Callable[[Any, Any], Any],
        root: int = 0,
        *,
        combine_seconds: float = 0.0,
        algorithm: str = "auto",
    ) -> _req.Request:
        """Nonblocking :meth:`reduce`.  ``wait()`` returns the reduction
        on ``root`` and ``None`` elsewhere.  The availability-order
        ``"kary"`` schedule has no resumable plan form and is rejected."""
        return self._collective(
            "ireduce", "reduce", value, op, algorithm=algorithm, root=root,
            request=True, combine_seconds=combine_seconds,
        )

    def iscan(
        self,
        value: Any,
        op: Op | Callable[[Any, Any], Any],
        *,
        combine_seconds: float = 0.0,
        algorithm: str = "auto",
    ) -> _req.Request:
        """Nonblocking :meth:`scan`."""
        return self._collective(
            "iscan", "scan", value, op, algorithm=algorithm, request=True,
            exclusive=False, identity=None, combine_seconds=combine_seconds,
        )

    def iexscan(
        self,
        value: Any,
        op: Op | Callable[[Any, Any], Any],
        *,
        identity: Callable[[], Any] | None = None,
        combine_seconds: float = 0.0,
        algorithm: str = "auto",
    ) -> _req.Request:
        """Nonblocking :meth:`exscan`."""
        if identity is None and isinstance(op, Op):
            identity = op.identity
        return self._collective(
            "iexscan", "scan", value, op, algorithm=algorithm, request=True,
            exclusive=True, identity=identity,
            combine_seconds=combine_seconds,
        )

    def ibarrier(self) -> _req.Request:
        """Nonblocking :meth:`barrier`: ``wait()`` completes once every
        member has *entered* the barrier (they need not have waited)."""
        return self._collective("ibarrier", "barrier", request=True)

    def progress(self) -> None:
        """Advance any outstanding nonblocking collectives through rounds
        whose messages have already been delivered (never blocks).  See
        :mod:`repro.mpi.request` for the determinism caveat."""
        eng = self._ctx._progress
        if eng is not None:
            eng.drain_delivered()

    def fused(self) -> "ReductionBucket":
        """A :class:`repro.core.fusion.ReductionBucket` bound to this
        communicator, usable as a context manager::

            with comm.fused() as bucket:
                a = bucket.allreduce(x, mpi.SUM)
                b = bucket.allreduce(y, mpi.MAX)
            # exiting flushed the bucket; a.result() / b.result() are ready

        Queued reductions are coalesced into shared combine waves (see
        docs/overlap.md).
        """
        from repro.core.fusion import ReductionBucket

        return ReductionBucket(self)

    # -- fault tolerance (ULFM-style) -----------------------------------------

    @property
    def failed_ranks(self) -> frozenset[int]:
        """Group ranks of members the failure detector knows to be dead."""
        dead = self._ctx.world.membership.dead_snapshot()
        return frozenset(
            g for g, w in enumerate(self._members) if w in dead
        )

    @property
    def is_revoked(self) -> bool:
        """True once any member has revoked this communicator."""
        return self._ctx.world.membership.is_revoked(self._cid)

    def revoke(self) -> None:
        """Revoke this communicator (ULFM ``MPI_Comm_revoke``).

        Every member's pending and future receive on this communicator's
        tags raises :class:`~repro.errors.RevokedError` — the mechanism
        that releases survivors stuck mid-collective after a peer died,
        so they can all reach the recovery protocol.  Idempotent;
        fault-tolerance control traffic (:meth:`agree`) is exempt and
        keeps flowing.
        """
        self._ctx.world.revoke_cid(self._cid)

    def shrink(self) -> "Communicator":
        """A new communicator over the surviving members (ULFM
        ``MPI_Comm_shrink``).

        The new context id is derived from the old one plus the sorted
        set of excluded ranks, so all survivors — who share the perfect
        failure detector's view — construct matching tags without any
        extra communication.  Call only after :meth:`agree` has
        established a consistent view of the failure.
        """
        dead = self._ctx.world.membership.dead_snapshot()
        survivors = tuple(w for w in self._members if w not in dead)
        if not survivors:
            raise CommunicatorError("shrink: no surviving members")
        excluded = tuple(sorted(set(self._members) - set(survivors)))
        cid = ("shrink", self._cid, excluded)
        return Communicator(self._ctx, survivors, cid)

    def agree(self, flag: bool = True) -> bool:
        """Fault-tolerant agreement on the logical AND of ``flag`` across
        surviving members (ULFM ``MPI_Comm_agree``).

        Works on a revoked communicator (its control tags are exempt
        from revocation) and tolerates the death of the coordinating
        rank by re-electing the lowest surviving member and retrying.
        A member dying *during* the agreement forces the result to
        ``False`` — survivors will re-run recovery and observe the new
        failure.  Like ULFM, the protocol assumes failures are eventually
        quiescent; the pathological case of a coordinator dying after
        answering only some members is outside the single-failure model
        the recovery drivers are specified for (see docs/fault_model.md).
        """
        self._agree_seq += 1
        seq = self._agree_seq
        ctx = self._ctx
        membership = ctx.world.membership
        # The control tags deliberately do NOT carry a re-election
        # attempt number.  Survivors may enter the protocol with
        # different failure knowledge (several ranks dying at once —
        # e.g. a rack failure — is detected at different times), so the
        # same logical round can be attempt 0 for one member and
        # attempt 1 for another; attempt-stamped tags then never match
        # and the survivors deadlock.  Tags stay unambiguous without
        # the stamp: every re-election moves to a strictly higher
        # leader rank, so for one ``(cid, seq)`` any (member, leader)
        # pair exchanges at most one ask and one reply.
        while True:
            dead = membership.dead_snapshot()
            alive = [w for w in self._members if w not in dead]
            leader = alive[0]
            ask = ("ft", self._cid, seq)
            reply = ("ftr", self._cid, seq)
            if ctx.rank == leader:
                result = bool(flag)
                for w in alive:
                    if w == leader:
                        continue
                    try:
                        result = bool(ctx.recv_raw(w, ask)) and result
                    except RankFailedError:
                        result = False  # died mid-agreement: force recovery
                for w in alive:
                    if w != leader:
                        ctx.send_raw(w, reply, result)
                return result
            ctx.send_raw(leader, ask, bool(flag))
            try:
                return bool(ctx.recv_raw(leader, reply))
            except RankFailedError:
                continue  # leader died: re-elect and retry

    # -- communicator management ----------------------------------------------

    def dup(self) -> "Communicator":
        """A new communicator with the same group but isolated tags."""
        self._split_seq += 1
        cid = ("dup", self._cid, self._split_seq)
        return Communicator(self._ctx, self._members, cid)

    def split(self, color: int, key: int | None = None) -> "Communicator":
        """Partition the communicator by ``color``; order within each new
        group follows ``(key, old rank)`` (like ``MPI_Comm_split``)."""
        if key is None:
            key = self.rank
        self._split_seq += 1
        entries = self.allgather((color, key, self.rank))
        mine = sorted(
            (k, r) for (c, k, r) in entries if c == color
        )
        members = tuple(self._world_rank(r) for (_k, r) in mine)
        cid = ("split", self._cid, self._split_seq, color)
        return Communicator(self._ctx, members, cid)
