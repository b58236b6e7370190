"""The shared rank pool, the per-run state over it, and per-rank contexts.

A :class:`World` is the **pool**: what outlives any one run — mailboxes,
the context-id allocator, the schedule and kernel caches, the fabric and
the default cost model.  A :class:`JobWorld` is **one run** on some of the
pool's ranks: clocks, traces, the abort flag, the
:class:`~repro.runtime.channels.Membership` (perfect failure detector +
hang watchdog), the tracer capture and an optional
:class:`~repro.faults.injection.FaultInjector` built from a seeded
:class:`~repro.faults.plan.FaultPlan`.  Each rank of a run gets a
:class:`RankContext` — the object through which *all* simulated
communication and all simulated-time charging flows.

The context's ``send_raw``/``recv_raw`` are the only way bytes move
between ranks; every higher layer (MPI collectives, local-view routines,
global-view drivers) bottoms out here, so message counts, byte counts and
virtual-time causality are accounted for exactly once — and so fault
injection hooked here (fail-stop checks, lossy-link emulation, straggler
slowdown) covers every layer above without modification.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Hashable

from repro.core.kernels import default_cache
from repro.errors import CommunicatorError
from repro.mpi.schedule_cache import ScheduleCache
from repro.obs.tracer_null import NULL_TRACER
from repro.runtime.channels import Envelope, Mailbox, Membership
from repro.runtime.clock import VirtualClock
from repro.runtime.costmodel import CostModel
from repro.runtime.fabric import FLAT, Topology
from repro.runtime.trace import Trace
from repro.util.sizing import copy_for_transfer, payload_nbytes

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer

__all__ = ["World", "JobWorld", "RankContext", "cid_root"]


def cid_root(cid: Hashable) -> Hashable:
    """The base context id a (possibly derived) cid descends from.

    ``dup``/``split``/``shrink`` derive nested-tuple cids whose second
    element is the parent cid — ``("split", ("dup", 5, 1), 2, 0)`` roots
    at ``5``.  The engine allocates one base cid per job, so the root
    identifies which job's traffic a tag belongs to.
    """
    while isinstance(cid, tuple) and len(cid) >= 2:
        cid = cid[1]
    return cid


class World:
    """The rank pool: everything that outlives a run, and no run state."""

    def __init__(
        self,
        nprocs: int,
        cost_model: CostModel | None = None,
        *,
        topology: Topology | None = None,
    ):
        if nprocs < 1:
            raise CommunicatorError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self.cost_model = cost_model if cost_model is not None else CostModel()
        #: The network fabric every message is priced against.  The flat
        #: singleton (the default) delegates straight to the cost model,
        #: reproducing pre-fabric wire times bit-for-bit.
        self.topology = topology if topology is not None else FLAT
        # Between jobs a mailbox answers to nobody (a flag nothing sets,
        # no membership); a rank thread binds its job's pair on entry.
        unbound = threading.Event()
        self.mailboxes = [Mailbox(r, unbound) for r in range(nprocs)]
        self._cid_lock = threading.Lock()
        self._next_cid = 1
        # Cross-job memo for algorithm="auto" decisions.
        self.schedule_cache = ScheduleCache()
        # Compiled accumulate kernels are operator/dtype artifacts, not
        # world state, so every world shares the process-wide cache.
        self.kernel_cache = default_cache()
        # Process-backend accumulate offload pool; installed by the
        # engine when it was built with backend="process", else None
        # (the threaded world folds in-process).
        self.proc_pool = None

    def allocate_context_id(self) -> int:
        """Allocate a communicator context id (unique per World).

        Thread-safe by a dedicated lock: the engine allocates one base
        cid per job, and submissions race from many client threads.
        """
        with self._cid_lock:
            cid = self._next_cid
            self._next_cid += 1
            return cid


class JobWorld:
    """The state of one run on ``members`` of a pool :class:`World`.

    The persistent engine runs many jobs over one world: one set of
    mailboxes, one rank-thread pool, one context-id allocator, one
    schedule cache.  Everything *else* — clocks, traces, membership
    (failure detector + watchdog), abort flag, tracer capture, fault
    injector — is per job, so each job observes a fresh virtual-clock
    epoch and its results are bit-identical whatever ran before it.

    This is the ``world`` :class:`RankContext`, the communicator and the
    fault layers see, with two index conventions in play:

    * **world ranks** index shared structures (``mailboxes``, and the
      full-length ``clocks``/``traces``/``rank_tracers`` lists, which
      carry ``None``/null entries at non-member slots);
    * **group ranks** (0..job_size-1) label everything user-visible —
      trace ``rank`` fields, tracer captures, fault-plan targets,
      ``rank_states`` — which is what makes results independent of
      where in the pool the job was placed.
    """

    def __init__(
        self,
        parent: World,
        members: tuple[int, ...],
        *,
        tracer: Tracer | None = None,
        fault_plan: Any | None = None,
    ):
        job_size = len(members)
        if job_size < 1:
            raise CommunicatorError(f"nprocs must be >= 1, got {job_size}")
        self.parent = parent
        self.members = tuple(members)
        self.nprocs = parent.nprocs  # pool size: world-rank address space
        self.cost_model = parent.cost_model
        # The fabric is pool infrastructure, shared like the mailboxes:
        # a job pays for the links its placement actually crosses.
        self.topology = parent.topology
        self.mailboxes = parent.mailboxes
        self.schedule_cache = parent.schedule_cache
        self.kernel_cache = parent.kernel_cache
        # Jobs inherit the engine's accumulate-offload pool: worker r
        # serves world rank r, so concurrent jobs on disjoint ranks
        # never contend for a worker.
        self.proc_pool = parent.proc_pool
        self.abort_event = threading.Event()
        self.membership = Membership(parent.nprocs, self.members)
        self.membership.mailboxes = parent.mailboxes
        #: The job's root communicator context id — allocated from the
        #: shared World, so two jobs' tags can never collide even while
        #: their lifetimes overlap on the same mailboxes.
        self.base_cid = parent.allocate_context_id()
        self.clocks: list[VirtualClock | None] = [None] * parent.nprocs
        self.traces: list[Trace | None] = [None] * parent.nprocs
        for g, w in enumerate(self.members):
            self.clocks[w] = VirtualClock()
            self.traces[w] = Trace(rank=g)
        self.membership.clocks = self.clocks
        self.rank_tracers: list[Any] = [NULL_TRACER] * parent.nprocs
        if tracer is not None and tracer.enabled:
            self.run_capture = tracer.begin_run(
                job_size, [self.clocks[w] for w in self.members]
            )
            self.run_capture.traces = [self.traces[w] for w in self.members]
            for g, w in enumerate(self.members):
                self.rank_tracers[w] = self.run_capture.ranks[g]
        else:
            self.run_capture = None
        if fault_plan is not None:
            from repro.faults.injection import FaultInjector
            from repro.faults.plan import expand_rack_failures

            # Rack failures depend on where the pool placed the gang:
            # expand them against the actual members before binding.
            fault_plan = expand_rack_failures(
                fault_plan, self.topology, self.members
            )
            # Plans address ranks 0..job_size-1; the map translates the
            # pool placement back to plan coordinates so a chaos-seeded
            # job behaves identically wherever it lands.
            self.injector = FaultInjector(
                fault_plan, job_size, self.traces,
                rank_map={w: g for g, w in enumerate(self.members)},
            )
        else:
            self.injector = None

    def allocate_context_id(self) -> int:
        """Delegate to the shared world's allocator (global uniqueness)."""
        return self.parent.allocate_context_id()

    @property
    def can_fail(self) -> bool:
        """True when the installed fault plan can fail-stop a rank —
        the condition under which the global-view drivers checkpoint
        states and run the commit/agree protocol around the combine."""
        return self.injector is not None and self.injector.can_fail

    def _notify_members(self) -> None:
        # Blocking receives are poll-free, so a state change alone would
        # leave blocked ranks asleep: wake them to re-evaluate.
        for w in self.members:
            self.mailboxes[w].notify_abort()

    def abort(self) -> None:
        """Tear down *this job only*: set its abort flag and wake its
        members blocked in a mailbox so they observe it immediately.
        Concurrent jobs on other pool ranks are untouched."""
        self.abort_event.set()
        self._notify_members()

    def mark_failed(self, rank: int) -> None:
        """Record a fail-stop of world-rank ``rank`` within this job and
        wake blocked peers so waits on the dead rank turn into
        :class:`~repro.errors.RankFailedError` instead of hangs."""
        self.membership.mark_dead(rank)
        self._notify_members()

    def retire_rank(self, rank: int) -> None:
        """Record that world-rank ``rank``'s function returned (or
        unwound).  Blocked peers are woken so the hang watchdog can
        re-evaluate: a receive that was merely *pending* may have just
        become a guaranteed deadlock."""
        self.membership.mark_done(rank)
        self._notify_members()

    def revoke_cid(self, cid: Hashable) -> None:
        """Revoke a communicator context id and wake blocked members."""
        self.membership.revoke(cid)
        self._notify_members()

    def rank_states(self) -> list[dict]:
        """Per-member diagnostics (status, blocked wait, clock, queue),
        labeled with group ranks."""
        return self.membership.rank_states()

    def owns_tag(self, tag: Hashable) -> bool:
        """True when ``tag`` belongs to a communicator rooted at this
        job's base cid (used to sweep leaked envelopes at finalize)."""
        return (
            isinstance(tag, tuple)
            and len(tag) >= 2
            and cid_root(tag[1]) == self.base_cid
        )

    def context(self, rank: int) -> "RankContext":
        """The per-rank handle for world-rank ``rank`` (a member)."""
        if rank not in self.membership.members:
            raise CommunicatorError(
                f"world rank {rank} is not a member of this job"
            )
        return RankContext(self, rank)


class RankContext:
    """One rank's handle on its run: clock, trace, and raw messaging."""

    __slots__ = ("world", "rank", "clock", "trace", "tracer", "_progress",
                 "_send_seq", "_recv_next", "_recv_buf")

    def __init__(self, world: JobWorld, rank: int):
        self.world = world
        self.rank = rank
        self.clock = world.clocks[rank]
        self.trace = world.traces[rank]
        self.tracer = world.rank_tracers[rank]
        # Lazily created per-rank progress engine for nonblocking
        # collectives (repro.mpi.request); None until the first request.
        self._progress = None
        # Reliable-delivery state, only touched under a lossy fault plan:
        # per-(dest, tag) send sequence numbers, per-(source, tag) next
        # expected sequence numbers, and the out-of-order hold-back buffer.
        self._send_seq: dict[tuple[int, Hashable], int] = {}
        self._recv_next: dict[tuple[int, Hashable], int] = {}
        self._recv_buf: dict[tuple[int, Hashable], dict[int, Envelope]] = {}

    @property
    def nprocs(self) -> int:
        """Total ranks in the world this context belongs to."""
        return self.world.nprocs

    @property
    def cost_model(self) -> CostModel:
        """The run's communication/computation cost parameters."""
        return self.world.cost_model

    # -- simulated computation --------------------------------------------

    def charge(self, seconds: float, label: str = "compute") -> None:
        """Advance this rank's virtual clock by a modeled compute time;
        an enabled tracer records it as a leaf span named ``label``.

        Under a fault plan, straggler ranks pay a slowdown multiplier
        and scheduled fail-stops trigger here (virtual-time deaths land
        on the first charge that crosses the deadline).
        """
        inj = self.world.injector
        if inj is not None:
            inj.check_failstop(self.rank, self.clock.t, self.world)
            seconds *= inj.slowdown(self.rank)
        if self.tracer.enabled:
            self.tracer.on_charge(label, self.clock.t, seconds)
        self.clock.advance(seconds)
        self.trace.on_compute(seconds)
        if inj is not None:
            # A death whose deadline this charge just crossed fires now:
            # the next progress point at-or-after the scheduled time.
            inj.check_failstop(self.rank, self.clock.t, self.world)

    def charge_elements(self, rate_name: str, n_elements: float, label: str | None = None) -> None:
        """Charge ``n_elements`` of work at a named cost-model rate."""
        seconds = self.cost_model.compute_time(rate_name, n_elements)
        self.charge(seconds, label or rate_name)

    # -- raw point-to-point -------------------------------------------------

    def send_raw(self, dest: int, tag: Hashable, payload: Any) -> None:
        """Eagerly send ``payload`` to world-rank ``dest``.

        The sender pays its send overhead; the message becomes available
        to the receiver after wire latency plus per-byte time.  The payload
        is deep-copied to model distinct address spaces.

        Fault injection hooks here: the per-rank operation counter that
        drives nth-operation fail-stops ticks on every send, and lossy
        link plans route the message through the reliable-delivery layer
        (sender-modeled retransmit backoff for drops, sequence-numbered
        frames for duplicate suppression and reorder repair).
        """
        if not 0 <= dest < self.world.nprocs:
            raise CommunicatorError(
                f"send: destination rank {dest} out of range "
                f"[0, {self.world.nprocs})"
            )
        inj = self.world.injector
        if inj is not None:
            inj.on_send_op(self.rank, self.clock.t, self.world)
        cm = self.cost_model
        nbytes = payload_nbytes(payload)
        self.clock.advance(cm.send_overhead)
        payload = copy_for_transfer(payload)
        if inj is not None and inj.lossy:
            from repro.faults.reliable import reliable_send

            reliable_send(self, inj, dest, tag, payload, nbytes)
            return
        # Wire time is a property of the *path*, not just the size: the
        # world's topology prices the tiers the message crosses.  The
        # flat default evaluates to exactly the old
        # ``cm.wire_time(nbytes)`` (0.0 for self-sends).
        available_at = self.clock.t + self.world.topology.path_cost(
            self.rank, dest, nbytes, cm
        )
        self.trace.on_send(nbytes)
        if self.tracer.enabled:
            self.tracer.on_send(dest, tag, nbytes, self.clock.t, available_at)
        self.world.mailboxes[dest].deliver(
            Envelope(self.rank, tag, payload, nbytes, available_at)
        )

    def recv_raw(self, source: int, tag: Hashable) -> Any:
        """Receive the next message matching ``(source, tag)``; blocks.

        The receiver's clock merges the message's availability time and
        then pays the receive overhead.
        """
        return self.recv_raw_envelope(source, tag).payload

    def recv_raw_envelope(self, source: int, tag: Hashable) -> Envelope:
        """Like :meth:`recv_raw` but returns the full envelope."""
        env = self.collect_envelope(source, tag)
        return self._account_recv(env)

    def _account_recv(self, env: Envelope) -> Envelope:
        t_arrive = self.clock.t
        self.clock.merge(env.available_at)
        self.clock.advance(self.cost_model.recv_overhead)
        self.trace.on_recv(env.nbytes)
        if self.tracer.enabled:
            self.tracer.on_recv(
                env.source, env.tag, env.nbytes,
                t_arrive, env.available_at, self.clock.t,
            )
        return env

    # -- deferred receives (deterministic "combine as available") ----------

    def collect_envelope(self, source: int, tag: Hashable) -> Envelope:
        """Dequeue a matching message *without* any clock or trace effect.

        Used by commutative reductions that want to process children in
        availability order rather than rank order: collect all envelopes
        first (thread-blocking only), sort by ``available_at``, then apply
        each with :meth:`apply_recv`.  Splitting collection from
        accounting keeps virtual time deterministic.

        Under a lossy fault plan this is also where the receive side of
        the reliable-delivery layer lives: duplicate frames are
        discarded and reordered frames held back until their sequence
        number is next, so every layer above sees exactly-once, in-order
        delivery.
        """
        eng = self._progress
        if eng is not None:
            # About to block: let outstanding nonblocking collectives
            # consume any already-delivered rounds first (no-op while the
            # engine itself is receiving).
            eng.on_block()
        inj = self.world.injector
        if inj is not None and inj.lossy:
            from repro.faults.reliable import reliable_collect

            return reliable_collect(self, inj, source, tag)
        return self.world.mailboxes[self.rank].collect(source, tag)

    def apply_recv(self, env: Envelope) -> Any:
        """Account for a previously collected envelope and return payload."""
        return self._account_recv(env).payload
