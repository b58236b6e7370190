"""Deterministic point-to-point message channels between ranks.

Each rank owns one :class:`Mailbox`.  A message is addressed by its
``(source, tag)`` pair and queued FIFO within that pair, so matching is
deterministic regardless of the thread schedule — the property that makes
virtual-time results bit-reproducible.

``ANY_SOURCE`` / ``ANY_TAG`` wildcard receives are supported for
completeness (MPI has them) but matching order for wildcards depends on
arrival order and is therefore only deterministic when a single candidate
message can exist, which is how the library itself uses them.

Blocking receives are **poll-free**: a rank blocked in
:meth:`Mailbox.collect` sleeps on the mailbox condition until a sender
delivers a matching message or the run aborts.  Aborts wake every
blocked rank immediately via :meth:`Mailbox.notify_abort` (called by
``JobWorld.abort``); a coarse once-a-second recheck guards against code
that sets the shared abort event without notifying, but no fast
periodic poll remains on any path.

Fault semantics live here too, via the shared :class:`Membership`:

* A blocked receive on a rank the failure detector knows to be dead
  raises :class:`~repro.errors.RankFailedError` instead of hanging
  (queued messages from the dead rank drain first — death does not
  destroy in-flight data).
* A blocked receive on a revoked communicator raises
  :class:`~repro.errors.RevokedError` so survivors can reach recovery.
* The **hang watchdog**: when every active rank is blocked in a receive
  with no matching message queued, no rank can ever deliver again (the
  ranks are the only senders), so the state is a guaranteed deadlock.
  The rank whose block completes the condition raises a
  :class:`~repro.errors.DeadlockError` naming every rank's pending
  ``(source, tag)`` wait.

Ordering inside :meth:`Mailbox.collect` matters: a matching queued
message is always drained *before* the abort / failure / revocation
checks, so a rank whose data already arrived completes its receive
instead of spuriously unwinding.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Hashable

from repro import _lazy
from repro import runtime as _runtime
from repro.errors import DeadlockError, RankFailedError, RevokedError, RuntimeAbort
from repro.util.record import Record

__all__ = ["ANY_SOURCE", "ANY_TAG", "Envelope", "Mailbox", "Membership"]

ANY_SOURCE: int = -1
ANY_TAG: int = -1

#: Retired-deque pool size.  Collective tags are unique per call (context
#: id + sequence number), so without recycling the queue dict would grow
#: by one key per collective; a small pool of spare deques keeps the hot
#: path allocation-free and the dict bounded by the number of keys with
#: messages actually in flight.
_SPARE_QUEUES = 8

#: Safety-net recheck period for a blocked ``collect``.  The normal
#: wakeup is a notification (``deliver``, ``notify_abort``, or a
#: membership change); this timeout only matters if the shared abort
#: event is set directly without ``notify_abort``, in which case the
#: receiver still notices within a second instead of sleeping forever.
_ABORT_RECHECK_SECONDS = 1.0

#: Tag-tuple markers whose context id (element 1) is subject to
#: communicator revocation.  Fault-tolerance control traffic ("ft"/"ftr"
#: tags used by ``Communicator.agree``) is exempt — it must keep flowing
#: on a revoked communicator, exactly like ULFM's agreement.
_REVOCABLE_TAG_KINDS = ("c", "u")


def tag_is_wild(tag: Hashable) -> bool:
    """True for the bare ``ANY_TAG`` wildcard or a scoped one.

    A *scoped* wildcard is a tag tuple whose last element is ``ANY_TAG``
    — e.g. ``("u", cid, ANY_TAG)``, a ``Communicator.recv`` with the
    default tag.  It matches any concrete tag sharing its prefix, which
    keeps wildcard receives confined to their own communicator (and
    visible to that communicator's revocation), unlike a bare ``ANY_TAG``
    which matches traffic from *every* communicator and collective.
    """
    return tag == ANY_TAG or (
        isinstance(tag, tuple) and bool(tag) and tag[-1] == ANY_TAG
    )


def tag_matches(want: Hashable, have: Hashable) -> bool:
    """Match a requested tag (possibly wildcard) against a queued one."""
    if want == ANY_TAG:
        return True
    if isinstance(want, tuple) and want and want[-1] == ANY_TAG:
        return (
            isinstance(have, tuple)
            and len(have) == len(want)
            and have[:-1] == want[:-1]
        )
    return want == have


class Envelope(Record, frozen=True):
    """A delivered message: payload plus wire metadata.  ``available_at``
    is the virtual time at which the message reaches the rank."""

    __slots__ = ("source", "tag", "payload", "nbytes", "available_at")

    def __init__(self, source: int, tag: int, payload: Any, nbytes: int,
                 available_at: float):
        # One per message: the fields stored directly, as a frozen
        # dataclass's __init__ does, not through Record's generic loop.
        put = object.__setattr__
        put(self, "source", source)
        put(self, "tag", tag)
        put(self, "payload", payload)
        put(self, "nbytes", nbytes)
        put(self, "available_at", available_at)


class Membership:
    """Shared failure-detector and hang-watchdog state for one run.

    This is the simulator's *perfect failure detector*: fail-stop events
    record the dead rank here, so every survivor observes an identical,
    immediate view of the failure (the strongest detector in the
    literature, and the standard assumption under which ULFM-style
    ``shrink``/``agree`` protocols are specified).

    It also tracks which ranks are done (returned from the SPMD
    function) and which are currently blocked in a receive, which is
    exactly the information the hang watchdog needs: when
    ``len(blocked) == active count``, nobody can ever send again.
    """

    def __init__(self, nprocs: int, members: tuple[int, ...]):
        self.nprocs = nprocs
        #: The world ranks this membership covers: the pool ranks the job
        #: was placed on, so its watchdog and failure detector reason
        #: about the job's ranks alone.
        self.members: tuple[int, ...] = tuple(members)
        self.lock = threading.Lock()
        self.dead: set[int] = set()
        self.done: set[int] = set()
        self.revoked: set = set()  # revoked communicator context ids
        self.blocked: dict[int, tuple[int, Hashable]] = {}
        #: Bumped on every successful un-block; lets the deadlock scan
        #: detect that a rank it saw as blocked actually made progress.
        self.version = 0
        #: Wired by the JobWorld after construction: the pool's mailboxes
        #: and the run's clocks, both indexed by world rank.
        self.mailboxes: list[Mailbox] = []
        self.clocks: list[Any] = []

    # -- failure detector ---------------------------------------------------

    def mark_dead(self, rank: int) -> None:
        with self.lock:
            self.dead.add(rank)
            self.blocked.pop(rank, None)
            self.version += 1

    def mark_done(self, rank: int) -> None:
        with self.lock:
            if rank not in self.dead:
                self.done.add(rank)
            self.blocked.pop(rank, None)
            self.version += 1

    def revoke(self, cid: Hashable) -> None:
        with self.lock:
            self.revoked.add(cid)
            self.version += 1  # invalidates any in-flight deadlock scan

    def is_revoked(self, cid: Hashable) -> bool:
        with self.lock:
            return cid in self.revoked

    def dead_snapshot(self) -> frozenset[int]:
        with self.lock:
            return frozenset(self.dead)

    def check_wait(self, source: int, tag: Hashable) -> None:
        """Raise if a receive for ``(source, tag)`` can never complete.

        Called by ``Mailbox.collect`` *after* the match attempt failed,
        so queued messages always win over failure errors.
        """
        with self.lock:
            if (
                self.revoked
                and isinstance(tag, tuple)
                and len(tag) >= 2
                and tag[0] in _REVOCABLE_TAG_KINDS
                and tag[1] in self.revoked
            ):
                raise RevokedError(tag[1])
            if source != ANY_SOURCE and source in self.dead:
                raise RankFailedError(
                    source, f"detected while waiting for tag {tag!r}"
                )

    # -- hang watchdog ------------------------------------------------------

    def on_block(self, rank: int, source: int, tag: Hashable) -> bool:
        """Register ``rank`` as blocked on ``(source, tag)``; return True
        when every active rank is now blocked (a deadlock candidate)."""
        with self.lock:
            self.blocked[rank] = (source, tag)
            active = len(self.members) - len(self.dead) - len(self.done)
            return len(self.blocked) >= active

    def on_wake(self, rank: int) -> None:
        """Unregister a blocked rank (matched a message or unwound)."""
        with self.lock:
            if self.blocked.pop(rank, None) is not None:
                self.version += 1

    def deadlock_diagnosis(self) -> str | None:
        """Confirm the all-blocked state and describe it, or return None.

        Runs **without** holding any mailbox lock (the caller released
        its own condition first), probing one mailbox at a time; the
        version counter detects any rank that made progress between the
        snapshot and the final confirmation, in which case this is not a
        deadlock after all.
        """
        with self.lock:
            active = len(self.members) - len(self.dead) - len(self.done)
            if active == 0 or len(self.blocked) < active:
                return None
            for source, tag in self.blocked.values():
                # A wait that check_wait will reject (dead source,
                # revoked communicator) is pending progress — that rank
                # raises on its next wakeup, so this is not a deadlock.
                if source != ANY_SOURCE and source in self.dead:
                    return None
                if (
                    self.revoked
                    and isinstance(tag, tuple)
                    and len(tag) >= 2
                    and tag[0] in _REVOCABLE_TAG_KINDS
                    and tag[1] in self.revoked
                ):
                    return None
            snapshot = dict(self.blocked)
            v = self.version
        for rank, (source, tag) in snapshot.items():
            if self.mailboxes[rank].probe(source, tag):
                return None  # someone's message is already there
        with self.lock:
            active = len(self.members) - len(self.dead) - len(self.done)
            if self.version != v or len(self.blocked) < active:
                return None  # progress happened mid-scan
        waits = ", ".join(
            f"rank {r} <- (source={s}, tag={t!r})"
            for r, (s, t) in sorted(snapshot.items())
        )
        return (
            f"deadlock: all {len(snapshot)} active rank(s) blocked with no "
            f"matching message queued [{waits}]"
        )

    # -- diagnostics --------------------------------------------------------

    def rank_states(self) -> list[dict]:
        """Per-rank diagnostic dicts for SpmdError/SpmdTimeout messages
        (:func:`repro.runtime.diagnostics.rank_states`)."""
        return _runtime.diagnostics.rank_states(self)


class Mailbox:
    """Inbox for a single rank, with per-(source, tag) FIFO ordering."""

    def __init__(self, rank: int, abort_event: threading.Event):
        self.rank = rank
        # Until a job binds its own pair (bind_job), the mailbox answers
        # to the flag it was built with and to no membership.
        self._abort = abort_event
        self._membership: Membership | None = None
        self._cond = threading.Condition()
        self._queues: dict[tuple[int, int], deque[Envelope]] = {}
        self._spares: list[deque[Envelope]] = []
        # Number of threads (0 or 1 — only the owning rank) currently
        # blocked in collect().  Maintained under the condition lock;
        # read without it by notify_abort's fast path.
        self._waiters = 0

    def deliver(self, env: Envelope, *, reorder: bool = False) -> None:
        """Called by a sender thread to enqueue a message.

        ``reorder=True`` (fault injection only) slots the message in
        *before* the current tail of its queue, modeling adjacent
        in-flight packets overtaking each other on the wire; the
        reliable-delivery layer's sequence numbers restore order at the
        receiver.
        """
        key = (env.source, env.tag)
        with self._cond:
            q = self._queues.get(key)
            if q is None:
                q = self._spares.pop() if self._spares else deque()
                self._queues[key] = q
            if reorder and q:
                q.insert(len(q) - 1, env)
            else:
                q.append(env)
            # Exactly one thread — the owning rank — ever blocks in
            # collect(), so a single wakeup suffices (and none at all
            # when the receiver has not blocked yet).
            if self._waiters:
                self._cond.notify()

    def notify_abort(self) -> None:
        """Wake any blocked ``collect`` so it observes the abort flag.

        The abort *event* is shared and set once by the job; this hook
        exists because a poll-free ``collect`` sleeps until notified.
        The same wakeup serves membership changes (a rank dying,
        finishing, or revoking a communicator).

        Fast path: when nobody is blocked (``_waiters == 0``, read
        without the lock) this is a no-op.  The unlocked read can miss
        a waiter only in the instant between its predicate check and
        its wait; that waiter still observes the state change within
        ``_ABORT_RECHECK_SECONDS`` via the timed wait, so the skip
        trades a bounded wakeup delay in a vanishingly rare race for
        making the common case (notify a rank that finished long ago)
        nearly free.
        """
        if not self._waiters:
            return
        with self._cond:
            self._cond.notify_all()

    # -- job-scoped binding (engine multiplexing) ---------------------------

    def bind_job(
        self,
        membership: Membership | None,
        abort_event: threading.Event,
    ) -> tuple[Membership | None, threading.Event]:
        """Swap in a job's membership and abort event; return the old pair.

        The persistent engine multiplexes jobs over one set of mailboxes.
        Only the *owning rank's thread* ever blocks in :meth:`collect`,
        and it calls ``bind_job`` before entering the job's SPMD function
        and restores the previous binding after — so the membership and
        abort flag a blocked ``collect`` consults are always the ones of
        the job that rank is currently running.  Senders never read
        either field (``deliver``/``probe`` touch only the queues), which
        is what makes the swap safe without extra synchronization beyond
        the mailbox condition lock.
        """
        with self._cond:
            previous = (self._membership, self._abort)
            self._membership = membership
            self._abort = abort_event
            return previous

    def drain_where(self, pred) -> int:
        """Remove every queued envelope whose ``(source, tag)`` satisfies
        ``pred(source, tag)``; return how many were removed.

        Engine job finalization uses this to sweep messages a finished
        job sent but never received (e.g. a re-root forward raced by an
        abort) so a long-lived world cannot accumulate leaked envelopes
        across thousands of jobs.  The predicate is tag-scoped to the
        finished job's context ids, so concurrent jobs' traffic is never
        touched.
        """
        removed = 0
        with self._cond:
            for key in list(self._queues):
                src, tag = key
                if not pred(src, tag):
                    continue
                q = self._queues[key]
                removed += len(q)
                q.clear()
                self._retire(key, q)
        return removed

    def _retire(self, key: tuple[int, int], q: deque) -> None:
        # Caller holds the lock and has just emptied q.
        del self._queues[key]
        if len(self._spares) < _SPARE_QUEUES:
            self._spares.append(q)

    def _match(self, source: int, tag: int) -> Envelope | None:
        if source != ANY_SOURCE and not tag_is_wild(tag):
            key = (source, tag)
            q = self._queues.get(key)
            if q:
                env = q.popleft()
                if not q:
                    self._retire(key, q)
                return env
            return None
        # Wildcard path: snapshot the items — _retire mutates the dict
        # mid-scan, and defensiveness against future lock-free delivery
        # costs nothing here (wildcards are not the hot path).
        for key, q in list(self._queues.items()):
            if not q:
                continue
            src, tg = key
            if (source in (ANY_SOURCE, src)) and tag_matches(tag, tg):
                env = q.popleft()
                if not q:
                    self._retire(key, q)
                return env
        return None

    def collect(self, source: int, tag: int) -> Envelope:
        """Block until a matching message arrives; honor faults/aborts.

        A matching queued message always completes the receive, even if
        the run is aborting or the sender has died — in-flight data is
        drained first.  With nothing queued, the checks run in order:
        run abort, communicator revocation, sender death, then the hang
        watchdog.

        Raises
        ------
        RuntimeAbort
            If the SPMD run is being torn down (another rank failed).
        RevokedError
            If the tag belongs to a revoked communicator.
        RankFailedError
            If the awaited source rank has fail-stopped.
        DeadlockError
            If every active rank is blocked with no matching message.
        """
        m = self._membership
        registered = False
        last_checked_version = None
        try:
            while True:
                run_watchdog = False
                with self._cond:
                    env = self._match(source, tag)
                    if env is not None:
                        if registered:
                            # Deregister *here*, under the mailbox lock,
                            # not in the finally: once the message is
                            # consumed a prober can no longer see it, so
                            # the version bump must land first or the
                            # watchdog could snapshot us as blocked,
                            # probe an already-drained queue, and call a
                            # live run a deadlock.
                            registered = False
                            m.on_wake(self.rank)
                        return env
                    if self._abort.is_set():
                        raise RuntimeAbort(
                            f"rank {self.rank}: run aborted while waiting for "
                            f"message (source={source}, tag={tag})"
                        )
                    if m is not None:
                        m.check_wait(source, tag)
                        full = m.on_block(self.rank, source, tag)
                        registered = True
                        # When our block completes the all-blocked set,
                        # scan for deadlock immediately (outside the
                        # lock) instead of sleeping; the version guard
                        # bounds this to one scan per state change, so a
                        # near-miss cannot busy-spin.
                        run_watchdog = full and m.version != last_checked_version
                    if not run_watchdog:
                        self._waiters += 1
                        try:
                            self._cond.wait(timeout=_ABORT_RECHECK_SECONDS)
                        finally:
                            self._waiters -= 1
                if run_watchdog:
                    last_checked_version = m.version
                    diagnosis = m.deadlock_diagnosis()
                    if diagnosis is not None:
                        raise DeadlockError(diagnosis)
        finally:
            if registered:
                m.on_wake(self.rank)

    def probe(self, source: int, tag: int) -> bool:
        """Return True if a matching message is already queued."""
        with self._cond:
            if source != ANY_SOURCE and not tag_is_wild(tag):
                q = self._queues.get((source, tag))
                return bool(q)
            return any(
                q
                and (source in (ANY_SOURCE, src))
                and tag_matches(tag, tg)
                for (src, tg), q in self._queues.items()
            )

    def pending_count(self) -> int:
        """Total queued messages (diagnostics; used by leak checks)."""
        with self._cond:
            return sum(len(q) for q in self._queues.values())


#: What ``World.proc_pool.accumulate`` answers when the request was not
#: (or could not be) offloaded; the caller must fold in-process.  It
#: lives here, not in :mod:`repro.runtime.procworld` (which re-exports
#: it), so the reduce driver can test for it without a thread-backend
#: process ever importing ``multiprocessing``.
MISS = object()


# The process backend's shared-memory frame codec lives in
# :mod:`repro.runtime.frames`; its names resolve here too.
__getattr__, __dir__, _ = _lazy.attach(__name__, {
    "frames": (
        "FRAME_ND", "FRAME_PICKLE", "FrameTooLarge", "frame_nbytes_needed",
        "encode_frame", "decode_frame",
    ),
})
