"""Nonblocking collectives: requests and the per-rank progress engine.

A nonblocking collective (``Communicator.ireduce/iallreduce/iscan/
iexscan/ibarrier``) builds the same communication schedule as its
blocking counterpart — a resumable *plan* generator from
:mod:`repro.mpi.collectives` — runs it eagerly up to the first receive
(so all first-round sends leave at issue time), and returns a
:class:`Request`.  A per-rank :class:`ProgressEngine` then advances the
suspended plans so that several outstanding collectives interleave their
rounds on the virtual clock instead of serializing.

Determinism contract
--------------------

Two different progress disciplines coexist, with different guarantees:

* ``wait()``/``waitall()`` drain outstanding requests with a **strict
  round-robin of blocking receives** in request-issue order.  The
  receive sequence is a pure function of the program (which collectives
  were issued, in which order), so results *and virtual times* are
  schedule-independent — the determinism contract of the whole runtime.
* ``test()`` and ``progress()`` (and the implicit drain when a rank
  blocks in an unrelated receive) only consume messages that a mailbox
  *probe* says have already been delivered.  Which messages have been
  delivered at probe time depends on real thread scheduling, so these
  paths are **result-deterministic but clock-opportunistic**: the values
  computed never change, while the virtual time at which a request
  completes may differ run to run until the next ``wait()`` barriers it.
  Opportunistic draining is disabled under lossy fault plans, where a
  probe may see raw frames the reliable-delivery layer would hold back.

Like MPI, correctness requires every rank of a communicator to issue its
collectives in the same order.  The round-robin drain is deadlock-free
for matching issue orders because every plan emits the sends of round
``t`` immediately after consuming its round ``t-1`` receive (and emits
its first-round sends at issue time); a mismatched program is caught by
the runtime's hang watchdog (``DeadlockError``) rather than silently
reordered.

Failure semantics: if a peer fail-stops while a request is outstanding,
the blocking receive inside ``wait()`` raises ``RankFailedError`` (the
membership layer wakes all blocked receivers), the request is retired,
and the error is re-raised from ``wait()`` — a dead rank never hangs the
watchdog.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.errors import CommunicatorError
from repro.mpi.collectives import Plan

__all__ = ["Request", "ProgressEngine", "waitall"]


class Request:
    """Handle to one outstanding nonblocking collective.

    ``wait()`` blocks (driving *all* of this rank's outstanding requests
    round-robin) until this request completes and returns its result;
    ``test()`` opportunistically consumes already-delivered messages and
    reports completion without blocking.
    """

    __slots__ = (
        "name", "_ch", "_engine", "_plan", "_pending", "_done",
        "_result", "_error", "_finalize",
    )

    def __init__(
        self,
        ctx,
        ch,
        plan: Plan,
        *,
        name: str = "request",
        finalize: Callable[[Any], Any] | None = None,
    ):
        self.name = name
        self._ch = ch
        self._plan = plan
        self._pending: int | None = None
        self._done = False
        self._result: Any = None
        self._error: BaseException | None = None
        self._finalize = finalize
        self._engine = ProgressEngine.for_context(ctx)
        # Run the plan to its first receive: first-round sends are eager,
        # exactly as in the blocking algorithms.  Plans with no receives
        # (size 1, leaf ranks that only send) complete at issue and are
        # never registered with the engine.
        try:
            step = next(self._plan)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._pending = step.source
        self._engine.register(self)

    @property
    def done(self) -> bool:
        """True once the collective has completed on this rank."""
        return self._done

    def test(self) -> bool:
        """Advance outstanding requests without blocking; return whether
        this request has completed.  Result-deterministic, but *when* it
        completes on the virtual clock may vary run to run (see module
        docstring); use ``wait()`` for schedule-independent times."""
        if not self._done:
            self._engine.drain_delivered()
        if self._error is not None:
            raise self._error
        return self._done

    def wait(self) -> Any:
        """Block until this request completes; return the collective's
        result (deterministic in both value and virtual time)."""
        if not self._done:
            self._engine.wait(self)
        if self._error is not None:
            raise self._error
        return self._result

    def _resume(self, payload: Any) -> bool:
        """Feed one received payload into the plan; True if it finished."""
        try:
            step = self._plan.send(payload)
        except StopIteration as stop:
            self._finish(stop.value)
            return True
        self._pending = step.source
        return False

    def _finish(self, raw: Any) -> None:
        self._result = self._finalize(raw) if self._finalize is not None else raw
        self._done = True
        self._pending = None

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done = True
        self._pending = None


class ProgressEngine:
    """Per-rank scheduler that advances outstanding collective plans.

    One engine per :class:`repro.runtime.world.RankContext`, created on
    the first nonblocking call and cached on the context (so every
    communicator derived from the rank shares it).
    """

    __slots__ = ("_lossy", "_outstanding", "_cursor", "_in_step")

    def __init__(self, ctx):
        # The engine keeps only what it reads of the context: whether the
        # job's links are lossy (fixed when the job's world is built).
        # Holding ``ctx`` itself would make ``ctx._progress`` a cycle
        # that only the cyclic GC frees, with the job's world behind it.
        inj = ctx.world.injector
        self._lossy = inj is not None and inj.lossy
        self._outstanding: list[Request] = []
        self._cursor = 0
        self._in_step = False

    @classmethod
    def for_context(cls, ctx) -> "ProgressEngine":
        eng = ctx._progress
        if eng is None:
            eng = cls(ctx)
            ctx._progress = eng
        return eng

    @property
    def outstanding(self) -> int:
        """Number of incomplete requests registered on this rank."""
        return len(self._outstanding)

    # -- registration ------------------------------------------------------

    def register(self, req: Request) -> None:
        self._outstanding.append(req)

    def _retire(self, req: Request) -> None:
        try:
            idx = self._outstanding.index(req)
        except ValueError:
            return
        self._outstanding.pop(idx)
        if idx < self._cursor:
            self._cursor -= 1
        if self._cursor >= len(self._outstanding):
            self._cursor = 0

    # -- deterministic (blocking) progress ---------------------------------

    def step(self) -> None:
        """One blocking receive for the request at the round-robin cursor.

        The cursor order is a pure function of request issue order, so
        repeated ``step()`` calls drain outstanding requests with a
        schedule-independent receive sequence.
        """
        if not self._outstanding:
            raise CommunicatorError("progress engine has no outstanding requests")
        req = self._outstanding[self._cursor]
        self._in_step = True
        try:
            payload = req._ch.recv(req._pending)
        except BaseException as exc:
            req._fail(exc)
            self._retire(req)
            raise
        finally:
            self._in_step = False
        if req._resume(payload):
            self._retire(req)
        else:
            self._cursor = (self._cursor + 1) % len(self._outstanding)

    def wait(self, req: Request) -> None:
        """Drive all outstanding requests round-robin until ``req`` completes."""
        while not req._done:
            if not self._outstanding:
                raise CommunicatorError(
                    f"request {req.name!r} incomplete but not registered"
                )
            self.step()

    # -- opportunistic (non-blocking) progress -----------------------------

    def on_block(self) -> None:
        """Hook from ``RankContext.collect_envelope``: the rank is about
        to block in an unrelated receive, so consume whatever rounds of
        outstanding requests have already been delivered."""
        if self._in_step or not self._outstanding:
            return
        self.drain_delivered()

    def drain_delivered(self) -> None:
        """Advance every outstanding request through all rounds whose
        message a mailbox probe shows as already delivered.

        Never blocks.  Result-deterministic; the virtual completion time
        depends on real thread progress (see module docstring).  Disabled
        under lossy fault plans: a probe can see raw frames (duplicates,
        reordered sequence numbers) that the reliable-delivery layer
        would hold back, so "delivered" does not imply "receivable".
        """
        if self._in_step or not self._outstanding:
            return
        if self._lossy:
            return
        self._in_step = True
        try:
            progressed = True
            while progressed:
                progressed = False
                for req in list(self._outstanding):
                    while not req._done and req._ch.probe(req._pending):
                        payload = req._ch.recv(req._pending)
                        if req._resume(payload):
                            self._retire(req)
                        progressed = True
        finally:
            self._in_step = False


def waitall(requests: Iterable[Request]) -> list[Any]:
    """Wait on each request in order; return their results in order.

    The per-rank engine drains *all* outstanding requests round-robin
    while any ``wait()`` blocks, so the completion schedule interleaves
    every pending collective regardless of the order given here.
    """
    return [req.wait() for req in requests]
