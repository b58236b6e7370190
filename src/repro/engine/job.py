"""Job records and client-facing handles for the persistent engine.

A **job** is one SPMD function execution multiplexed onto the engine's
resident rank pool: the unit that used to be an entire ``spmd_run`` —
fresh threads, fresh world and all — becomes a record that borrows pool
ranks for its duration.  :class:`JobHandle` is the client's view of one
job: wait, cancel, fetch the :class:`~repro.runtime.executor.SpmdResult`;
a :class:`Session` is one client's view of all the jobs it submitted.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.engine import resilience
from repro.errors import SpmdTimeout
from repro.runtime.world import JobWorld

if TYPE_CHECKING:
    from repro.engine.core import Engine

__all__ = ["JobHandle", "Session"]


def _deadline(timeout: float | None) -> float | None:
    return None if timeout is None else time.monotonic() + timeout


def _remaining(deadline: float | None) -> float | None:
    return None if deadline is None else deadline - time.monotonic()


class _Job:
    """Internal per-job record.  The scheduling fields (``status``,
    ``members``, ``ranks_left``, ``attempt``, ``cancelled``,
    ``timed_out``) are written by the scheduler alone, under the engine's
    lock; the per-rank outcome (``returns``, ``failures``) by the rank
    threads, under ``lock``.  ``status`` is one of ``pending | running |
    retrying | done | failed | cancelled`` (state table: docs/engine.md)."""

    __slots__ = (
        "job_id", "fn", "args", "nprocs", "timeout", "tracer", "fault_plan",
        "label", "status", "cancelled", "timed_out", "timeout_error", "lock",
        "done_event", "world", "members", "returns", "failures",
        "failure_states", "ranks_left", "t0", "result", "error",
        "lifecycle", "virtual_seconds",
        # Self-healing fields (engine/resilience.py):
        "retry_policy", "attempt", "fault_plan_source", "session",
        "admitted_at",
    )

    def __init__(
        self,
        fn: Callable[..., Any],
        args: Sequence[Any],
        nprocs: int,
        *,
        timeout: float | None,
        tracer: Any,
        fault_plan: Any,
        label: str | None,
        retry_policy: Any = None,
        session: str | None = None,
    ):
        self.job_id = 0  # assigned at admission (a health probe keeps 0)
        self.fn = fn
        self.args = tuple(args)
        self.nprocs = nprocs
        self.timeout = timeout
        self.tracer = tracer
        #: What submit() was given: None, a static plan, or a callable
        #: attempt -> plan; ``fault_plan`` is the *current attempt's*.
        self.fault_plan_source = fault_plan
        self.fault_plan = fault_plan(0) if callable(fault_plan) else fault_plan
        self.label = label if label is not None else getattr(
            fn, "__name__", None
        )
        self.status = "pending"
        self.cancelled = False
        self.timed_out = False
        self.timeout_error: SpmdTimeout | None = None
        self.lock = threading.Lock()
        self.done_event = threading.Event()
        self.world = None  # JobWorld, set at dispatch
        self.members: tuple[int, ...] = ()
        self.returns: list[Any] = []
        self.failures: dict[int, BaseException] = {}
        self.failure_states: list[dict] | None = None
        self.ranks_left = 0
        self.t0 = 0.0
        self.result = None  # SpmdResult on success
        self.error: BaseException | None = None  # raised by JobHandle.result
        #: JobLifecycle stamps when the engine has telemetry enabled;
        #: None on the telemetry-off (allocation-free) path.
        self.lifecycle = None
        self.virtual_seconds = 0.0  # simulated makespan, set at finalize
        #: RetryPolicy, or None: failures are terminal on the first attempt.
        self.retry_policy = retry_policy
        self.attempt = 1  # 1-based; bumped at each retry re-admission
        self.session = session
        self.admitted_at = 0.0  # perf_counter at (re-)admission

    def start(self, parent_world) -> None:
        """Bind the job to the pool ranks in ``members`` (engine lock
        held; the scheduler has just placed it).

        Re-callable: a retried attempt starts over with a **fresh**
        :class:`~repro.runtime.world.JobWorld` (new clocks, membership,
        abort flag, base cid) and cleared failure state, which is what
        makes a successful retry bit-identical to a fault-free run.
        """
        self.failures = {}
        self.failure_states = None
        self.world = JobWorld(
            parent_world, self.members,
            tracer=self.tracer, fault_plan=self.fault_plan,
        )
        self.returns = [None] * self.nprocs
        self.t0 = time.perf_counter()


class JobHandle:
    """The client's view of one submitted job.

    Mirrors the ``spmd_run`` contract: :meth:`result` returns the exact
    :class:`~repro.runtime.executor.SpmdResult` a standalone run of the
    same function would have produced, or raises the same
    :class:`~repro.errors.SpmdError` / :class:`~repro.errors.SpmdTimeout`.
    """

    def __init__(self, job: _Job, engine) -> None:
        self._job = job
        self._engine = engine

    # -- introspection ------------------------------------------------------

    @property
    def job_id(self) -> int:
        """Engine-unique id, in submission order."""
        return self._job.job_id

    @property
    def label(self) -> str | None:
        """The submit-time label (defaults to the function's name)."""
        return self._job.label

    @property
    def status(self) -> str:
        """One of ``pending | running | retrying | done | failed |
        cancelled``."""
        return self._job.status

    @property
    def attempt(self) -> int:
        """Which attempt (1-based) the job is on — above 1 only under a
        :class:`~repro.engine.resilience.RetryPolicy`."""
        return self._job.attempt

    @property
    def lifecycle(self):
        """The live attempt's wall-clock
        :class:`~repro.obs.telemetry.JobLifecycle` stamps; None without
        telemetry, and while a retried job is parked in backoff."""
        return self._job.lifecycle

    def done(self) -> bool:
        """True once the job has completed, failed or been cancelled."""
        return self._job.done_event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job completes; True unless ``timeout`` expired."""
        return self._job.done_event.wait(timeout)

    # -- control ------------------------------------------------------------

    def cancel(self) -> bool:
        """Cancel the job.  A pending job is withdrawn from the queue; a
        running job is aborted (its ranks unwind and the pool ranks are
        reclaimed).  Returns False if the job had already finished."""
        return self._engine._cancel_job(self._job)

    def result(self, timeout: float | None = None):
        """Block for the job's :class:`SpmdResult`.

        ``timeout`` defaults to the job's submit-time wall-clock budget,
        preserving ``spmd_run``'s deadlock guard: on expiry the job is
        aborted and :class:`~repro.errors.SpmdTimeout` is raised with the
        stuck ranks' diagnostics.  Raises
        :class:`~repro.errors.SpmdError` if any rank failed and
        :class:`~repro.errors.JobCancelled` if the job was cancelled.
        """
        job = self._job
        budget = job.timeout if timeout is None else timeout
        if not job.done_event.wait(budget):
            if job.world is None or job.status in ("pending", "retrying"):
                # Not currently on any ranks: either never dispatched
                # (queue stuck) or parked in retry backoff.  Aborting a
                # world would be meaningless — withdraw the job instead.
                self._engine._cancel_job(job)
                raise SpmdTimeout(
                    f"job {job.job_id} did not complete within {budget} s "
                    f"(queued or awaiting retry, attempt {job.attempt}); "
                    f"cancelled"
                )
            err = self._engine._abort_timed_out(
                job,
                f"SPMD run did not finish within {budget} s "
                f"(possible deadlock); aborted",
            )
            job.done_event.wait(resilience.JOIN_TIMEOUT)
            raise err
        if job.error is not None:
            raise job.error
        return job.result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobHandle(id={self.job_id}, label={self.label!r}, "
            f"status={self.status!r})"
        )


class Session:
    """A client-facing handle over an :class:`Engine`.

    Sessions add per-client bookkeeping on top of the engine's global
    scheduling: each tracks the handles it submitted, so a client can
    drain *its own* jobs without waiting on anyone else's.  Many
    sessions (threads) may share one engine.
    """

    def __init__(self, engine: Engine, label: str | None = None):
        self._engine = engine
        self.label = label
        self._lock = threading.Lock()
        self._handles: list[JobHandle] = []

    @property
    def engine(self) -> Engine:
        return self._engine

    @property
    def handles(self) -> list[JobHandle]:
        """Handles of every job this session submitted (snapshot)."""
        with self._lock:
            return list(self._handles)

    def submit(self, fn: Callable[..., Any], **kwargs: Any) -> JobHandle:
        """Submit a job (same keywords as :meth:`Engine.submit`).  The
        session's label rides along so telemetry lifecycles attribute
        the job to this client."""
        kwargs.setdefault("session", self.label)
        handle = self._engine.submit(fn, **kwargs)
        with self._lock:
            self._handles.append(handle)
        return handle

    def results(self, timeout: float | None = None) -> list:
        """The :class:`SpmdResult` of every submitted job, in submission
        order (raises on the first failed job, like the handle would)."""
        return [h.result(timeout) for h in self.handles]

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until every job this session submitted has finished."""
        deadline = _deadline(timeout)
        for handle in self.handles:
            remaining = _remaining(deadline)
            if remaining is not None and remaining <= 0.0:
                return False
            if not handle.wait(remaining):
                return False
        return True

    def close(self, timeout: float | None = None) -> None:
        """Drain the session's jobs (the engine itself stays up)."""
        self.drain(timeout)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
