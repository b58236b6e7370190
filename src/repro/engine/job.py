"""Job records and client-facing handles for the persistent engine.

A **job** is one SPMD function execution multiplexed onto the engine's
resident rank pool: the unit that used to be an entire ``spmd_run`` —
fresh threads, fresh world and all — becomes a record that borrows pool
ranks for its duration.  :class:`JobHandle` is the client's view: wait,
cancel, fetch the :class:`~repro.runtime.executor.SpmdResult`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Sequence

from repro.engine import resilience
from repro.errors import SpmdTimeout
from repro.runtime.world import JobWorld

__all__ = ["JobHandle"]

#: Job lifecycle states (the engine moves jobs left to right; "cancelled"
#: can be entered from "pending" or, via abort, from "running";
#: "retrying" loops a failed attempt back to "pending" under a
#: RetryPolicy).
JOB_STATES = (
    "pending", "running", "retrying", "done", "failed", "cancelled",
)


class _Job:
    """Internal per-job record; all scheduling fields are guarded by the
    engine's lock, all completion fields by ``lock``/the done event."""

    __slots__ = (
        "job_id", "fn", "args", "nprocs", "timeout", "tracer", "fault_plan",
        "label", "status", "cancelled", "timed_out", "timeout_error", "lock",
        "done_event", "world", "members", "returns", "failures",
        "failure_states", "ranks_left", "t0", "result", "error",
        "lifecycle", "virtual_seconds",
        # Self-healing fields (engine/resilience.py):
        "retry_policy", "attempt", "fault_plan_source", "last_error",
        "session", "admitted_at", "is_probe",
    )

    def __init__(
        self,
        job_id: int,
        fn: Callable[..., Any],
        args: Sequence[Any],
        nprocs: int,
        *,
        timeout: float | None,
        tracer: Any,
        fault_plan: Any,
        label: str | None,
    ):
        self.job_id = job_id
        self.fn = fn
        self.args = tuple(args)
        self.nprocs = nprocs
        self.timeout = timeout
        self.tracer = tracer
        self.fault_plan = fault_plan
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
        #: RetryPolicy, or None when failures are terminal on the first
        #: attempt (the pre-resilience contract).
        self.retry_policy = None
        self.attempt = 1  # 1-based; bumped at each retry re-admission
        #: What submit() was given as fault_plan: None, a static plan,
        #: or a callable attempt -> plan.  ``fault_plan`` holds the plan
        #: *resolved for the current attempt*.
        self.fault_plan_source = fault_plan
        self.last_error: BaseException | None = None
        self.session: str | None = None
        self.admitted_at = 0.0  # perf_counter at (re-)admission
        #: Internal supervisor health probes bypass all job accounting.
        self.is_probe = False

    def start(self, parent_world, members: tuple[int, ...]) -> None:
        """Bind the job to its pool placement (engine lock held).

        Re-callable: a retried attempt starts over with a **fresh**
        :class:`~repro.runtime.world.JobWorld` (new clocks, membership,
        abort flag, base cid) and cleared failure state, which is what
        makes a successful retry bit-identical to a fault-free run.
        """
        self.failures = {}
        self.failure_states = None
        self.members = tuple(members)
        self.world = JobWorld(
            parent_world, self.members,
            tracer=self.tracer, fault_plan=self.fault_plan,
        )
        self.returns = [None] * self.nprocs
        self.ranks_left = self.nprocs
        self.status = "running"
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
            states = job.world.rank_states()
            err = SpmdTimeout(
                f"SPMD run did not finish within {budget} s "
                f"(possible deadlock); aborted",
                rank_states=states,
            )
            with job.lock:
                job.timed_out = True
                job.timeout_error = err
            job.world.abort()
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
