"""Self-healing policies for the persistent engine.

Two pieces live here.  The retry policy is pure; the supervisor is a
pacemaker.  *What* is due, overdue or degraded is decided by
:class:`repro.engine.scheduler.Scheduler`, which alone reads
``REAP_GRACE``, ``PROBE_AFTER`` and ``CAPACITY_FLOOR``; the other
constants bound waits and are read by the threads that wait:

:class:`RetryPolicy`
    Per-submit: how many attempts a job gets and how long to back off
    between them (exponential with deterministic seeded jitter).  Every
    retry runs in a **fresh** :class:`~repro.runtime.world.JobWorld` —
    new clocks, membership, abort flag, context id — so a successful
    attempt is bit-identical to a fault-free standalone run of the same
    function.

:class:`Supervisor`
    Engine-wide, always on: the background thread that re-admits
    retry-scheduled jobs when their backoff elapses (the one way a
    failed attempt gets back into the queue), reaps jobs stuck past
    their deadline (escalation above the per-collective hang watchdog),
    and probes quarantined pool ranks to revive them.

What nobody outside ``tests/`` ever set is a module constant below, not
a parameter (EXPERIMENTS EX-KNOBS); tests that need a faster loop
``monkeypatch`` the constant.

Determinism contract: backoff jitter is drawn from a
``random.Random`` seeded with a string of ``(policy seed, job id,
attempt)``, so a replayed workload schedules retries at identical
offsets; fault-plan reseeding (:func:`repro.faults.plan.reseed`) is
seed arithmetic.  Nothing in this module consumes ambient entropy.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

from repro.errors import SpmdError

__all__ = ["RetryPolicy", "Supervisor"]

#: How long threads may take to unwind, in wall-clock seconds: the rank
#: threads joined by ``Engine.shutdown`` (when it is given no
#: ``timeout``), the supervisor thread in :meth:`Supervisor.stop`, and
#: the ranks of a job ``JobHandle.result`` has just aborted.
JOIN_TIMEOUT = 5.0

#: Seconds between supervisor ticks (retry re-admission, reaping and
#: probing all happen on this cadence).
TICK_INTERVAL = 0.05
#: Extra seconds past a job's deadline before the reaper fires, leaving
#: the client-side timeout (which produces the same diagnosis) the
#: first shot.
REAP_GRACE = 1.0
#: Seconds a rank stays quarantined before the supervisor probes it (a
#: failed probe re-arms this delay).
PROBE_AFTER = 0.25
#: Wall-clock budget for one probe job.
PROBE_TIMEOUT = 5.0
#: Fraction of the pool that must be schedulable for the engine to
#: report "ok"; below it ``Engine.status()`` is "degraded".
CAPACITY_FLOOR = 0.75

#: Multiplier per subsequent retry (exponential backoff).
BACKOFF_FACTOR = 2.0
#: Cap on any single backoff interval, seconds.
BACKOFF_MAX = 1.0
#: Fractional jitter: each backoff is scaled by a factor drawn uniformly
#: from ``[1 - JITTER, 1 + JITTER]`` — deterministically, from ``(seed,
#: job_id, attempt)`` — so gangs of retrying jobs de-synchronize
#: without sacrificing replayability.
JITTER = 0.1
#: Errors worth retrying (isinstance against the job's terminal error):
#: timeouts and cancellations are not transient.
RETRY_ON = (SpmdError,)


@dataclass(frozen=True)
class RetryPolicy:
    """How (and whether) the engine re-runs a failed job.

    Attributes
    ----------
    max_attempts:
        Total attempts, *including* the first.  ``max_attempts=1``
        disables retries; 3 means "two retries".
    backoff_base:
        Backoff before the first retry, in wall-clock seconds; it grows
        by :data:`BACKOFF_FACTOR` per retry up to :data:`BACKOFF_MAX`.
    seed:
        Root seed for the jitter stream.

    A static :class:`~repro.faults.FaultPlan` submitted with the job is
    re-derived per attempt via :func:`repro.faults.plan.reseed` —
    fail-stops do not recur, so a deterministic crash becomes a
    transient one.  Callable plan sources (``attempt -> plan``) are
    consulted per attempt instead.
    """

    max_attempts: int = 3
    backoff_base: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0:
            raise ValueError("backoff intervals must be >= 0")

    def should_retry(self, attempt: int, error: BaseException) -> bool:
        """True when failed attempt number ``attempt`` (1-based) earns
        another run under this policy."""
        return attempt < self.max_attempts and isinstance(error, RETRY_ON)

    def backoff_seconds(self, attempt: int, job_id: int) -> float:
        """Backoff after failed attempt ``attempt`` (1-based), jittered
        deterministically per ``(seed, job_id, attempt)``."""
        delay = min(
            BACKOFF_MAX, self.backoff_base * BACKOFF_FACTOR ** (attempt - 1)
        )
        if delay > 0.0:
            import random

            rng = random.Random(f"retry:{self.seed}:{job_id}:{attempt}")
            delay *= 1.0 + JITTER * (2.0 * rng.random() - 1.0)
        return delay

    def fault_plan_for(self, source, attempt_index: int):
        """The fault plan for attempt ``attempt_index`` (0 = first).

        ``source`` is whatever was passed to ``submit(fault_plan=...)``:
        None, a static plan, or a callable ``attempt -> plan``.
        """
        if source is None:
            return None
        if callable(source):
            return source(attempt_index)
        if attempt_index == 0:
            return source
        from repro.faults.plan import reseed

        return reseed(source, attempt_index)


class Supervisor:
    """The engine's health-loop thread.

    Pure driver: each tick calls the engine's supervision steps
    (``admit_due_retries``, ``reap_stuck_jobs``, ``probe_quarantined``,
    ``probe_backend``), which own all locking.  A tick that raises is
    logged-and-survived — a supervisor that silently dies would turn
    every retrying job into a hang.

    It holds its engine weakly: the engine owns the supervisor, and a
    back reference would make every engine a reference cycle, freed only
    by the cyclic collector — ``spmd_run``'s transient engine, its world
    and mailboxes would outlive each call until the next collection.
    """

    def __init__(self, engine):
        self._engine = weakref.ref(engine)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="engine-supervisor", daemon=True
        )
        #: Exceptions swallowed by the tick loop (diagnostics).
        self.tick_errors: list[BaseException] = []

    def start(self) -> "Supervisor":
        self._thread.start()
        return self

    def stop(self) -> bool:
        """Stop the thread; True when it joined within
        :data:`JOIN_TIMEOUT`."""
        self._stop.set()
        self._thread.join(timeout=JOIN_TIMEOUT)
        return not self._thread.is_alive()

    def _run(self) -> None:
        while not self._stop.wait(TICK_INTERVAL) and self._engine() is not None:
            self.tick()

    def tick(self) -> None:
        """One supervision pass (also callable synchronously in tests)."""
        eng = self._engine()
        if eng is None:
            return
        for step in (
            eng.admit_due_retries,
            eng.reap_stuck_jobs,
            eng.probe_quarantined,
            eng.probe_backend,
        ):
            try:
                step()
            except Exception as exc:  # pragma: no cover - defensive
                if len(self.tick_errors) < 32:
                    self.tick_errors.append(exc)
