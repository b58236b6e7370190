"""Self-healing policies for the persistent engine.

Two pieces live here, both pure policy (mechanism stays in
:mod:`repro.engine.core`):

:class:`RetryPolicy`
    Per-submit: how many attempts a job gets, how long to back off
    between them (exponential with deterministic seeded jitter), which
    errors are worth retrying, and how the fault plan is re-derived per
    attempt.  Every retry runs in a **fresh**
    :class:`~repro.runtime.world.JobWorld` — new clocks, membership,
    abort flag, context id — so a successful attempt is bit-identical
    to a fault-free standalone run of the same function.

:class:`SupervisorConfig` / :class:`Supervisor`
    Engine-wide: the background thread that re-admits retry-scheduled
    jobs when their backoff elapses, reaps jobs stuck past their
    deadline (escalation above the per-collective hang watchdog), and
    probes quarantined pool ranks to revive them.  The engine starts
    one by default; ``Engine(..., supervisor=False)`` opts out, in
    which case retries re-admit inline (no backoff) and quarantine is
    disabled.

Determinism contract: backoff jitter is drawn from a
``random.Random`` seeded with a string of ``(policy seed, job id,
attempt)``, so a replayed workload schedules retries at identical
offsets; fault-plan reseeding (:func:`repro.faults.plan.reseed`) is
seed arithmetic.  Nothing in this module consumes ambient entropy.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import SpmdError

__all__ = ["RetryPolicy", "SupervisorConfig", "Supervisor"]


@dataclass(frozen=True)
class RetryPolicy:
    """How (and whether) the engine re-runs a failed job.

    Attributes
    ----------
    max_attempts:
        Total attempts, *including* the first.  ``max_attempts=1``
        disables retries; 3 means "two retries".
    backoff_base:
        Backoff before the first retry, in wall-clock seconds.
    backoff_factor:
        Multiplier per subsequent retry (exponential backoff).
    backoff_max:
        Cap on any single backoff interval.
    jitter:
        Fractional jitter: each backoff is scaled by a factor drawn
        uniformly from ``[1 - jitter, 1 + jitter]`` — deterministically,
        from ``(seed, job_id, attempt)`` — so gangs of retrying jobs
        de-synchronize without sacrificing replayability.
    seed:
        Root seed for the jitter stream.
    retry_on:
        Exception classes worth retrying (checked with isinstance
        against the job's terminal error).  Defaults to
        :class:`~repro.errors.SpmdError` only — timeouts and
        cancellations are not transient.
    reseed_faults:
        When True (default), a static :class:`~repro.faults.FaultPlan`
        submitted with the job is re-derived per attempt via
        :func:`repro.faults.plan.reseed` — fail-stops do not recur, so
        a deterministic crash becomes a transient one.  Callable plan
        sources (``attempt -> plan``) are always consulted per attempt
        and ignore this flag.
    """

    max_attempts: int = 3
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    jitter: float = 0.1
    seed: int = 0
    retry_on: tuple[type[BaseException], ...] = (SpmdError,)
    reseed_faults: bool = True

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff intervals must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if not self.retry_on:
            raise ValueError("retry_on must name at least one exception type")

    def should_retry(self, attempt: int, error: BaseException) -> bool:
        """True when failed attempt number ``attempt`` (1-based) earns
        another run under this policy."""
        return attempt < self.max_attempts and isinstance(
            error, tuple(self.retry_on)
        )

    def backoff_seconds(self, attempt: int, job_id: int) -> float:
        """Backoff after failed attempt ``attempt`` (1-based), jittered
        deterministically per ``(seed, job_id, attempt)``."""
        delay = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter > 0.0 and delay > 0.0:
            import random

            rng = random.Random(f"retry:{self.seed}:{job_id}:{attempt}")
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(delay, 0.0)

    def fault_plan_for(self, source, attempt_index: int):
        """The fault plan for attempt ``attempt_index`` (0 = first).

        ``source`` is whatever was passed to ``submit(fault_plan=...)``:
        None, a static plan, or a callable ``attempt -> plan``.
        """
        if source is None:
            return None
        if callable(source):
            return source(attempt_index)
        if attempt_index == 0 or not self.reseed_faults:
            return source
        from repro.faults.plan import reseed

        return reseed(source, attempt_index)


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning knobs for the engine's supervisor thread.

    Attributes
    ----------
    interval:
        Seconds between supervisor ticks (retry re-admission, reaping,
        probing all happen on this cadence).
    reap:
        Enable the stuck-job reaper: a running job that exceeds its
        submit-time ``timeout`` is aborted and unwound *server-side*,
        even if no client is blocked in ``result()`` — the escalation
        that guarantees the pool can never be wedged by an abandoned
        job.  Pending jobs past their deadline are failed in place.
    reap_grace:
        Extra seconds past a job's deadline before the reaper fires,
        leaving the client-side timeout (which produces the same
        diagnosis) the first shot.
    quarantine:
        Enable rank quarantine: world ranks a finished job reports dead
        are withheld from gang assembly until a probe revives them.
    probe_after:
        Seconds a rank stays quarantined before the supervisor probes
        it (a failed probe re-arms this delay).
    probe_timeout:
        Wall-clock budget for one probe job.
    capacity_floor:
        Fraction of the pool that must be schedulable for the engine to
        report "ok"; below it :meth:`~repro.engine.Engine.status`
        returns "degraded" and non-``allow_shrink`` jobs that no longer
        fit raise :class:`~repro.errors.EngineDegraded` (non-blocking
        submits) instead of queueing forever.
    """

    interval: float = 0.05
    reap: bool = True
    reap_grace: float = 1.0
    quarantine: bool = True
    probe_after: float = 0.25
    probe_timeout: float = 5.0
    capacity_floor: float = 0.75

    def __post_init__(self):
        if self.interval <= 0:
            raise ValueError(f"interval must be > 0, got {self.interval}")
        if self.probe_after < 0 or self.probe_timeout <= 0:
            raise ValueError("probe_after must be >= 0, probe_timeout > 0")
        if self.reap_grace < 0:
            raise ValueError(f"reap_grace must be >= 0, got {self.reap_grace}")
        if not 0.0 <= self.capacity_floor <= 1.0:
            raise ValueError(
                f"capacity_floor must be in [0, 1], got {self.capacity_floor}"
            )


class Supervisor:
    """The engine's health-loop thread.

    Pure driver: each tick calls back into the engine's supervision
    entry points (``_admit_due_retries``, ``_reap_stuck_jobs``,
    ``_probe_quarantined``, ``_probe_backend``), which own all locking.  A tick that raises
    is logged-and-survived — a supervisor that silently dies would turn
    every retrying job into a hang.
    """

    def __init__(self, engine, config: SupervisorConfig):
        self._engine = engine
        self.config = config
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Exceptions swallowed by the tick loop (diagnostics).
        self.tick_errors: list[BaseException] = []

    def start(self) -> "Supervisor":
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="engine-supervisor", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> bool:
        """Stop the thread; True when it joined within ``timeout``."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            alive = thread.is_alive()
            self._thread = None
            return not alive
        return True

    def _run(self) -> None:
        while not self._stop.wait(self.config.interval):
            self.tick()
        # Final tick on shutdown so retries scheduled moments before
        # close are flushed (cancelled) rather than stranded.
        self.tick()

    def tick(self) -> None:
        """One supervision pass (also callable synchronously in tests)."""
        eng = self._engine
        for step in (
            eng._admit_due_retries,
            eng._reap_stuck_jobs,
            eng._probe_quarantined,
            eng._probe_backend,
        ):
            try:
                step()
            except Exception as exc:  # pragma: no cover - defensive
                if len(self.tick_errors) < 32:
                    self.tick_errors.append(exc)
