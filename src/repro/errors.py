"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting genuine programming errors (``TypeError`` from user operator code,
for instance) propagate unchanged.
"""

from __future__ import annotations

from repro import _lazy

__all__ = [
    "ReproError",
    "RuntimeAbort",
    "RankFailStop",
    "RankFailedError",
    "RevokedError",
    "DeadlockError",
    "format_rank_states",
    "SpmdError",
    "SpmdTimeout",
    "EngineClosed",
    "EngineSaturated",
    "EngineDegraded",
    "JobCancelled",
    "CommunicatorError",
    "TransferError",
    "RankMismatchError",
    "TruncationError",
    "OperatorError",
    "OperatorLawError",
    "DistributionError",
    "PreprocessorError",
    "DslSyntaxError",
    "DslSemanticError",
    "VerificationError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class RuntimeAbort(ReproError):
    """Raised inside a rank when the SPMD run is being torn down.

    This is used to unwind ranks that are blocked in ``recv`` after another
    rank has failed; user code should not catch it.
    """


class RankFailStop(ReproError):
    """Internal: a fault-injection plan fail-stopped this rank.

    Raised inside the failing rank's own thread at its scheduled death
    point and caught by the executor, which records the rank as dead
    without tearing the run down.  User code never sees it.
    """

    def __init__(self, rank: int):
        self.rank = rank
        super().__init__(f"rank {rank} fail-stopped by fault plan")


class RankFailedError(ReproError):
    """A peer rank has fail-stopped (ULFM ``MPI_ERR_PROC_FAILED``).

    Raised in a *surviving* rank when it waits on a message from a rank
    the failure detector knows to be dead.  Resilient drivers catch it,
    revoke the communicator and retry over the survivors; non-resilient
    code lets it propagate, turning what would have been a hang into a
    clean :class:`SpmdError`.
    """

    def __init__(self, rank: int, detail: str = ""):
        self.rank = rank
        msg = f"rank {rank} has failed"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class RevokedError(ReproError):
    """The communicator has been revoked (ULFM ``MPI_ERR_REVOKED``).

    After any member calls :meth:`~repro.mpi.comm.Communicator.revoke`,
    every pending and future operation on that communicator raises this
    error, which is what releases survivors blocked mid-collective so
    they can reach the recovery protocol (``agree`` + ``shrink``).
    """

    def __init__(self, cid=None):
        self.cid = cid
        extra = f" (context id {cid!r})" if cid is not None else ""
        super().__init__(f"communicator has been revoked{extra}")


class DeadlockError(ReproError):
    """The hang watchdog found every active rank blocked with no
    matching message queued — a guaranteed deadlock.

    The message lists each blocked rank's pending ``(source, tag)``
    wait, replacing the silent wall-clock timeout that used to be the
    only way such bugs surfaced.
    """


class SpmdError(ReproError):
    """One or more ranks of an SPMD run raised an exception.

    Attributes
    ----------
    failures:
        Mapping from rank to the exception instance raised on that rank.
    rank_states:
        Optional per-rank diagnostic dicts (status, blocked wait, virtual
        clock, queued-message count) captured at failure time.
    """

    def __init__(
        self,
        failures: dict[int, BaseException],
        rank_states: list[dict] | None = None,
    ):
        self.failures = dict(failures)
        self.rank_states = rank_states
        ranks = ", ".join(str(r) for r in sorted(self.failures))
        first_rank = min(self.failures)
        first = self.failures[first_rank]
        msg = (
            f"SPMD run failed on rank(s) {ranks}; "
            f"first failure (rank {first_rank}): {type(first).__name__}: {first}"
        )
        from repro.runtime.diagnostics import format_rank_states

        diag = format_rank_states(rank_states)
        if diag:
            msg += "\nper-rank state at failure:\n" + diag
        super().__init__(msg)


class SpmdTimeout(ReproError):
    """An SPMD run did not complete within its wall-clock timeout.

    Attributes
    ----------
    rank_states:
        Optional per-rank diagnostic dicts (status, blocked wait, virtual
        clock, queued-message count) captured when the timeout fired, so
        the stuck ranks are identifiable without re-running under a
        tracer.
    """

    def __init__(self, message: str, rank_states: list[dict] | None = None):
        from repro.runtime.diagnostics import format_rank_states

        self.rank_states = rank_states
        diag = format_rank_states(rank_states)
        if diag:
            message += "\nper-rank state at timeout:\n" + diag
        super().__init__(message)


class EngineClosed(ReproError):
    """A job was submitted to an :class:`repro.engine.Engine` that has
    been shut down (or is draining for shutdown)."""


class EngineSaturated(ReproError):
    """Admission control rejected a job: the engine's pending queue is at
    its configured depth and the caller asked not to block (or its
    blocking wait timed out).  Back off and resubmit."""


class EngineDegraded(EngineSaturated):
    """Admission control rejected a job because the pool is running
    below its capacity floor: enough ranks are quarantined that the job
    cannot be placed at its requested size.  Subclasses
    :class:`EngineSaturated` so existing backpressure handlers keep
    working; clients that care can catch it specifically and back off
    until the supervisor revives quarantined ranks."""


class JobCancelled(ReproError):
    """The job was cancelled before completion — either explicitly via
    :meth:`~repro.engine.JobHandle.cancel` or by a forced engine
    shutdown.  Raised by :meth:`~repro.engine.JobHandle.result`."""


class CommunicatorError(ReproError):
    """Invalid use of a communicator (bad rank, bad tag, empty group...)."""


class TransferError(CommunicatorError):
    """A payload cannot cross a rank boundary.

    Raised at the *send* boundary (:func:`repro.util.sizing.copy_for_transfer`)
    or the process-backend frame codec when an operator state is neither
    :class:`~repro.util.sizing.TransferSafe` nor copyable/picklable.  The
    message names the offending type, so the failure surfaces where the
    payload entered the channel layer instead of deep inside it.
    """


class RankMismatchError(CommunicatorError):
    """A collective was called with inconsistent arguments across ranks."""


class TruncationError(CommunicatorError):
    """A receive buffer was too small for the incoming message."""


class OperatorError(ReproError):
    """A reduction/scan operator is malformed or misused."""


class OperatorLawError(OperatorError):
    """An operator violates an algebraic law it is required to satisfy.

    Raised by :func:`repro.core.validation.check_operator` when, e.g., the
    identity law or sampled associativity fails.
    """


class DistributionError(ReproError):
    """Invalid distributed-array distribution or an unsupported operation
    for the array's distribution (e.g. a scan over a cyclic distribution)."""


class PreprocessorError(ReproError):
    """Base class for RSMPI preprocessor (DSL) errors."""


class DslSyntaxError(PreprocessorError):
    """The RSMPI operator DSL source failed to tokenize or parse."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        loc = f" at line {line}" if line is not None else ""
        loc += f", column {col}" if col is not None else ""
        super().__init__(f"{message}{loc}")


class DslSemanticError(PreprocessorError):
    """The RSMPI operator DSL parsed but is semantically invalid
    (unknown state field, missing required function, bad types...)."""


class VerificationError(ReproError):
    """A benchmark kernel failed its verification phase."""


# Rendering rank states is hang diagnosis: :mod:`repro.runtime.diagnostics`.
__getattr__, __dir__, _ = _lazy.attach(
    __name__, {"runtime.diagnostics": ("format_rank_states",)}
)
