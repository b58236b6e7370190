"""The SPMD executor: run one function on ``nprocs`` simulated ranks.

:func:`spmd_run` is the single entry point every example, test and
benchmark uses.  Each rank is a Python thread executing the same user
function with its own :class:`repro.mpi.Communicator`; message matching is
deterministic (per-(source, tag) FIFO), so results and virtual times do
not depend on the thread schedule.

Since the :mod:`repro.engine` refactor, ``spmd_run`` is a thin **compat
shim** over a transient one-job :class:`~repro.engine.Engine`: the same
job machinery that serves the persistent multi-tenant engine runs the
one-shot case, so the two paths cannot drift apart.  Signature,
:class:`SpmdResult` and error contracts are unchanged.

Error handling follows "fail fast, unwind everyone": the first rank to
raise sets the job's abort flag, which wakes every rank blocked in a
receive with :class:`~repro.errors.RuntimeAbort`; the original exceptions
are re-raised in the caller wrapped in :class:`~repro.errors.SpmdError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.obs.tracer_null import active_profile
from repro.runtime.costmodel import CostModel
from repro.runtime.trace import Trace, merge_traces
from repro.util.record import Record

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer

__all__ = ["SpmdResult", "spmd_run"]

_Engine = None  # repro.engine.core.Engine, bound by the first spmd_run


class SpmdResult(Record):
    """Outcome of an SPMD run: per-rank return values of the user
    function, final virtual times and traces, the wall-clock seconds of
    the whole run, the ``RunCapture`` with spans when a tracer was
    active, and the ranks a fault plan fail-stopped."""

    # ``_summary_cache`` memoizes the merge of ``traces``; a private slot,
    # so it is neither compared, printed nor pickled.
    __slots__ = (
        "returns", "clocks", "traces", "wall_seconds", "profile",
        "failed_ranks", "_summary_cache",
    )

    def __init__(
        self,
        returns: list[Any],
        clocks: list[float],
        traces: list[Trace],
        wall_seconds: float,
        profile: Any = None,
        failed_ranks: frozenset[int] = frozenset(),
    ):
        self.returns = returns
        self.clocks = clocks
        self.traces = traces
        self.wall_seconds = wall_seconds
        self.profile = profile
        self.failed_ranks = failed_ranks
        self._summary_cache = None

    @property
    def nprocs(self) -> int:
        """Number of simulated ranks in the run."""
        return len(self.returns)

    @property
    def time(self) -> float:
        """Simulated makespan: the maximum final virtual time."""
        return max(self.clocks)

    @property
    def summary_trace(self) -> Trace:
        """All ranks' traces merged into one aggregate (computed once;
        repeated accesses return the same object — the per-rank traces
        are final by the time a result exists, so the merge is pure)."""
        if self._summary_cache is None:
            self._summary_cache = merge_traces(self.traces)
        return self._summary_cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpmdResult(nprocs={self.nprocs}, time={self.time:.6e}s, "
            f"msgs={self.summary_trace.n_sends})"
        )


def spmd_run(
    fn: Callable[..., Any],
    nprocs: int,
    *,
    args: Sequence[Any] = (),
    cost_model: CostModel | None = None,
    timeout: float = 300.0,
    tracer: Tracer | None = None,
    fault_plan: Any | None = None,
    backend: str = "thread",
    topology: Any | None = None,
) -> SpmdResult:
    """Execute ``fn(comm, *args)`` on ``nprocs`` simulated ranks.

    Parameters
    ----------
    fn:
        The SPMD program.  Called once per rank with that rank's
        :class:`repro.mpi.Communicator` as the first argument.
    nprocs:
        Number of ranks.
    args:
        Extra positional arguments passed to every rank (shared objects —
        treat them as read-only, exactly like command-line arguments of an
        ``mpiexec``-launched program).
    cost_model:
        Communication/computation cost parameters; defaults to
        :class:`repro.runtime.costmodel.CostModel()`.
    timeout:
        Wall-clock seconds after which the run is aborted and
        :class:`~repro.errors.SpmdTimeout` is raised (deadlock guard).
    tracer:
        A :class:`repro.obs.Tracer` to record spans, charges and message
        edges into (``SpmdResult.profile``; the traces are counters only).
        Defaults to the active profiling session installed by
        :func:`repro.obs.profiling` (which may also override ``nprocs``),
        or to no tracing at all — the zero-overhead default.
    fault_plan:
        A :class:`repro.faults.FaultPlan` to inject seeded faults
        (fail-stop, lossy links, stragglers).  A rank fail-stopped by
        the plan does **not** abort the run: it is recorded in
        ``SpmdResult.failed_ranks`` (its return value stays ``None``)
        and survivors observe it through the failure detector as
        :class:`~repro.errors.RankFailedError`.
    backend:
        ``"thread"`` (default) folds accumulate phases in-process;
        ``"process"`` offloads them to forked rank workers over
        shared-memory rings (``repro.runtime.procworld``) — results
        are byte-identical, wall-clock is parallel.  See
        ``docs/backends.md``.
    topology:
        A :class:`repro.runtime.fabric.Topology` pricing each message by
        the network tiers it crosses.  Defaults to the flat fabric,
        which reproduces the plain cost-model wire times bit-for-bit.

    Returns
    -------
    SpmdResult with per-rank return values, virtual clocks and traces.
    """
    global _Engine
    if _Engine is None:
        # repro.engine sits above the runtime layer (it builds SpmdResult
        # and Communicators), so the shim binds it on the first call.
        from repro.engine.core import Engine as _Engine

    if tracer is None:
        tracer, forced_ranks = active_profile()
        if forced_ranks is not None:
            nprocs = forced_ranks

    engine = _Engine(
        nprocs, cost_model=cost_model, backend=backend, topology=topology
    )
    try:
        handle = engine.submit(
            fn,
            args=args,
            timeout=timeout,
            tracer=tracer,
            fault_plan=fault_plan,
        )
        return handle.result()
    finally:
        # Force mode: after result() everything is already finished, so
        # this just retires the pool; after a timeout it aborts the
        # stuck job and abandons (daemon) threads exactly as the
        # pre-engine executor did.
        engine.shutdown(drain=False, timeout=5.0)
