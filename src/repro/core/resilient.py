"""Restartable combine phases for the global-view drivers.

The paper's two-phase structure is what makes user-defined reductions
and scans recoverable: after the accumulate phase each rank holds a
compact operator state — a natural checkpoint — so a failed combine can
be re-run over the survivors without redoing any local work.

:func:`resilient_combine` wraps one combine attempt in the standard
ULFM recovery loop:

1. Deep-copy the post-accumulate state (the checkpoint).
2. Attempt the combine.  A peer's fail-stop surfaces as
   :class:`~repro.errors.RankFailedError` (failure detector) or
   :class:`~repro.errors.RevokedError` (a peer already revoked); the
   first survivor to notice revokes the communicator, which releases
   everyone else blocked mid-collective.
3. All survivors :meth:`~repro.mpi.comm.Communicator.agree` on whether
   the combine completed everywhere.  If yes, done — agreement makes
   "some ranks finished, some didn't" impossible to mistake for success.
4. If not — and the operator is **commutative** — survivors
   :meth:`~repro.mpi.comm.Communicator.shrink` and retry from the
   checkpoints.  The recovered result is exactly the survivor-only
   reduction/scan: the dead rank's local contribution is lost with it.
5. A **non-commutative** operator cannot be recovered this way (its
   result is defined by the rank-order concatenation of *all* blocks,
   so dropping a rank silently changes the answer's meaning); it raises
   a clean :class:`~repro.errors.OperatorError` instead.

Recovery activity is recorded where it happens: each recovery round is
a ``recoveries`` fault event on the rank's always-on trace
(``Trace.faults``), and under a tracer the virtual time from first
failure detection to the successful re-combine is a ``recovery`` leaf
span.

This module is only entered when the run's fault plan can actually
fail-stop a rank (``JobWorld.can_fail``); fault-free runs keep the exact
message counts and virtual times they had before the fault subsystem
existed.
"""

from __future__ import annotations

import copy
from typing import Any, Callable

from repro.core.operator import ReduceScanOp
from repro.errors import OperatorError, RankFailedError, RevokedError
from repro.mpi.comm import Communicator

__all__ = ["resilient_combine"]

#: Safety bound on recovery rounds (each round needs a *new* failure to
#: recur, so nprocs - 1 rounds is the theoretical maximum anyway).
_MAX_ROUNDS = 64


def resilient_combine(
    comm: Communicator,
    op: ReduceScanOp,
    state: Any,
    run: Callable[[Communicator, Any], Any],
) -> tuple[Any, Communicator]:
    """Run ``run(comm, state)`` with checkpoint/shrink/retry recovery.

    Returns ``(result, communicator_used)`` — after a recovery the
    communicator is the shrunken survivor group, which the caller needs
    to interpret rooted results.
    """
    checkpoint = copy.deepcopy(state)
    clock = comm.context.clock
    first_failure_t: float | None = None
    comm_r = comm
    for _ in range(_MAX_ROUNDS):
        ok = True
        total = None
        try:
            total = run(comm_r, state)
        except (RankFailedError, RevokedError):
            # Release peers still blocked mid-collective, then fall
            # through to the agreement so every survivor leaves this
            # round with the same verdict.
            comm_r.revoke()
            ok = False
            if first_failure_t is None:
                first_failure_t = clock.t
        if comm_r.agree(ok):
            tr = comm.tracer
            if first_failure_t is not None and tr.enabled:
                tr.on_charge(
                    "recovery", first_failure_t,
                    max(clock.t - first_failure_t, 0.0),
                )
            return total, comm_r
        if not op.commutative:
            raise OperatorError(
                f"operator {op.name!r} is non-commutative: its result is "
                "defined by the rank-order concatenation of every rank's "
                "block, so it cannot be recovered by re-combining over "
                "survivors; re-run the computation on a shrunken "
                "communicator instead (see docs/fault_model.md)"
            )
        comm.trace.on_fault("recoveries")
        if first_failure_t is None:
            first_failure_t = clock.t
        comm_r = comm_r.shrink()
        state = copy.deepcopy(checkpoint)
    raise OperatorError(
        f"combine of {op.name!r} failed to recover after {_MAX_ROUNDS} rounds"
    )
