"""The ULFM half of the communicator: ``shrink`` and ``agree``.

Only recovery from a fail-stop runs them (:mod:`repro.core.resilient`,
the chaos drivers), so :class:`~repro.mpi.comm.Communicator` keeps
one-line methods that import this module on first use, and a cold start
without faults never compiles it.  ``self`` is the communicator.
"""

from __future__ import annotations

from repro.errors import CommunicatorError, RankFailedError
from repro.mpi.comm import Communicator

__all__ = ["shrink", "agree"]


def shrink(self: Communicator) -> Communicator:
    """A new communicator over the surviving members (ULFM
    ``MPI_Comm_shrink``).

    The new context id is derived from the old one plus the sorted
    set of excluded ranks, so all survivors — who share the perfect
    failure detector's view — construct matching tags without any
    extra communication.  Call only after :meth:`agree` has
    established a consistent view of the failure.
    """
    dead = self._ctx.world.membership.dead_snapshot()
    survivors = tuple(w for w in self._members if w not in dead)
    if not survivors:
        raise CommunicatorError("shrink: no surviving members")
    excluded = tuple(sorted(set(self._members) - set(survivors)))
    cid = ("shrink", self._cid, excluded)
    return Communicator(self._ctx, survivors, cid)


def agree(self: Communicator, flag: bool = True) -> bool:
    """Fault-tolerant agreement on the logical AND of ``flag`` across
    surviving members (ULFM ``MPI_Comm_agree``).

    Works on a revoked communicator (its control tags are exempt
    from revocation) and tolerates the death of the coordinating
    rank by re-electing the lowest surviving member and retrying.
    A member dying *during* the agreement forces the result to
    ``False`` — survivors will re-run recovery and observe the new
    failure.  Like ULFM, the protocol assumes failures are eventually
    quiescent; the pathological case of a coordinator dying after
    answering only some members is outside the single-failure model
    the recovery drivers are specified for (see docs/fault_model.md).
    """
    self._agree_seq += 1
    seq = self._agree_seq
    ctx = self._ctx
    membership = ctx.world.membership
    # The control tags deliberately do NOT carry a re-election
    # attempt number.  Survivors may enter the protocol with
    # different failure knowledge (several ranks dying at once —
    # e.g. a rack failure — is detected at different times), so the
    # same logical round can be attempt 0 for one member and
    # attempt 1 for another; attempt-stamped tags then never match
    # and the survivors deadlock.  Tags stay unambiguous without
    # the stamp: every re-election moves to a strictly higher
    # leader rank, so for one ``(cid, seq)`` any (member, leader)
    # pair exchanges at most one ask and one reply.
    while True:
        dead = membership.dead_snapshot()
        alive = [w for w in self._members if w not in dead]
        leader = alive[0]
        ask = ("ft", self._cid, seq)
        reply = ("ftr", self._cid, seq)
        if ctx.rank == leader:
            result = bool(flag)
            for w in alive:
                if w == leader:
                    continue
                try:
                    result = bool(ctx.recv_raw(w, ask)) and result
                except RankFailedError:
                    result = False  # died mid-agreement: force recovery
            for w in alive:
                if w != leader:
                    ctx.send_raw(w, reply, result)
            return result
        ctx.send_raw(leader, ask, bool(flag))
        try:
            return bool(ctx.recv_raw(leader, reply))
        except RankFailedError:
            continue  # leader died: re-elect and retry
