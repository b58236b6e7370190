"""The communicator surface the global-view drivers never call:
point-to-point, ``progress``, ``dup`` / ``split`` and the ULFM half that
only fail-stop recovery runs.  ``Communicator`` keeps one-line methods
that call these with ``self``."""

from __future__ import annotations

from typing import Any

from repro.errors import CommunicatorError, RankFailedError
from repro.mpi.comm import Communicator
from repro.runtime.channels import ANY_SOURCE

__all__ = ["send", "recv", "probe", "progress", "failed_ranks", "dup", "split",
           "shrink", "agree"]


def send(self: Communicator, obj: Any, dest: int, tag: int) -> None:
    self._ctx.trace.on_p2p("send")
    self._ctx.send_raw(self._world_rank(dest), ("u", self._cid, tag), obj)


def recv(self: Communicator, source: int, tag: int) -> Any:
    self._ctx.trace.on_p2p("recv")
    wsource = ANY_SOURCE if source == ANY_SOURCE else self._world_rank(source)
    # ANY_TAG stays inside the tag tuple: the mailbox treats a trailing
    # wildcard as "any user tag *on this communicator*", which both
    # scopes the match correctly and lets revocation of this
    # communicator release the wait.
    return self._ctx.recv_raw(wsource, ("u", self._cid, tag))


def probe(self: Communicator, source: int, tag: int) -> bool:
    wsource = ANY_SOURCE if source == ANY_SOURCE else self._world_rank(source)
    wtag = ("u", self._cid, tag)  # trailing ANY_TAG = scoped wildcard
    return self._ctx.world.mailboxes[self._ctx.rank].probe(wsource, wtag)


def progress(self: Communicator) -> None:
    eng = self._ctx._progress
    if eng is not None:
        eng.drain_delivered()


def failed_ranks(self: Communicator) -> frozenset[int]:
    dead = self._ctx.world.membership.dead_snapshot()
    return frozenset(g for g, w in enumerate(self._members) if w in dead)


def dup(self: Communicator) -> Communicator:
    self._split_seq += 1
    cid = ("dup", self._cid, self._split_seq)
    return Communicator(self._ctx, self._members, cid)


def split(self: Communicator, color: int, key: int | None = None) -> Communicator:
    if key is None:
        key = self.rank
    self._split_seq += 1
    entries = self.allgather((color, key, self.rank))
    mine = sorted((k, r) for (c, k, r) in entries if c == color)
    members = tuple(self._world_rank(r) for (_k, r) in mine)
    cid = ("split", self._cid, self._split_seq, color)
    return Communicator(self._ctx, members, cid)


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
