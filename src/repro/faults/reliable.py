"""Reliable, exactly-once delivery over lossy simulated links.

When a fault plan perturbs message delivery, ``RankContext`` routes all
traffic through this layer, which implements the classic transport
recipe in virtual time:

Sender (:func:`reliable_send`)
    Every message to a given ``(dest, tag)`` channel carries a
    monotonically increasing sequence number in a :class:`Frame`.  The
    simulator's message passing cannot actually lose data, so a *drop*
    is modeled at the sender: each lost attempt charges the sender the
    retransmission timeout with exponential backoff (``rto * 2**i`` for
    attempt *i*), exactly the virtual-time cost an ack/retransmit
    protocol would pay, after which the message goes out.  Drops
    therefore cost time, never correctness — and the whole exchange
    stays deterministic because the number of drops comes from the
    sender's seeded fault stream, not from a racing ack.

Receiver (:func:`reliable_collect`)
    Frames with ``seq`` below the next expected are duplicates and are
    discarded; frames above it arrived out of order (the plan's
    ``reorder`` fault) and are held back in a per-channel buffer until
    the expected frame shows up.  Layers above the context see
    exactly-once, in-order messages and never know the link was lossy.

Delays and reorders perturb ``available_at`` / queue position only, so
a fault-free program's *result values* are bit-identical under any
lossy plan (virtual completion times of course differ — the faults cost
time by design).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from repro.runtime.channels import (
    ANY_SOURCE,
    Envelope,
    tag_is_wild,
    tag_matches,
)

__all__ = ["Frame", "reliable_send", "reliable_collect"]


@dataclass(frozen=True)
class Frame:
    """A sequence-numbered wrapper around one message payload."""

    seq: int
    payload: Any


def reliable_send(ctx, inj, dest: int, tag: Hashable, payload: Any, nbytes: int) -> None:
    """Send ``payload`` through the lossy link model (see module doc).

    ``nbytes`` is the payload's size computed *before* frame wrapping,
    so byte accounting matches the fault-free run exactly.
    """
    key = (dest, tag)
    seq = ctx._send_seq.get(key, 0)
    ctx._send_seq[key] = seq + 1
    tx = inj.plan_transmission(ctx.rank)
    # Each modeled drop costs the sender one backed-off retransmission
    # timeout of virtual time before the attempt that gets through.
    for i in range(tx.drops):
        ctx.clock.advance(inj.rto * (2 ** i))
    cm = ctx.cost_model
    # Same pricing as the fault-free path: the topology charges for the
    # tiers crossed (flat fabric == cm.wire_time, 0.0 for self-sends).
    wire = ctx.world.topology.path_cost(ctx.rank, dest, nbytes, cm)
    available_at = ctx.clock.t + wire + tx.delay
    ctx.trace.on_send(nbytes)
    if ctx.tracer.enabled:
        ctx.tracer.on_send(dest, tag, nbytes, ctx.clock.t, available_at)
    env = Envelope(ctx.rank, tag, Frame(seq, payload), nbytes, available_at)
    mailbox = ctx.world.mailboxes[dest]
    mailbox.deliver(env, reorder=tx.reorder)
    if tx.duplicate:
        # The duplicate carries the same sequence number; the receiver
        # discards it.  It is link noise, not a logical message, so it
        # appears in no trace and costs the sender nothing extra.
        mailbox.deliver(env)


def _pop_buffered(ctx, source: int, tag: Hashable) -> Envelope | None:
    """Return a held-back in-order envelope matching the request, if any."""
    if source != ANY_SOURCE and not tag_is_wild(tag):
        keys = [(source, tag)] if (source, tag) in ctx._recv_buf else []
    else:
        keys = [
            (s, t)
            for (s, t) in ctx._recv_buf
            if source in (ANY_SOURCE, s) and tag_matches(tag, t)
        ]
    for key in keys:
        buf = ctx._recv_buf[key]
        nxt = ctx._recv_next.get(key, 0)
        env = buf.pop(nxt, None)
        if env is not None:
            if not buf:
                del ctx._recv_buf[key]
            ctx._recv_next[key] = nxt + 1
            return env
    return None


def reliable_collect(ctx, inj, source: int, tag: Hashable) -> Envelope:
    """Blocking receive with duplicate suppression and reorder repair.

    Returns an :class:`Envelope` whose payload is already unwrapped
    (the :class:`Frame` is internal to this layer).
    """
    env = _pop_buffered(ctx, source, tag)
    if env is not None:
        return env
    mailbox = ctx.world.mailboxes[ctx.rank]
    while True:
        raw = mailbox.collect(source, tag)
        frame = raw.payload
        if not isinstance(frame, Frame):
            # Message from a pre-fault-plan path (e.g. delivered by a
            # test harness directly): pass through untouched.
            return raw
        key = (raw.source, raw.tag)
        nxt = ctx._recv_next.get(key, 0)
        if frame.seq < nxt:
            continue  # duplicate of an already-delivered frame
        unwrapped = Envelope(
            raw.source, raw.tag, frame.payload, raw.nbytes, raw.available_at
        )
        if frame.seq > nxt:
            # Arrived ahead of its predecessors: hold it back.
            ctx._recv_buf.setdefault(key, {})[frame.seq] = unwrapped
            buffered = _pop_buffered(ctx, source, tag)
            if buffered is not None:
                return buffered
            continue
        ctx._recv_next[key] = nxt + 1
        return unwrapped
