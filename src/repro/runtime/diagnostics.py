"""Hang diagnosis, only for a run that failed or timed out: each
member's state (:func:`rank_states`, behind ``Membership.rank_states``)
and its rendering in ``SpmdError`` / ``SpmdTimeout`` messages
(:func:`format_rank_states`, still exported by ``repro.errors``)."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.runtime.channels import Membership

__all__ = ["rank_states", "format_rank_states"]


def rank_states(self: Membership) -> list[dict]:
    """Per-rank diagnostic dicts for SpmdError/SpmdTimeout messages.

    One entry per *member*, labeled with the member's group rank;
    internal state is keyed by world rank, which is how the engine
    records it.
    """
    with self.lock:
        dead, done = set(self.dead), set(self.done)
        blocked = dict(self.blocked)
    out = []
    for g, r in enumerate(self.members):
        if r in dead:
            status = "failed"
        elif r in done:
            status = "done"
        elif r in blocked:
            status = "blocked"
        else:
            status = "running"
        out.append({
            "rank": g,
            "status": status,
            "waiting_for": blocked.get(r),
            "clock": self.clocks[r].t if self.clocks else 0.0,
            "pending_count": (
                self.mailboxes[r].pending_count() if self.mailboxes else 0
            ),
        })
    return out


def format_rank_states(rank_states: list[dict] | None) -> str:
    """Render per-rank diagnostic dicts (as produced by
    ``JobWorld.rank_states()``) into an indented multi-line block."""
    if not rank_states:
        return ""
    lines = []
    for st in rank_states:
        wait = st.get("waiting_for")
        wait_s = (
            f" waiting on (source={wait[0]}, tag={wait[1]!r})"
            if wait is not None else ""
        )
        lines.append(
            f"  rank {st['rank']}: {st['status']}{wait_s}, "
            f"t={st['clock']:.6e}s, pending={st['pending_count']}"
        )
    return "\n".join(lines)
