"""Binding a :class:`~repro.faults.plan.FaultPlan` to a running world.

A :class:`FaultInjector` holds the per-run mutable state a plan needs:
per-rank operation counters (for nth-send fail-stops), per-rank RNG
streams (for link faults), and fired-failstop flags.  The runtime calls
three hooks:

* :meth:`check_failstop` from ``RankContext.charge`` — virtual-time
  deaths fire on the first compute charge at or past the deadline.
* :meth:`on_send_op` from ``RankContext.send_raw`` — nth-operation
  deaths fire immediately before the nth send.
* :meth:`plan_transmission` from the reliable-delivery layer — draws
  the per-message perturbations (drops, duplicate, delay, reorder).

A firing fail-stop records the rank as dead in the world's membership
(the perfect failure detector) and raises
:class:`~repro.errors.RankFailStop` in the rank's own thread; the
executor treats that as a silent death, not a program error.

Every injected event is counted on the affected rank's always-on
:class:`~repro.runtime.trace.Trace` (``Trace.faults``), so a faulted
run reports its fault activity in ``SpmdResult.summary_trace`` with no
tracer, and a traced one in its profile's counts as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RankFailStop
from repro.faults.plan import FailStop, FaultPlan

__all__ = ["FaultInjector", "Transmission"]


@dataclass(frozen=True)
class Transmission:
    """The drawn perturbations for one message transmission."""

    drops: int = 0  # attempts lost before the successful one
    duplicate: bool = False  # deliver the message twice
    delay: float = 0.0  # extra wire latency (virtual seconds)
    reorder: bool = False  # overtake the previous in-flight message


_CLEAN = Transmission()


class FaultInjector:
    """Per-run mutable fault state derived from an immutable plan."""

    #: Cap on consecutive modeled drops of one message.  With drop_rate
    #: <= 0.3 the chance of hitting it is ~ 1e-21 per message; the cap
    #: exists so a pathological hand-written plan cannot stall a send
    #: near-forever in virtual time.
    MAX_DROPS = 40

    def __init__(
        self,
        plan: FaultPlan,
        nprocs: int,
        traces: list,
        rank_map: dict[int, int] | None = None,
    ) -> None:
        self.plan = plan
        self.nprocs = nprocs
        #: Per-rank traces indexed by runtime rank (the job world's list).
        self._traces = traces
        self.lossy = plan.lossy
        self.can_fail = plan.can_fail
        #: Runtime-rank -> plan-rank translation.  A standalone run is
        #: the identity; an engine job placed on arbitrary pool ranks
        #: maps each world rank back to its group rank, so the plan's
        #: targets, RNG streams and operation counters stay in the
        #: plan's own (group-rank) coordinates and the injected fault
        #: sequence is independent of where the job landed.
        self._rank_map = dict(rank_map) if rank_map is not None else None
        self._failstop: dict[int, FailStop] = {
            f.rank: f for f in plan.failstops if f.rank < nprocs
        }
        self._fired: set[int] = set()
        self._send_ops = [0] * nprocs
        self._streams = [plan.rank_stream(r) for r in range(nprocs)]
        self._slowdown = [
            plan.stragglers.get(r, 1.0) for r in range(nprocs)
        ]
        self.rto = plan.rto

    def _plan_rank(self, rank: int) -> int:
        return rank if self._rank_map is None else self._rank_map[rank]

    # -- fail-stop ----------------------------------------------------------

    def _die(self, rank: int, world) -> None:
        # ``rank`` is the runtime (world) rank: membership records it,
        # but the fired-flag is tracked in plan coordinates.
        self._fired.add(self._plan_rank(rank))
        self._traces[rank].on_fault("failstops")
        world.mark_failed(rank)
        raise RankFailStop(rank)

    def check_failstop(self, rank: int, t: float, world) -> None:
        """Fire a virtual-time-scheduled death for ``rank`` if due."""
        pr = self._plan_rank(rank)
        spec = self._failstop.get(pr)
        if (
            spec is not None
            and spec.at_time is not None
            and t >= spec.at_time
            and pr not in self._fired
        ):
            self._die(rank, world)

    def on_send_op(self, rank: int, t: float, world) -> None:
        """Count a send; fire an nth-operation death if this is the nth."""
        pr = self._plan_rank(rank)
        spec = self._failstop.get(pr)
        if spec is None:
            return
        if spec.at_time is not None:
            # A send is also a progress point for time-based deaths.
            self.check_failstop(rank, t, world)
            return
        self._send_ops[pr] += 1
        if self._send_ops[pr] == spec.at_op and pr not in self._fired:
            self._die(rank, world)

    # -- stragglers ---------------------------------------------------------

    def slowdown(self, rank: int) -> float:
        """Compute-time multiplier for ``rank`` (1.0 = no slowdown)."""
        return self._slowdown[self._plan_rank(rank)]

    # -- lossy links --------------------------------------------------------

    def plan_transmission(self, rank: int) -> Transmission:
        """Draw the perturbations for ``rank``'s next transmission.

        Draws always happen in the same fixed order (drops, duplicate,
        delay, reorder) from the sender's private stream, so the
        decision sequence is a pure function of (plan seed, rank, how
        many messages this rank has sent) — independent of scheduling.
        """
        link = self.plan.link
        if not link.any_active:
            return _CLEAN
        rng = self._streams[self._plan_rank(rank)]
        drops = 0
        if link.drop_rate > 0.0:
            while rng.random() < link.drop_rate and drops < self.MAX_DROPS:
                drops += 1
        duplicate = link.dup_rate > 0.0 and rng.random() < link.dup_rate
        delay = 0.0
        if link.delay_rate > 0.0 and rng.random() < link.delay_rate:
            delay = rng.random() * link.delay_seconds
        reorder = link.reorder_rate > 0.0 and rng.random() < link.reorder_rate
        if drops or duplicate or delay or reorder:
            trace = self._traces[rank]
            if drops:
                trace.on_fault("retransmits", drops)
            if duplicate:
                trace.on_fault("duplicates")
            if delay:
                trace.on_fault("delays")
            if reorder:
                trace.on_fault("reorders")
        return Transmission(
            drops=drops, duplicate=duplicate, delay=delay, reorder=reorder
        )
