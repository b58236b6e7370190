"""Per-rank execution traces: always-on message and call counters.

Traces serve two distinct purposes in this reproduction:

* **Cost accounting** — the analysis layer reads message/byte counters to
  explain where simulated time went.
* **Call census** — ``repro.nas.callcounts`` reproduces the paper's
  "nearly 9% of MPI calls are reductions" statistic from the
  collective-call counters recorded here.

A trace holds no timeline: to see individual messages or charges, run
under a :class:`repro.obs.Tracer` and read ``result.profile``.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.util.record import Record

__all__ = ["Trace", "merge_traces", "REDUCTION_KINDS"]

#: Collective *kinds* (the keys of ``repro.mpi.collectives.SCHEDULES``)
#: that count as "reductions" for the NPB call census (MPI classifies
#: scan as a reduction-family collective as well).  Every entry point of
#: a kind — blocking, nonblocking, exclusive — is classified with it.
REDUCTION_KINDS = frozenset({"reduce", "allreduce", "scan", "reduce_scatter"})


class Trace(Record):
    """One rank's counters; the hooks take only what they count.

    ``reduction_calls`` holds the entries of ``collective_calls`` whose
    kind is a reduction.  ``faults`` counts injected fault events by kind
    (``failstops``, ``retransmits``, ``duplicates``, ``delays``,
    ``reorders``, ``recoveries``); only a run under a fault plan creates
    it."""

    __slots__ = (
        "rank", "n_sends", "n_recvs", "bytes_sent", "bytes_received",
        "compute_seconds", "collective_calls", "reduction_calls", "p2p_calls",
        "faults",
    )

    def __init__(
        self,
        rank: int = 0,
        n_sends: int = 0,
        n_recvs: int = 0,
        bytes_sent: int = 0,
        bytes_received: int = 0,
        compute_seconds: float = 0.0,
        collective_calls: Counter | None = None,
        reduction_calls: Counter | None = None,
        p2p_calls: Counter | None = None,
        faults: Counter | None = None,
    ):
        self.rank = rank
        self.n_sends = n_sends
        self.n_recvs = n_recvs
        self.bytes_sent = bytes_sent
        self.bytes_received = bytes_received
        self.compute_seconds = compute_seconds
        self.collective_calls = (
            Counter() if collective_calls is None else collective_calls
        )
        self.reduction_calls = (
            Counter() if reduction_calls is None else reduction_calls
        )
        self.p2p_calls = Counter() if p2p_calls is None else p2p_calls
        self.faults = faults

    # -- recording hooks (called by the communicator/runtime) -------------

    def on_send(self, nbytes: int) -> None:
        """Record one outgoing message (called by the runtime)."""
        self.n_sends += 1
        self.bytes_sent += nbytes

    def on_recv(self, nbytes: int) -> None:
        """Record one received message (called by the runtime)."""
        self.n_recvs += 1
        self.bytes_received += nbytes

    def on_compute(self, seconds: float) -> None:
        """Record charged local-compute time (called by the runtime)."""
        self.compute_seconds += seconds

    def on_collective(self, name: str, kind: str) -> None:
        """Record one collective call under its entry-point ``name``,
        classified by its ``kind`` (called by Communicator)."""
        self.collective_calls[name] += 1
        if kind in REDUCTION_KINDS:
            self.reduction_calls[name] += 1

    def on_p2p(self, name: str) -> None:
        """Record an explicit user point-to-point call (send/recv)."""
        self.p2p_calls[name] += 1

    def on_fault(self, event: str, n: int = 1) -> None:
        """Record ``n`` injected fault events of kind ``event`` (called
        by the fault injector and the recovery loop)."""
        if self.faults is None:
            self.faults = Counter()
        self.faults[event] += n

    # -- queries -----------------------------------------------------------

    @property
    def n_collective_calls(self) -> int:
        """Total collective calls recorded on this rank."""
        return sum(self.collective_calls.values())

    @property
    def n_reduction_calls(self) -> int:
        """Collective calls that are reductions (see REDUCTION_KINDS)."""
        return sum(self.reduction_calls.values())

    def reduction_fraction(self) -> float:
        """Fraction of all communication *calls* that are reductions,
        counting both collectives and explicit point-to-point calls."""
        total = self.n_collective_calls + sum(self.p2p_calls.values())
        if total == 0:
            return 0.0
        return self.n_reduction_calls / total


def merge_traces(traces: Iterable[Trace]) -> Trace:
    """Sum several ranks' counters into one summary trace (rank -1)."""
    out = Trace(rank=-1)
    for tr in traces:
        out.n_sends += tr.n_sends
        out.n_recvs += tr.n_recvs
        out.bytes_sent += tr.bytes_sent
        out.bytes_received += tr.bytes_received
        out.compute_seconds += tr.compute_seconds
        out.collective_calls.update(tr.collective_calls)
        out.reduction_calls.update(tr.reduction_calls)
        out.p2p_calls.update(tr.p2p_calls)
        if tr.faults:
            if out.faults is None:
                out.faults = Counter()
            out.faults.update(tr.faults)
    return out
