"""Where a job is: the engine's scheduler, as plain state.

A :class:`Scheduler` owns every container a job can sit in — the pending
deque, the running set, the backoff heap — the free and quarantined rank
sets, and the counters behind :meth:`Engine.stats`.  Each **move** is one
method, called by :class:`~repro.engine.core.Engine` under its lock, so a
job is in exactly one container at every instant (state table:
``docs/engine.md``).

State in, decisions out: ``now`` is passed in and nothing here waits,
wakes, starts a thread or calls telemetry — the engine executes what a
move returns, and ``tests/test_engine_scheduler.py`` drives every
interleaving of moves without a thread.  The policy constants
``REAP_GRACE``, ``PROBE_AFTER`` and ``CAPACITY_FLOOR`` are read here and
nowhere else, through the module, at call time.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Iterable

from repro.engine import resilience
from repro.errors import (
    EngineDegraded,
    EngineSaturated,
    JobCancelled,
    SpmdTimeout,
)

__all__ = ["Scheduler", "place_gang"]

#: Terminal status → the ``stats()`` counter that tallies it.
_TALLY = {"done": "completed", "failed": "failed", "cancelled": "cancelled"}


def place_gang(free: Iterable[int], topology: Any, k: int) -> tuple[int, ...]:
    """Pick ``k`` of the ``free`` pool ranks for a gang (``k <= len(free)``).

    On the flat topology this is the lowest-numbered free ranks.  On a
    multi-tier fabric the gang is packed to minimize the tiers its
    collectives must cross: the *tightest* single node that fits
    (best-fit keeps big holes open for big gangs), else the tightest
    single rack filled from its fullest nodes, else a global fill by
    descending node free count.  Members are returned sorted, which
    keeps each node's ranks a contiguous group-rank range — the layout
    the hierarchical collectives exploit.  All choices are deterministic
    (sorted sets, index tie-breaks), and job *results* never depend on
    placement, only virtual times.
    """
    free = sorted(free)
    if topology.is_flat:
        return tuple(free[:k])
    by_node: dict[int, list[int]] = {}
    for r in free:
        by_node.setdefault(topology.node_of(r), []).append(r)
    # 1) Tightest single node that fits.
    fits = [(len(rs), n) for n, rs in by_node.items() if len(rs) >= k]
    if fits:
        _, node = min(fits)
        return tuple(by_node[node][:k])
    # 2) Tightest single rack, filled from its fullest nodes.
    by_rack: dict[int, list[int]] = {}
    for node, rs in by_node.items():
        by_rack.setdefault(topology.rack_of(rs[0]), []).append(node)
    rack_fits = [
        (sum(len(by_node[n]) for n in nodes), rack)
        for rack, nodes in by_rack.items()
        if sum(len(by_node[n]) for n in nodes) >= k
    ]
    # 3) Else span racks: fill by descending node free count globally.
    nodes = by_rack[min(rack_fits)[1]] if rack_fits else by_node
    chosen: list[int] = []
    for node in sorted(nodes, key=lambda n: (-len(by_node[n]), n)):
        chosen.extend(by_node[node][:k - len(chosen)])
    return tuple(sorted(chosen))


class Scheduler:
    """Every job container, rank set and counter of one engine.

    Not thread-safe by itself: every method runs under the engine lock.
    Jobs are :class:`~repro.engine.job._Job` records (or anything with
    their scheduling fields); the scheduler alone writes ``status``,
    ``members``, ``ranks_left``, ``attempt``, ``cancelled``,
    ``timed_out`` and the terminal ``result`` / ``error``.
    """

    def __init__(self, nprocs: int, queue_depth: int, topology: Any):
        self.nprocs = nprocs
        self.queue_depth = queue_depth
        self.topology = topology
        self.closed = False
        self.pending: deque = deque()  # FIFO, head-of-line blocking
        self.running: set = set()
        self.parked: list[tuple[float, int, Any]] = []  # (due, seq, job) heap
        self.free: set[int] = set(range(nprocs))
        self.quarantined: dict[int, float] = {}  # rank -> since / last probe
        self._last_id = 0
        self._park_seq = 0
        #: The totals of ``stats()``, under its key names.
        self.counts = dict.fromkeys((
            "submitted", "completed", "failed", "cancelled", "rejected",
            "peak_inflight", "leaked_messages_drained", "retried", "reaped",
            "quarantines", "revivals", "revival_swept_messages",
        ), 0)
        # Locality of placement (multi-tier fabrics only).
        self._gangs = self._spread_sum = self._single_node_gangs = 0

    # -- reads --------------------------------------------------------------

    def capacity(self) -> int:
        """Schedulable ranks: the pool minus the quarantined."""
        return self.nprocs - len(self.quarantined)

    def degraded(self) -> bool:
        """Schedulable capacity is below the floor."""
        return self.capacity() < resilience.CAPACITY_FLOOR * self.nprocs

    def status(self) -> str:
        if self.closed:
            return "closed"
        return "degraded" if self.degraded() else "ok"

    def idle(self) -> bool:
        """No job is pending, running or parked for a retry."""
        return not (self.pending or self.running or self.parked)

    def stats(self) -> dict[str, Any]:
        """The scheduler's share of ``Engine.stats()``.  Conservation:
        ``submitted == completed + failed + cancelled + pending +
        inflight + retry_backlog``, on every read."""
        return {
            **self.counts,
            "pending": len(self.pending),
            "inflight": len(self.running),
            "retry_backlog": len(self.parked),
            "free_ranks": len(self.free),
            "quarantined_ranks": sorted(self.quarantined),
            "effective_capacity": self.capacity(),
            "degraded": self.degraded(),
            "status": self.status(),
            "placement": {
                "gangs_placed": self._gangs,
                "mean_gang_spread": (
                    self._spread_sum / self._gangs if self._gangs else 0.0
                ),
                "single_node_gangs": self._single_node_gangs,
            },
        }

    # -- admission ----------------------------------------------------------

    def refusal(self, k: int) -> tuple[type[EngineSaturated], str] | None:
        """Why a ``k``-rank job cannot be admitted right now — the error
        type and message a non-blocking submit raises — or None."""
        if k > self.capacity():
            return EngineDegraded, (
                f"job requests {k} ranks but only {self.capacity()} of "
                f"{self.nprocs} are schedulable ({len(self.quarantined)} "
                f"quarantined); back off until revival"
            )
        if len(self.pending) >= self.queue_depth:
            return EngineSaturated, (
                f"pending queue is at its depth limit ({self.queue_depth})"
            )
        return None

    def reject(self) -> None:
        """A submit gave up on a refusal; the job never existed."""
        self.counts["rejected"] += 1

    def admit(self, job: Any, now: float) -> None:
        """new → pending: the job gets the next id and joins the queue."""
        self._last_id += 1
        job.job_id = self._last_id
        self.counts["submitted"] += 1
        self._enqueue(job, now)

    def _enqueue(self, job: Any, now: float) -> None:
        job.status = "pending"
        job.admitted_at = now
        self.pending.append(job)

    # -- placement and release ----------------------------------------------

    def place(self) -> tuple:
        """pending → running for every head-of-line job the free ranks
        can hold; returns the placed jobs (``members`` set) in order, for
        the engine to start.  Strict FIFO: a large job at the head blocks
        later small ones — no starvation, deterministic order."""
        placed = ()
        while self.pending and self.pending[0].nprocs <= len(self.free):
            job = self.pending.popleft()
            members = place_gang(self.free, self.topology, job.nprocs)
            self.free.difference_update(members)
            if not self.topology.is_flat:
                spread = self.topology.nodes_spanned(members)
                self._gangs += 1
                self._spread_sum += spread
                self._single_node_gangs += spread == 1
            self.running.add(job)
            self.counts["peak_inflight"] = max(
                self.counts["peak_inflight"], len(self.running)
            )
            job.members, job.ranks_left = members, len(members)
            job.status = "running"
            placed += (job,)
        return placed

    def release(self, job: Any, rank: int) -> bool:
        """One member rank of a running job came back: held → free,
        unless it was quarantined meanwhile (then it stays withheld).
        True when it was the job's last rank out."""
        if rank not in self.quarantined:
            self.free.add(rank)
        job.ranks_left -= 1
        return job.ranks_left == 0

    # -- leaving "running" --------------------------------------------------

    def settle(
        self, job: Any, result: Any, err: BaseException | None, now: float,
        leaked: int = 0, dead: Iterable[int] = (),
    ) -> str:
        """running → done | cancelled | failed, or → parked ("retrying")
        when a :class:`RetryPolicy` earns the failure another attempt.
        One step, so a ``cancel()`` lands wholly before it — and is read
        here — or wholly after, on a parked or terminal job.  Also books
        what the attempt leaves behind: swept messages, dead ranks."""
        self.running.remove(job)
        self.counts["leaked_messages_drained"] += leaked
        self.quarantine(dead, now)
        if err is None and job.timed_out:
            err = job.timeout_error
        policy = job.retry_policy
        if job.cancelled:
            self._finish(
                job, "cancelled", JobCancelled(f"job {job.job_id} cancelled")
            )
        elif err is None:
            job.result = result
            self._finish(job, "done", None)
        elif (
            policy is not None
            and not self.closed
            and policy.should_retry(job.attempt, err)
        ):
            job.status = "retrying"
            self.counts["retried"] += 1
            self._park_seq += 1
            due = now + policy.backoff_seconds(job.attempt, job.job_id)
            heapq.heappush(self.parked, (due, self._park_seq, job))
        else:
            self._finish(job, "failed", err)
        return job.status

    def _finish(self, job: Any, status: str, error: BaseException | None):
        """The one terminal tally."""
        job.status, job.error = status, error
        self.counts[_TALLY[status]] += 1

    def flag_cancelled(self, job: Any) -> bool:
        """Mark a running job — only — so :meth:`settle` takes it
        "cancelled" whatever its ranks return; the engine aborts it."""
        if job.status != "running":
            return False
        job.cancelled = True
        return True

    def time_out(self, job: Any, err: SpmdTimeout, reaped: bool) -> bool:
        """Record that a running job blew its deadline, once: ``err`` is
        what :meth:`settle` fails it with unless a rank failed first."""
        if job.status != "running" or job.timed_out:
            return False
        job.timed_out, job.timeout_error = True, err
        self.counts["reaped"] += reaped
        return True

    # -- jobs that hold no ranks --------------------------------------------

    def withdraw(self, job: Any, status: str, error: BaseException) -> bool:
        """pending | parked → ``status`` ("cancelled" or "failed"); False
        when the job is anywhere else."""
        if job.status == "pending":
            self.pending.remove(job)
        elif job.status == "retrying":
            self._unpark(job)
        else:
            return False
        job.cancelled = status == "cancelled"
        self._finish(job, status, error)
        return True

    def _unpark(self, job: Any) -> None:
        self.parked = [e for e in self.parked if e[2] is not job]
        heapq.heapify(self.parked)

    def expire(self, now: float) -> list:
        """pending → failed for every queued job past its deadline plus
        ``REAP_GRACE``; returns them."""
        grace = resilience.REAP_GRACE
        expired = [
            job for job in self.pending
            if job.timeout is not None
            and now - job.admitted_at > job.timeout + grace
        ]
        for job in expired:
            self.counts["reaped"] += 1
            self.withdraw(job, "failed", SpmdTimeout(
                f"job {job.job_id} spent over {job.timeout} s queued "
                f"without being dispatched (pool saturated or degraded); "
                f"reaped by the engine supervisor"
            ))
        return expired

    def overdue(self, now: float) -> list:
        """Running jobs past their deadline plus ``REAP_GRACE`` that
        nobody has timed out or cancelled yet — for the engine to abort."""
        grace = resilience.REAP_GRACE
        return [
            job for job in self.running
            if job.timeout is not None
            and not (job.cancelled or job.timed_out)
            and now - job.t0 > job.timeout + grace
        ]

    def due(self, now: float) -> Any:
        """The parked job whose backoff is up — any parked job once the
        engine is closing, so a graceful drain lets retries finish — or
        None.  A peek: the job stays parked until :meth:`readmit`."""
        if self.parked and (self.closed or self.parked[0][0] <= now):
            return self.parked[0][2]
        return None

    def readmit(self, job: Any, plan: Any, now: float) -> bool:
        """parked → pending as attempt ``attempt + 1`` under ``plan``
        (resolved by the caller *before* this step).  False when the job
        was withdrawn while the plan was being resolved."""
        if job.status != "retrying":
            return False
        self._unpark(job)
        job.attempt += 1
        job.fault_plan = plan
        job.world, job.members = None, ()
        job.timed_out, job.timeout_error = False, None
        job.virtual_seconds = 0.0
        self._enqueue(job, now)
        return True

    # -- rank health --------------------------------------------------------

    def quarantine(self, ranks: Iterable[int], now: float) -> None:
        """free | held → quarantined: ranks a job reports dead are
        withheld from placement until a probe revives them."""
        for w in ranks:
            if w not in self.quarantined:
                self.quarantined[w] = now
                self.free.discard(w)
                self.counts["quarantines"] += 1

    def probe_due(self, now: float) -> list[int]:
        """Quarantined ranks whose ``PROBE_AFTER`` cool-down elapsed."""
        if self.closed:
            return []
        return [
            w for w, since in self.quarantined.items()
            if now - since >= resilience.PROBE_AFTER
        ]

    def revive(self, rank: int, ok: bool, now: float, swept: int) -> bool:
        """A probe of ``rank`` came back: quarantined → free when it
        passed, else the cool-down re-arms.  True when revived."""
        self.counts["revival_swept_messages"] += swept
        if self.closed or rank not in self.quarantined:
            return False
        if ok:
            del self.quarantined[rank]
            self.free.add(rank)
            self.counts["revivals"] += 1
        else:
            self.quarantined[rank] = now
        return ok

    # -- closing ------------------------------------------------------------

    def close(self) -> None:
        """Admission ends; queued, running and parked jobs may finish."""
        self.closed = True

    def sweep(self) -> tuple[list, list]:
        """Everything still here is cancelled: pending and parked jobs at
        once (returned first), running ones flagged for the engine to
        abort (returned second).  Closed, so nothing can enter ``pending``
        afterwards and :meth:`place` has nothing left to place."""
        self.closed = True
        unplaced = [*self.pending, *(e[2] for e in sorted(self.parked))]
        for job in unplaced:
            self.withdraw(job, "cancelled", JobCancelled(
                f"job {job.job_id} cancelled by engine shutdown"
            ))
        running = sorted(self.running, key=lambda job: job.job_id)
        for job in running:
            job.cancelled = True
        return unplaced, running
