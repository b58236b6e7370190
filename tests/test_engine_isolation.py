"""Cross-job isolation: messages never leak between concurrent jobs.

The engine multiplexes every job over one shared set of per-rank
mailboxes, separated only by context-id-scoped tags.  These tests
attack that separation directly: concurrent jobs using the *same* user
tags and overlapping pool ranks, marker payloads to catch any
cross-delivery, and leak sweeps verified by the mailboxes' pending
counts returning to zero.
"""

import threading

import pytest

from repro.engine import Engine
from repro.errors import SpmdError
from repro.runtime import spmd_run
from repro.runtime.world import JobWorld, World, cid_root


def echo_ring(comm, marker):
    """Pass rank-stamped markers around a ring on a fixed user tag; every
    hop asserts the payload came from this job (same marker) and the
    expected neighbour."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    token = (marker, comm.rank)
    for _ in range(4):
        comm.send(token, dest=right, tag=7)  # same tag in every job
        token = comm.recv(source=left, tag=7)
        got_marker, got_rank = token
        assert got_marker == marker, (
            f"job {marker!r} received job {got_marker!r}'s message"
        )
        assert got_rank == left
        token = (marker, comm.rank)
    return marker


class TestNoCrossJobLeaks:
    def test_same_tags_overlapping_ranks(self):
        """Many concurrent rings, identical tags, shared pool ranks."""
        with Engine(8) as engine:
            handles = [
                engine.submit(
                    echo_ring, nprocs=4, args=(f"job-{i}",), label=f"ring-{i}"
                )
                for i in range(16)
            ]
            for i, h in enumerate(handles):
                assert h.result().returns == [f"job-{i}"] * 4
            # Every queue fully drained: nothing left to leak.
            assert all(
                mb.pending_count() == 0 for mb in engine.world.mailboxes
            )
            assert engine.stats()["leaked_messages_drained"] == 0

    def test_many_client_threads_same_tags(self):
        errors = []

        def client(engine, idx):
            try:
                for k in range(5):
                    marker = f"c{idx}-{k}"
                    res = engine.submit(
                        echo_ring, nprocs=4, args=(marker,)
                    ).result()
                    assert res.returns == [marker] * 4
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        with Engine(8) as engine:
            threads = [
                threading.Thread(target=client, args=(engine, i))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert all(
                mb.pending_count() == 0 for mb in engine.world.mailboxes
            )

    def test_failed_job_leftovers_swept(self):
        """A job that dies mid-collective leaves sent-but-unreceived
        messages behind; finalization must sweep them so the shared
        mailboxes stay clean for later tenants."""

        def dies_after_send(comm):
            comm.send(comm.rank, dest=(comm.rank + 1) % comm.size, tag=3)
            if comm.rank == 0:
                raise RuntimeError("die with messages in flight")
            comm.recv(source=(comm.rank - 1) % comm.size, tag=3)
            return comm.rank

        with Engine(4) as engine:
            with pytest.raises(SpmdError):
                engine.submit(dies_after_send).result()
            stats = engine.stats()
            assert all(
                mb.pending_count() == 0 for mb in engine.world.mailboxes
            )
            # At least rank 0's unreceived message had to be swept.
            assert stats["leaked_messages_drained"] >= 1
            # And the pool still serves clean jobs on the same tag.
            res = engine.submit(echo_ring, args=("after",)).result()
            assert res.returns == ["after"] * 4


class TestContextAllocation:
    def test_concurrent_allocation_unique(self):
        world = World(4)
        seen = []
        lock = threading.Lock()

        def grab():
            got = [world.allocate_context_id() for _ in range(200)]
            with lock:
                seen.extend(got)

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == len(set(seen)) == 1600

    def test_cid_root_unwraps_derived_contexts(self):
        # Tags carry nested cids of the form ("d", ("s", base, ...)) etc.;
        # cid_root must find the job's base cid at any depth.
        assert cid_root(5) == 5
        assert cid_root(("d", 5)) == 5
        assert cid_root(("s", ("d", 5), 2)) == 5

    def test_job_worlds_get_distinct_base_cids(self):
        with Engine(4) as engine:
            def job(comm):
                return comm._cid

            cids = {
                engine.submit(job, nprocs=2).result().returns[0]
                for _ in range(10)
            }
        assert len(cids) == 10


class TestPoolHoldsNoRunState:
    """``Engine.world`` is the pool — what outlives a job.  Everything a
    run needs (clocks, traces, membership, abort flag, tracer capture,
    fault injector) belongs to the job's own ``JobWorld``."""

    RUN_STATE = (
        "clocks", "traces", "membership", "abort_event", "injector",
        "run_capture", "rank_tracers", "tracer",
    )
    RUN_METHODS = (
        "abort", "mark_failed", "retire_rank", "revoke_cid", "rank_states",
        "context", "makespan", "can_fail",
    )

    def test_pool_world_carries_pool_state_only(self):
        with Engine(4) as engine:
            engine.submit(lambda comm: comm.allreduce(1, max)).result()
            state = vars(engine.world)
        assert not set(self.RUN_STATE) & set(state)
        assert {k for k in state if not k.startswith("_")} == {
            "nprocs", "cost_model", "topology", "mailboxes",
            "schedule_cache", "kernel_cache", "proc_pool",
        }

    def test_world_has_no_run_methods(self):
        assert not [m for m in self.RUN_METHODS if hasattr(World, m)]

    def test_world_constructor_takes_pool_parameters_only(self):
        import inspect

        sig = inspect.signature(World.__init__)
        assert list(sig.parameters) == [
            "self", "nprocs", "cost_model", "topology"
        ]

    def test_a_jobs_state_is_its_own(self):
        pool = World(4)
        a, b = JobWorld(pool, (0, 1)), JobWorld(pool, (2, 3))
        assert a.mailboxes is b.mailboxes is pool.mailboxes
        assert a.base_cid != b.base_cid
        assert a.abort_event is not b.abort_event
        assert a.membership is not b.membership
        a.abort()
        assert a.abort_event.is_set() and not b.abort_event.is_set()
        # Non-member slots of the world-rank-indexed lists stay empty.
        assert a.clocks[2] is None and a.traces[3] is None
