"""Engine soak: hundreds of mixed jobs from many clients, one engine.

CI runs this with ``pytest-timeout`` installed, so a scheduler hang
fails fast instead of wedging the job; locally the marker is inert if
the plugin is absent.  The mix includes healthy reductions and scans of
several gang sizes, a failing job, a cancelled job and one
chaos-seeded job with an injected fail-stop — all multiplexed over the
same 8-rank pool.
"""

import random
import threading

import numpy as np
import pytest

from repro import global_reduce, global_scan
from repro.engine import Engine
from repro.errors import JobCancelled, SpmdError
from repro.faults import FailStop, FaultPlan
from repro.ops import SumOp
from repro.runtime import spmd_run
from tests.conftest import watch_conservation

N_CLIENTS = 8
JOBS_PER_CLIENT = 26  # 8 * 26 = 208 jobs >= the 200-job soak floor


def reduce_job(comm, scale):
    local = np.arange(comm.rank, 8 * comm.size, comm.size, dtype=np.float64)
    return global_reduce(comm, SumOp(), local * scale)


def scan_job(comm, base):
    return global_scan(comm, SumOp(), [float(base + comm.rank)])


def failing_job(comm):
    if comm.rank == comm.size - 1:
        raise RuntimeError("soak: planned failure")
    return comm.rank


def slow_job(comm, gate):
    gate.wait(30.0)
    return comm.rank


CHAOS_PLAN = FaultPlan(seed=7, failstops=(FailStop(rank=1, at_op=1),))


@pytest.mark.timeout(120)
def test_soak_mixed_clients():
    baselines = {
        (nprocs, scale): spmd_run(
            reduce_job, nprocs, args=(scale,)
        ).returns
        for nprocs in (2, 4, 8)
        for scale in (1.0, 2.0)
    }
    chaos_baseline = spmd_run(reduce_job, 4, args=(1.0,), fault_plan=CHAOS_PLAN)
    failures: list[BaseException] = []
    counts = {"ok": 0, "failed": 0, "cancelled": 0, "chaos": 0}
    lock = threading.Lock()

    def bump(key):
        with lock:
            counts[key] += 1

    def client(idx: int, engine: Engine) -> None:
        rng = random.Random(idx)
        try:
            for k in range(JOBS_PER_CLIENT):
                roll = rng.random()
                if idx == 0 and k == 0:
                    # The one chaos-seeded job of the soak.
                    res = engine.submit(
                        reduce_job, nprocs=4, args=(1.0,),
                        fault_plan=CHAOS_PLAN, label="chaos",
                    ).result()
                    assert res.failed_ranks == chaos_baseline.failed_ranks
                    assert res.returns == chaos_baseline.returns
                    bump("chaos")
                elif roll < 0.05:
                    with pytest.raises(SpmdError):
                        engine.submit(
                            failing_job, nprocs=rng.choice((2, 4))
                        ).result()
                    bump("failed")
                elif roll < 0.10:
                    gate = threading.Event()
                    handle = engine.submit(slow_job, nprocs=2, args=(gate,))
                    handle.cancel()
                    gate.set()
                    with pytest.raises(JobCancelled):
                        handle.result(timeout=30.0)
                    bump("cancelled")
                elif roll < 0.55:
                    nprocs = rng.choice((2, 4, 8))
                    scale = rng.choice((1.0, 2.0))
                    res = engine.submit(
                        reduce_job, nprocs=nprocs, args=(scale,)
                    ).result()
                    assert res.returns == baselines[(nprocs, scale)]
                    bump("ok")
                else:
                    nprocs = rng.choice((2, 4, 8))
                    base = rng.randrange(100)
                    res = engine.submit(
                        scan_job, nprocs=nprocs, args=(base,)
                    ).result()
                    assert res.returns == [
                        [float(sum(base + g for g in range(i + 1)))]
                        for i in range(nprocs)
                    ]
                    bump("ok")
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    with Engine(8, queue_depth=64) as engine, watch_conservation(engine):
        threads = [
            threading.Thread(target=client, args=(i, engine), daemon=True)
            for i in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = engine.stats()
        assert all(mb.pending_count() == 0 for mb in engine.world.mailboxes)

    assert not failures, failures[0]
    total = sum(counts.values())
    assert total == N_CLIENTS * JOBS_PER_CLIENT >= 200
    assert counts["chaos"] == 1
    assert stats["submitted"] == total
    assert stats["pending"] == 0 and stats["inflight"] == 0
    # Every job is accounted for: done, failed or cancelled.
    assert (
        stats["completed"] + stats["failed"] + stats["cancelled"]
        == stats["submitted"]
    )
    cache = stats["schedule_cache"]
    assert cache["hits"] > cache["misses"]
