"""Unit tests for the process-backend worker pool.

Covers the :class:`~repro.runtime.procworld.ProcPool` contract directly
(offload vs MISS, IPC counters, worker death → inline fallback →
supervisor restart) and the lifecycle guarantees the engine builds on:
``Engine.shutdown`` terminates worker processes and reaps every
``/dev/shm`` segment, proven by a repeated create/shutdown soak.
"""

import glob
import os
import signal
import time

import numpy as np
import pytest

from repro.engine import Engine
from repro.ops import MinKOp, SumOp, SegmentedOp
from repro.core.reduce import global_reduce
from repro.runtime import procworld
from repro.runtime.procworld import MISS, ProcPool, SHM_PREFIX, _fold_state
from tests.conftest import run_fresh


def _leaked_segments():
    return glob.glob(f"/dev/shm/{SHM_PREFIX}-*")


@pytest.fixture
def forced(monkeypatch):
    """Offload every block, over small rings: these tests are about the
    IPC path, not about where it pays."""
    monkeypatch.setattr(procworld, "MIN_OFFLOAD_BYTES", 0)
    monkeypatch.setattr(procworld, "RING_BYTES", 1 << 20)
    return monkeypatch


@pytest.fixture
def pool(forced):
    p = ProcPool(2)
    try:
        yield p
    finally:
        p.shutdown()


def min3_job(comm):
    """A fold the engine offers to the pool (segmented kernel; a plain
    ``SumOp`` is one ``ufunc.reduce`` and stays inline)."""
    return global_reduce(comm, MinKOp(3), np.arange(1000.0) + comm.rank)


def test_accumulate_matches_inline_fold(pool):
    op = SumOp()
    values = np.arange(10_000, dtype=np.float64)
    state = pool.accumulate(0, op, values)
    assert state is not MISS
    expected = _fold_state(op, values)
    assert type(state) is type(expected) or isinstance(state, np.ndarray) == isinstance(expected, np.ndarray)
    assert np.asarray(state).tobytes() == np.asarray(expected).tobytes()
    stats = pool.ipc_stats()
    assert stats["frames"] >= 2
    assert stats["shm_hits"] >= 1
    assert stats["bytes"] > values.nbytes


def test_fresh_worker_first_fold_imports_nothing():
    """Everything the worker loop runs is imported in the parent before
    the fork.  With lazy facades a worker would otherwise import its
    kernel-tier modules itself — once per worker, after the fork, with
    no copy-on-write sharing.  A fresh interpreter, so the parent holds
    only what ``procworld`` itself pulled in; the operator is not from
    ``repro.ops``, so nothing else pre-loads the kernel tier's imports."""
    run_fresh("""
        import sys
        import numpy as np
        from repro.core.operator import ReduceScanOp
        from repro.runtime.procworld import MISS, ProcPool

        def loaded():
            return sorted(m for m in sys.modules if m.startswith("repro"))

        class Spy(ReduceScanOp):
            commutative = True
            def ident(self): return 0.0
            def accum(self, state, x): return state + x
            def combine(self, s1, s2): return s1 + s2
            def post_accum(self, state, x):   # runs in the worker, after the fold
                return (state, loaded())

        import repro.runtime.procworld as procworld
        procworld.MIN_OFFLOAD_BYTES = 0
        procworld.RING_BYTES = 1 << 20
        pool = ProcPool(1)
        try:
            at_fork = loaded()
            state = pool.accumulate(0, Spy(), np.arange(1000.0))
        finally:
            pool.shutdown()
        assert state is not MISS
        total, in_worker = state
        assert total == 499500.0, total
        assert in_worker == at_fork, sorted(set(in_worker) - set(at_fork))
    """)


def test_list_payload_uses_pickle_fallback(pool):
    op = SumOp()
    values = [float(i) for i in range(100)]
    state = pool.accumulate(0, op, values)
    assert state is not MISS
    assert float(np.asarray(state)) == sum(values)
    assert pool.ipc_stats()["pickle_fallbacks"] >= 1


def test_small_block_misses_below_threshold(monkeypatch):
    monkeypatch.setattr(procworld, "RING_BYTES", 1 << 20)
    below = np.zeros(procworld.MIN_OFFLOAD_BYTES // 8 - 1)
    p = ProcPool(1)
    try:
        assert p.accumulate(0, SumOp(), below) is MISS
        assert p.ipc_stats()["frames"] == 0
        at = np.zeros(procworld.MIN_OFFLOAD_BYTES // 8)
        assert p.accumulate(0, SumOp(), at) is not MISS
    finally:
        p.shutdown()


def test_unpicklable_operator_misses(pool):
    op = SegmentedOp(lambda x, y: x + y, 0)
    assert pool.accumulate(0, op, np.arange(100.0)) is MISS
    assert pool.ipc_stats()["inline_fallbacks"] >= 1


def test_oversize_frame_falls_back_to_pipe(forced):
    forced.setattr(procworld, "RING_BYTES", 1 << 12)
    p = ProcPool(1)
    try:
        values = np.arange(10_000, dtype=np.float64)  # 80 KB > 4 KB ring
        state = p.accumulate(0, SumOp(), values)
        assert state is not MISS
        assert np.asarray(state) == values.sum()
        assert p.ipc_stats()["pickle_fallbacks"] >= 1
    finally:
        p.shutdown()


def test_out_of_range_rank_misses(pool):
    assert pool.accumulate(5, SumOp(), np.arange(100.0)) is MISS


def test_ping_and_worker_alive(pool):
    assert pool.worker_alive(0)
    assert pool.ping(0)
    assert pool.dead_workers() == []


def test_stale_probe_reply_never_corrupts_results(pool):
    """A reply left queued by an abandoned probe (the timed-out-ping
    scenario) must be discarded by sequence id, not returned as the
    next accumulate's folded state."""
    w = pool._workers[0]
    with w.lock:
        w.seq += 1
        w.conn.send(("ping", w.seq))  # request sent, reply never read
    time.sleep(0.2)  # let the late pong land on the pipe, unread
    values = np.arange(10_000, dtype=np.float64)
    state = pool.accumulate(0, SumOp(), values)
    assert state is not MISS
    assert float(np.asarray(state)) == values.sum()


def test_ping_timeout_marks_dead_and_restart_reforks(pool):
    """An alive-but-unresponsive worker is marked dead on ping timeout,
    and restart_worker re-forks it (fresh pipe) instead of trusting
    ``is_alive()``."""
    w = pool._workers[0]
    old_pid = w.proc.pid
    os.kill(old_pid, signal.SIGSTOP)  # alive, but will never answer
    try:
        assert pool.ping(0, timeout=0.2) is False
        assert not w.alive
        assert 0 in pool.dead_workers()
        assert pool.accumulate(0, SumOp(), np.arange(1000.0)) is MISS
    finally:
        os.kill(old_pid, signal.SIGCONT)
    assert pool.restart_worker(0)
    assert w.proc.pid != old_pid  # re-forked, not reused
    state = pool.accumulate(0, SumOp(), np.arange(10_000.0))
    assert state is not MISS
    assert float(np.asarray(state)) == np.arange(10_000.0).sum()
    assert pool.ipc_stats()["worker_restarts"] >= 1


def test_restart_worker_keeps_healthy_worker(pool):
    """restart_worker on a responsive worker verifies with a ping and
    leaves the process in place."""
    pid = pool._workers[0].proc.pid
    assert pool.restart_worker(0)
    assert pool._workers[0].proc.pid == pid


def test_op_bytes_memoized_across_calls(pool):
    op = SumOp()
    values = np.arange(10_000, dtype=np.float64)
    first = pool.accumulate(0, op, values)
    assert op in pool._op_cache  # pickled once, reused afterwards
    second = pool.accumulate(0, op, values)
    assert np.asarray(first).tobytes() == np.asarray(second).tobytes()


def test_worker_death_falls_back_then_restarts(pool):
    values = np.arange(1000, dtype=np.float64)
    assert pool.accumulate(0, SumOp(), values) is not MISS
    os.kill(pool._workers[0].proc.pid, signal.SIGKILL)
    pool._workers[0].proc.join(timeout=5.0)
    # The first request against the dead worker degrades to MISS...
    assert pool.accumulate(0, SumOp(), values) is MISS
    assert 0 in pool.dead_workers()
    assert pool.ipc_stats()["worker_deaths"] >= 1
    # ...rank 1 is unaffected...
    assert pool.accumulate(1, SumOp(), values) is not MISS
    # ...and a restart (what the engine supervisor does) revives rank 0.
    assert pool.restart_worker(0)
    assert pool.worker_alive(0)
    state = pool.accumulate(0, SumOp(), values)
    assert state is not MISS
    assert np.asarray(state) == values.sum()
    assert pool.ipc_stats()["worker_restarts"] >= 1


def test_shutdown_idempotent_and_reaps(pool):
    names = pool.shm_names()
    assert len(names) == 4  # 2 workers x req+resp
    pool.shutdown()
    pool.shutdown()  # idempotent
    assert pool.closed
    for name in names:
        assert not os.path.exists(f"/dev/shm/{name}")
    assert pool.accumulate(0, SumOp(), np.arange(100.0)) is MISS


def test_engine_supervisor_restarts_dead_worker(forced):
    eng = Engine(2, backend="process")
    try:
        pool = eng.proc_pool
        os.kill(pool._workers[1].proc.pid, signal.SIGKILL)
        pool._workers[1].proc.join(timeout=5.0)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            eng.probe_backend()
            if pool.worker_alive(1) and pool.ping(1):
                break
            time.sleep(0.05)
        assert pool.worker_alive(1)
        # And jobs keep producing correct results throughout.
        res = eng.submit(min3_job).result()
        assert sorted(res.returns[0]) == [0.0, 1.0, 1.0]
        assert eng.stats()["ipc"]["frames"] > 0
    finally:
        eng.shutdown(drain=False)


def test_engine_shutdown_soak_no_leaks(forced):
    """50 create/shutdown cycles leak neither processes nor segments."""
    forced.setattr(procworld, "RING_BYTES", 1 << 18)
    baseline_segments = set(_leaked_segments())
    for cycle in range(50):
        eng = Engine(2, backend="process")
        if cycle % 10 == 0:  # exercise real traffic on some cycles
            res = eng.submit(min3_job).result()
            assert sorted(res.returns[0]) == [0.0, 1.0, 1.0]
            assert eng.stats()["ipc"]["frames"] > 0
        pids = [w.proc.pid for w in eng.proc_pool._workers]
        assert eng.shutdown() is True
        assert set(_leaked_segments()) == baseline_segments, (
            f"cycle {cycle} leaked shm segments"
        )
        for pid in pids:
            # The child must be gone (or a reaped zombie at worst).
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            # Still exists: give the OS a beat, then require it dead.
            time.sleep(0.2)
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def test_spmd_run_backend_kwarg(forced):
    from repro.runtime import spmd_run

    r_thread = spmd_run(min3_job, 2)
    r_proc = spmd_run(min3_job, 2, backend="process")
    for got, want in zip(r_proc.returns, r_thread.returns):
        assert got.tobytes() == want.tobytes()
    assert r_proc.clocks == r_thread.clocks
    assert not _leaked_segments()


def test_kernel_routing_counters_match_thread_backend(forced):
    """A successful offload records the same schedule-cache decision and
    ``kernels.accum.*`` tracer counters the inline fold would have, so
    kernel-routing observability does not depend on the backend."""
    from repro.obs import Tracer
    from repro.runtime import spmd_run

    def accum_counters(backend):
        tracer = Tracer()
        spmd_run(min3_job, 2, tracer=tracer, backend=backend)
        snap = tracer.metrics.snapshot()["counters"]
        return {
            k: v for k, v in snap.items() if k.startswith("kernels.accum.")
        }

    thread = accum_counters("thread")
    process = accum_counters("process")
    assert thread == {"kernels.accum.segmented": 2}  # an offered fold
    assert process == thread


def test_engine_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        Engine(2, backend="gpu")
