"""Tests for the SPMD executor: results, failures, timeouts, isolation,
determinism of virtual time."""

import threading

import numpy as np
import pytest

from repro import mpi
from repro.core.reduce import global_reduce
from repro.errors import DeadlockError, SpmdError, SpmdTimeout
from repro.mpi.collectives import SCHEDULES
from repro.ops import SumOp
from repro.runtime import CostModel, spmd_run
from repro.runtime.channels import Mailbox
from repro.runtime.world import RankContext


class TestBasics:
    def test_returns_per_rank(self):
        res = spmd_run(lambda comm: comm.rank * 10, 4)
        assert res.returns == [0, 10, 20, 30]
        assert res.nprocs == 4

    def test_single_rank_runs_inline(self):
        res = spmd_run(lambda comm: comm.size, 1)
        assert res.returns == [0 + 1]
        assert res.time == 0.0  # no communication, no charges

    def test_extra_args_passed(self):
        res = spmd_run(lambda comm, a, b: a + b + comm.rank, 2, args=(10, 5))
        assert res.returns == [15, 16]

    def test_invalid_nprocs(self):
        from repro.errors import CommunicatorError

        with pytest.raises(CommunicatorError):
            spmd_run(lambda comm: None, 0)

    def test_wall_seconds_positive(self):
        res = spmd_run(lambda comm: comm.barrier(), 3)
        assert res.wall_seconds > 0


class TestVirtualTime:
    def test_charges_accumulate(self):
        def prog(comm):
            comm.charge(0.5, "work")
            return comm.context.clock.t

        res = spmd_run(prog, 2)
        assert res.returns == [0.5, 0.5]
        assert res.time == 0.5

    def test_charge_elements_uses_rates(self):
        cm = CostModel().with_rates(myrate=1e-3)

        def prog(comm):
            comm.charge_elements("myrate", 100)

        res = spmd_run(prog, 2, cost_model=cm)
        assert res.time == pytest.approx(0.1)

    def test_message_cost_structure(self):
        cm = CostModel(
            latency=1e-3, byte_time=0.0, send_overhead=1e-4, recv_overhead=1e-4
        )

        def prog(comm):
            if comm.rank == 0:
                comm.send("x", 1)
            elif comm.rank == 1:
                comm.recv(0)

        res = spmd_run(prog, 2, cost_model=cm)
        # receiver: o_s + L + o_r
        assert res.clocks[1] == pytest.approx(1e-4 + 1e-3 + 1e-4)
        # sender only pays its overhead
        assert res.clocks[0] == pytest.approx(1e-4)

    def test_bytes_charged(self):
        cm = CostModel(latency=0.0, byte_time=1e-6, send_overhead=0.0,
                       recv_overhead=0.0)

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1000, dtype=np.float64), 1)  # 8000 B
            elif comm.rank == 1:
                comm.recv(0)

        res = spmd_run(prog, 2, cost_model=cm)
        assert res.clocks[1] == pytest.approx(8000e-6)

    def test_determinism_under_thread_jitter(self):
        def prog(comm):
            v = comm.allreduce(np.arange(100) * comm.rank, mpi.SUM)
            comm.barrier()
            s = comm.scan(comm.rank, mpi.SUM)
            return float(v.sum()) + s

        runs = [spmd_run(prog, 8) for _ in range(3)]
        assert runs[0].returns == runs[1].returns == runs[2].returns
        assert runs[0].time == runs[1].time == runs[2].time
        assert [t.bytes_sent for t in runs[0].traces] == [
            t.bytes_sent for t in runs[1].traces
        ]


class TestFailures:
    def test_exception_propagates_with_rank(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(SpmdError) as exc_info:
            spmd_run(prog, 3)
        assert 1 in exc_info.value.failures
        assert isinstance(exc_info.value.failures[1], ValueError)

    def test_other_ranks_unwound(self):
        # ranks blocked in recv must not hang the run
        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("die")
            comm.recv(0)  # never satisfied

        with pytest.raises(SpmdError):
            spmd_run(prog, 4, timeout=30)

    def test_watchdog_detects_deadlock(self):
        # The hang watchdog converts a guaranteed circular wait into a
        # diagnostic SpmdError naming each blocked rank's pending wait —
        # long before the wall-clock timeout would fire.
        def prog(comm):
            comm.recv((comm.rank + 1) % comm.size)  # circular wait

        with pytest.raises(SpmdError) as ei:
            spmd_run(prog, 2, timeout=30)
        assert "deadlock" in str(ei.value)
        assert any(
            isinstance(e, DeadlockError) for e in ei.value.failures.values()
        )

    def test_multiple_failures_reported(self):
        def prog(comm):
            raise RuntimeError(f"rank{comm.rank}")

        with pytest.raises(SpmdError) as ei:
            spmd_run(prog, 3)
        assert len(ei.value.failures) >= 1


class TestPayloadIsolation:
    def test_receiver_mutation_does_not_corrupt_sender(self):
        def prog(comm):
            mine = np.zeros(4)
            if comm.rank == 0:
                comm.send(mine, 1)
                comm.barrier()
                return mine.copy()
            if comm.rank == 1:
                got = comm.recv(0)
                got += 99
                comm.barrier()
                return got
            comm.barrier()
            return None

        res = spmd_run(prog, 2)
        assert np.array_equal(res.returns[0], np.zeros(4))
        assert np.array_equal(res.returns[1], np.full(4, 99.0))

    @pytest.mark.parametrize("p", [3, 4])
    @pytest.mark.parametrize("name", [
        *(f"{s.kind}/{s.name}" for kind in SCHEDULES.values()
          for s in kind.values() if s.segments),
        "global_reduce/overlap",
    ])
    def test_sender_mutation_after_segment_send(self, monkeypatch, p, name):
        """The segmenting plans send views of the buffer they go on
        reducing in (the overlapped driver's result buffer, in place)
        without copying them: the send itself must isolate the payload.
        Every array send here is followed at once by the sender
        scribbling over what it sent; the delivered message must still
        hold the sent bytes (the sender then restores its buffer, so the
        schedule runs on and its result is checked too)."""
        last = threading.local()
        deliver, send_raw = Mailbox.deliver, RankContext.send_raw
        checked, leaked = [], []

        def recording_deliver(self, env, **kw):
            last.env = env
            return deliver(self, env, **kw)

        def scribbling_send(self, dest, tag, payload):
            send_raw(self, dest, tag, payload)
            if isinstance(payload, np.ndarray) and payload.size:
                sent = payload.copy()
                payload[...] = -7.0
                checked.append(tag)
                if not np.array_equal(last.env.payload, sent):
                    leaked.append(tag)
                payload[...] = sent

        monkeypatch.setattr(Mailbox, "deliver", recording_deliver)
        monkeypatch.setattr(RankContext, "send_raw", scribbling_send)
        kind, algorithm = name.split("/")
        n = 20_000  # 160 KiB: several pipelined-ring pieces, and overlap

        def prog(comm):
            v = np.arange(n, dtype=np.float64) * (comm.rank + 1)
            if kind == "reduce":
                return comm.reduce(v, mpi.SUM, algorithm=algorithm)
            if kind == "allreduce":
                return comm.allreduce(v, mpi.SUM, algorithm=algorithm)
            if kind == "reduce_scatter":
                seg, (lo, hi) = comm.reduce_scatter(v, mpi.SUM)
                return seg, lo, hi
            return global_reduce(comm, SumOp(), np.stack([v, v]))

        res = spmd_run(prog, p)
        assert checked and not leaked
        total = np.arange(n, dtype=np.float64) * (p * (p + 1) // 2)
        for rank, got in enumerate(res.returns):
            if kind == "reduce" and rank != 0:
                assert got is None
            elif kind == "reduce_scatter":
                seg, lo, hi = got
                assert np.array_equal(seg, total[lo:hi])
            else:
                scale = 2 if kind == "global_reduce" else 1
                assert np.array_equal(got, total * scale)


class TestTraces:
    def test_collective_calls_counted(self):
        def prog(comm):
            comm.allreduce(1, mpi.SUM)
            comm.bcast(0, root=0)
            comm.scan(1, mpi.SUM)

        res = spmd_run(prog, 4)
        tr = res.traces[0]
        assert tr.collective_calls["allreduce"] == 1
        assert tr.collective_calls["bcast"] == 1
        assert tr.collective_calls["scan"] == 1

    def test_summary_trace_aggregates(self):
        def prog(comm):
            comm.barrier()

        res = spmd_run(prog, 4)
        assert res.summary_trace.collective_calls["barrier"] == 4

    def test_summary_trace_is_cached(self):
        def prog(comm):
            comm.barrier()

        res = spmd_run(prog, 4)
        # The merge is memoized: repeated accesses return the same
        # object, not a fresh merge each time (profiling loops poll it).
        assert res.summary_trace is res.summary_trace
        first = res.summary_trace
        assert res.summary_trace is first
