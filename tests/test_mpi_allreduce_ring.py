"""Tests for the ring all-reduce algorithm."""

import numpy as np
import pytest

from repro import mpi
from repro.errors import CommunicatorError, SpmdError
from repro.runtime import spmd_run
from tests.conftest import run_all

SIZES = [1, 2, 3, 4, 5, 8, 13]


class TestRingCorrectness:
    @pytest.mark.parametrize("p", SIZES)
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 100, 1001])
    def test_sum_arrays(self, p, n):
        def prog(comm):
            return comm.allreduce(
                np.arange(n, dtype=np.float64) * (comm.rank + 1),
                mpi.SUM,
                algorithm="ring",
            )

        total = p * (p + 1) / 2
        for out in run_all(prog, p):
            assert np.array_equal(out, np.arange(n, dtype=np.float64) * total)

    @pytest.mark.parametrize("p", SIZES)
    def test_matches_recursive_doubling(self, p, rng):
        data = rng.normal(size=(p, 64))

        def prog(comm):
            mine = data[comm.rank]
            a = comm.allreduce(
                mine.copy(), mpi.SUM, algorithm="recursive_doubling"
            )
            b = comm.allreduce(mine.copy(), mpi.SUM, algorithm="ring")
            return np.allclose(a, b)

        assert all(run_all(prog, p))

    @pytest.mark.parametrize("p", [2, 5])
    def test_min_max(self, p, rng):
        data = rng.integers(0, 100, (p, 20))

        def prog(comm):
            return comm.allreduce(
                data[comm.rank].copy(), mpi.MIN, algorithm="ring"
            )

        for out in run_all(prog, p):
            assert np.array_equal(out, data.min(axis=0))

    def test_scalar_input(self):
        out = run_all(
            lambda comm: comm.allreduce(
                float(comm.rank + 1), mpi.SUM, algorithm="ring"
            ),
            4,
        )
        assert all(v == 10.0 for v in out)

    @pytest.mark.parametrize("p", [1, 3, 4])
    def test_scalar_input_every_segmenting_schedule(self, p):
        """Regression: reduce_scatter died with a raw ``TypeError: len()
        of unsized object`` on a 0-d payload the other three segmenting
        schedules accepted; all four now share one vector helper."""

        def prog(comm):
            x = np.float64(comm.rank + 1)
            seg, (lo, hi) = comm.reduce_scatter(x, mpi.SUM)
            return (
                comm.allreduce(x, mpi.SUM, algorithm="ring"),
                comm.allreduce(x, mpi.SUM, algorithm="rabenseifner"),
                comm.reduce(x, mpi.SUM, algorithm="pipelined_ring"),
                seg.tolist(), (lo, hi),
            )

        total = p * (p + 1) / 2
        out = run_all(prog, p)
        for rank, (ring, rab, piped, seg, bounds) in enumerate(out):
            assert ring == rab == total
            assert piped == (total if rank == 0 else None)
            # the single element is segment p-1; the others are empty
            assert seg == ([total] if rank == p - 1 else [])
            assert bounds == ((0, 1) if rank == p - 1 else (0, 0))

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_reduce_scatter_segment_owns_its_data(self, p):
        """Regression: the segment was a view into the plan's private
        full-length copy, so keeping 1/p of the result pinned all n."""

        def prog(comm):
            x = np.arange(1000.0) * (comm.rank + 1)
            seg, (lo, hi) = comm.reduce_scatter(x, mpi.SUM)
            return seg.flags.owndata, seg.base is None, seg.nbytes, hi - lo

        for owndata, no_base, nbytes, count in run_all(prog, p):
            assert owndata and no_base
            assert nbytes == count * 8

    def test_input_not_mutated(self):
        def prog(comm):
            mine = np.full(10, float(comm.rank))
            comm.allreduce(mine, mpi.SUM, algorithm="ring")
            return bool(np.all(mine == comm.rank))

        assert all(run_all(prog, 4))


class TestRingProperties:
    def test_bandwidth_advantage(self):
        """2(p-1)/p * n bytes vs n*log2(p) bytes per rank."""
        n, p = 50_000, 16

        def rd(comm):
            comm.allreduce(np.zeros(n), mpi.SUM, algorithm="recursive_doubling")

        def ring(comm):
            comm.allreduce(np.zeros(n), mpi.SUM, algorithm="ring")

        a = spmd_run(rd, p)
        b = spmd_run(ring, p)
        assert b.summary_trace.bytes_sent < a.summary_trace.bytes_sent / 1.5
        assert b.time < a.time

    def test_latency_disadvantage_small_payload(self):
        """For tiny payloads, 2(p-1) latencies lose to log2 p."""
        p = 16

        def rd(comm):
            comm.allreduce(np.zeros(1), mpi.SUM, algorithm="recursive_doubling")

        def ring(comm):
            comm.allreduce(np.zeros(1), mpi.SUM, algorithm="ring")

        assert spmd_run(ring, p).time > spmd_run(rd, p).time

    def test_rejects_noncommutative(self):
        cat = mpi.op_create(lambda a, b: a + b, commute=False)

        def prog(comm):
            comm.allreduce(np.zeros(4), cat, algorithm="ring")

        with pytest.raises(SpmdError) as ei:
            spmd_run(prog, 4, timeout=10)
        assert any(
            isinstance(e, CommunicatorError)
            for e in ei.value.failures.values()
        )

    def test_unknown_algorithm(self):
        def prog(comm):
            comm.allreduce(1, mpi.SUM, algorithm="bogus")

        with pytest.raises(SpmdError):
            spmd_run(prog, 2, timeout=10)
