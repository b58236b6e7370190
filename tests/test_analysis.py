"""Tests for efficiency series, reports, and the call census."""

import pytest

from repro import mpi
from repro.analysis import (
    Series,
    crossover,
    format_series_csv,
    format_speedup_figure,
    format_table,
    sweep,
)
from repro.nas.callcounts import census
from repro.runtime import spmd_run


class TestSeries:
    def test_speedup_relative_to_own_t1(self):
        s = Series("x", [1, 2, 4], [8.0, 4.0, 2.0])
        assert s.speedup() == [1.0, 2.0, 4.0]
        assert s.efficiency() == [1.0, 1.0, 1.0]

    def test_speedup_with_external_base(self):
        s = Series("x", [1, 2], [10.0, 4.0])
        assert s.speedup(base_t1=8.0) == [0.8, 2.0]

    def test_t1_extrapolated_when_missing(self):
        s = Series("x", [2, 4], [4.0, 2.0])
        assert s.t1 == 8.0

    def test_sweep(self):
        s = sweep("lbl", lambda p: 10.0 / p, [1, 2, 5])
        assert s.procs == [1, 2, 5]
        assert s.times == [10.0, 5.0, 2.0]

    def test_crossover(self):
        a = Series("a", [1, 2, 4], [10.0, 4.0, 1.0])
        b = Series("b", [1, 2, 4], [8.0, 5.0, 3.0])
        assert crossover(a, b) == 2
        assert crossover(b, a) == 1
        c = Series("c", [1, 2, 4], [100.0, 100.0, 100.0])
        assert crossover(c, a) is None

    def test_crossover_grid_mismatch(self):
        with pytest.raises(ValueError):
            crossover(Series("a", [1], [1.0]), Series("b", [2], [1.0]))


class TestReports:
    def test_format_table_aligns(self):
        out = format_table(
            ["p", "time"], [[1, 1.5], [16, 0.125]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "p" in lines[2] and "time" in lines[2]
        assert "0.125" in out

    def test_format_speedup_figure(self):
        a = Series("MPI", [1, 2], [8.0, 4.5])
        b = Series("RSMPI", [1, 2], [8.0, 4.0])
        out = format_speedup_figure("Fig", [a, b])
        assert "MPI" in out and "RSMPI" in out
        assert "speedup (efficiency)" in out

    def test_speedup_figure_grid_mismatch(self):
        with pytest.raises(ValueError):
            format_speedup_figure(
                "F", [Series("a", [1], [1.0]), Series("b", [2], [1.0])]
            )

    def test_csv(self):
        a = Series("a", [1, 2], [1.0, 0.5])
        csv = format_series_csv([a])
        lines = csv.splitlines()
        assert lines[0] == "p,a"
        assert lines[1].startswith("1,")


class TestCensus:
    def test_reduction_fraction(self):
        def prog(comm):
            for _ in range(9):
                comm.bcast(1, root=0)
            comm.allreduce(1, mpi.SUM)

        res = spmd_run(prog, 4)
        c = census(res.traces)
        assert c.n_reductions == 1
        assert c.n_total == 10
        assert c.reduction_fraction == pytest.approx(0.1)

    def test_nonblocking_reductions_are_counted(self):
        """The census classifies by collective kind, so the i* entry
        points (every overlapped global_reduce, every fused bucket)
        count — by name they were missed: 4 of 12 instead of 12 of 12."""

        def prog(comm):
            comm.allreduce(1, mpi.SUM)
            comm.iallreduce(1, mpi.SUM).wait()
            comm.iscan(1, mpi.SUM).wait()

        res = spmd_run(prog, 4)
        summary = res.summary_trace
        assert summary.n_collective_calls == 12
        assert summary.n_reduction_calls == 12
        assert summary.reduction_fraction() == 1.0
        c = census(res.traces)
        assert (c.n_reductions, c.n_total) == (3, 3)
        assert c.format().count("<- reduction") == 3

    def test_per_rank_normalization(self):
        def prog(comm):
            comm.allreduce(1, mpi.SUM)

        res = spmd_run(prog, 8)
        assert census(res.traces).collective_calls["allreduce"] == 1
        assert census(res.traces, per_rank=False).collective_calls[
            "allreduce"
        ] == 8

    def test_p2p_counted(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, 1)
            elif comm.rank == 1:
                comm.recv(0)

        c = census(spmd_run(prog, 2).traces, per_rank=False)
        assert c.p2p_calls["send"] == 1
        assert c.p2p_calls["recv"] == 1

    def test_format(self):
        def prog(comm):
            comm.scan(1, mpi.SUM)
            comm.barrier()

        c = census(spmd_run(prog, 2).traces)
        text = c.format("census")
        assert "scan" in text and "<- reduction" in text
        assert "%" in text

    def test_empty(self):
        c = census(spmd_run(lambda comm: None, 2).traces)
        assert c.n_total == 0 and c.reduction_fraction == 0.0


class TestUtilization:
    def _run(self, p=4):
        from repro.runtime import CostModel, spmd_run

        cm = CostModel().with_rates(work=1e-3)

        def prog(comm):
            comm.charge_elements("work", comm.rank + 1)  # uneven load
            comm.barrier()

        return spmd_run(prog, p, cost_model=cm)

    def test_breakdown_sums_to_makespan(self):
        from repro.analysis import utilization

        res = self._run()
        for u in utilization(res):
            total = (
                u.compute_seconds
                + u.comm_wait_seconds
                + u.trailing_idle_seconds
            )
            assert total == pytest.approx(res.time, rel=1e-9)

    def test_uneven_load_visible(self):
        from repro.analysis import utilization

        res = self._run()
        rows = utilization(res)
        assert rows[3].compute_seconds > rows[0].compute_seconds
        assert rows[0].busy_fraction < rows[3].busy_fraction

    def test_format(self):
        from repro.analysis import format_utilization

        text = format_utilization(self._run())
        assert "makespan" in text and "busy%" in text
        assert "aggregate utilization" in text

    def test_zero_time_run(self):
        from repro.analysis import format_utilization, utilization
        from repro.runtime import spmd_run

        res = spmd_run(lambda comm: None, 1)
        assert utilization(res)[0].busy_fraction == 1.0
        assert "makespan" in format_utilization(res)


class TestChromeTrace:
    def _run(self):
        from repro import mpi
        from repro.obs import Tracer
        from repro.runtime import spmd_run

        def prog(comm):
            comm.charge(1e-3, "kernel")
            comm.allreduce(comm.rank, mpi.SUM)

        return spmd_run(prog, 3, tracer=Tracer())

    def test_structure(self):
        from repro.analysis import to_chrome_trace

        doc = to_chrome_trace(self._run())
        assert doc["otherData"]["nprocs"] == 3
        kinds = {e.get("cat") for e in doc["traceEvents"] if "cat" in e}
        assert {"span", "send", "recv", "collective"} <= kinds
        # thread names for each rank
        names = [e for e in doc["traceEvents"] if e.get("ph") == "M"]
        assert len(names) == 3

    def test_compute_spans_have_duration(self):
        from repro.analysis import to_chrome_trace

        doc = to_chrome_trace(self._run())
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert spans and all(s["dur"] > 0 for s in spans)
        # One charged-compute slice per rank, named by the charge's label.
        kernels = [s for s in spans if s["name"] == "kernel"]
        assert sorted(s["tid"] for s in kernels) == [0, 1, 2]
        assert all(s["ts"] == 0.0 and s["dur"] == 1e-3 * 1e6 for s in kernels)

    def test_requires_recorded_events(self):
        from repro.analysis import to_chrome_trace
        from repro.runtime import spmd_run

        res = spmd_run(lambda comm: comm.barrier(), 2)  # no profile
        with pytest.raises(ValueError, match="pass a tracer"):
            to_chrome_trace(res)

    def test_write_roundtrip(self, tmp_path):
        import json

        from repro.analysis import write_chrome_trace

        path = tmp_path / "trace.json"
        write_chrome_trace(self._run(), str(path))
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
