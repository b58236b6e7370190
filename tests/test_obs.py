"""Tests for the observability subsystem: tracer, metrics, critical
path, exporters, timeline rendering, and the profiling CLI."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import to_chrome_trace, tracer_to_chrome_trace
from repro.core import global_reduce, global_reduce_many, global_scan
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    RankTracer,
    RunCapture,
    Tracer,
    critical_path,
    dumps_jsonl,
    phase_summary,
    phase_topmost_spans,
    profiling,
)
from repro.obs.metrics import Histogram
from repro.ops import CountsOp, MaxOp, MinKOp, SumOp
from repro.runtime import cluster_2006, spmd_run
from repro.runtime.trace import Trace, merge_traces

REPO = Path(__file__).resolve().parent.parent
PAPER_DATA = [6, 7, 6, 3, 8, 2, 8, 4, 8, 3]


def _split(data, p, r):
    base, extra = divmod(len(data), p)
    lo = r * base + min(r, extra)
    return data[lo : lo + base + (1 if r < extra else 0)]


def _program(comm):
    local = _split(PAPER_DATA, comm.size, comm.rank)
    total = global_reduce(comm, SumOp(), local)
    running = global_scan(comm, SumOp(), local)
    counts = global_reduce(comm, CountsOp(8), local)
    return total, tuple(running), tuple(counts.tolist())


# -- metrics ---------------------------------------------------------------


class TestHistogram:
    def test_bucket_exponent_exact_powers_are_upper_bounds(self):
        # bucket 2**k covers (2**(k-1), 2**k] — a power of two is the
        # inclusive upper bound of its own bucket.
        assert Histogram.bucket_exponent(1.0) == 0
        assert Histogram.bucket_exponent(2.0) == 1
        assert Histogram.bucket_exponent(0.5) == -1
        assert Histogram.bucket_exponent(1024.0) == 10

    def test_bucket_exponent_interior(self):
        assert Histogram.bucket_exponent(3.0) == 2
        assert Histogram.bucket_exponent(1.0001) == 1
        assert Histogram.bucket_exponent(0.75) == 0

    def test_zero_and_inf_get_dedicated_buckets(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(math.inf)
        h.observe(4.0)
        assert h.zero_count == 1
        assert h.inf_count == 1
        assert h.buckets() == [(0.0, 1), (4.0, 1), (math.inf, 1)]
        assert h.count == 3
        assert h.min == 0.0 and h.max == math.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Histogram().observe(-1.0)

    def test_boundary_falls_in_lower_bucket(self):
        h = Histogram()
        h.observe(2.0)  # boundary of (1, 2] and (2, 4]
        h.observe(2.0000001)
        assert dict(h.buckets()) == {2.0: 1, 4.0: 1}

    def test_summary_is_json_serializable(self):
        h = Histogram()
        for v in (0.0, 1.0, 3.0, math.inf):
            h.observe(v)
        s = json.dumps(h.summary())
        assert "inf" in s


class TestRegistry:
    def test_instruments_accumulate(self):
        m = MetricsRegistry()
        m.counter("c").inc()
        m.counter("c").inc(4)
        m.gauge("g").set(2.5)
        m.histogram("h").observe(3.0)
        snap = m.snapshot()
        assert snap["counters"] == {"c": 5}
        assert snap["gauges"] == {"g": 2.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_type_conflict_raises(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            m.histogram("x")

    def test_null_metrics_accepts_everything(self):
        assert not NULL_METRICS.enabled
        NULL_METRICS.counter("a").inc()
        NULL_METRICS.gauge("b").set(1.0)
        NULL_METRICS.histogram("c").observe(-5.0)  # not even validated


# -- span capture invariants -----------------------------------------------


@pytest.fixture(scope="module")
def traced_run():
    tracer = Tracer()
    result = spmd_run(_program, 4, tracer=tracer)
    return tracer, result


class TestSpanCapture:
    def test_runs_and_ranks(self, traced_run):
        tracer, result = traced_run
        assert len(tracer.runs) == 1
        run = tracer.runs[0]
        assert run.nprocs == 4
        assert run.makespan == result.time
        assert run.clocks == result.clocks
        assert result.profile is run

    def test_spans_are_well_formed(self, traced_run):
        tracer, _ = traced_run
        run = tracer.runs[0]
        by_id = run.span_parents()
        for span in run.spans():
            assert span.t_end >= span.t_start
            assert 0 <= span.rank < run.nprocs
            if span.parent_id is None:
                assert span.depth == 0
            else:
                parent = by_id[span.parent_id]
                # children nest inside their parent, on the same rank
                assert parent.rank == span.rank
                assert parent.depth == span.depth - 1
                assert parent.t_start <= span.t_start
                assert span.t_end <= parent.t_end

    def test_every_rank_emits_the_three_phases(self, traced_run):
        tracer, _ = traced_run
        run = tracer.runs[0]
        for rt in run.ranks:
            phases = [s.phase for s in rt.spans if s.phase is not None]
            for phase in ("accumulate", "combine", "generate"):
                assert phase in phases, f"rank {rt.rank} missing {phase}"

    def test_phase_ordering_within_a_reduce(self, traced_run):
        tracer, _ = traced_run
        run = tracer.runs[0]
        by_id = run.span_parents()
        for rt in run.ranks:
            reduces = [s for s in rt.spans if s.name == "global_reduce"]
            assert reduces
            for red in reduces:
                inner = sorted(
                    (s for s in rt.spans
                     if s.parent_id == red.span_id and s.phase),
                    key=lambda s: s.t_start,
                )
                assert [s.phase for s in inner] == [
                    "accumulate", "combine", "generate"
                ]
        assert by_id  # ancestry map covers the run

    def test_phase_topmost_excludes_nested_transport(self, traced_run):
        tracer, _ = traced_run
        run = tracer.runs[0]
        by_id = run.span_parents()
        for span in phase_topmost_spans(run):
            parent = by_id.get(span.parent_id) if span.parent_id else None
            while parent is not None:
                assert parent.phase is None
                parent = (by_id.get(parent.parent_id)
                          if parent.parent_id else None)

    def test_phase_summary_shape(self, traced_run):
        tracer, _ = traced_run
        summary = phase_summary(tracer)
        assert summary["runs"] == 1
        sum_phases = summary["ops"]["sum"]
        assert sum_phases["accumulate"]["elements"] > 0
        assert sum_phases["accumulate"]["bytes"] > 0
        assert set(sum_phases) >= {"accumulate", "combine", "generate"}


# -- one span tree, whichever entry point ran --------------------------------


def _plain_reduce(comm):
    return global_reduce(comm, SumOp(), np.arange(64.0) + comm.rank)


def _overlapped_reduce(comm):
    # 512 KiB of state: the pipelined path, in 8 column chunks.
    return global_reduce(comm, SumOp(), np.ones((4, 65536)) * comm.rank)


def _fused_reduces(comm):
    x = np.arange(20_000, dtype=np.int64) * (comm.rank + 1)
    return global_reduce_many(
        comm, [(SumOp(), x), (MaxOp(), x), (MinKOp(10), x)]
    )


def _plain_scan(comm):
    return global_scan(comm, SumOp(), np.arange(64.0))


class TestEveryEntryPointEmitsTheThreePhases:
    """Accumulate and generate under each operator, combine under the
    operator (or, for a fused wave, the wave: its members share the
    rounds), and one ``kernels.accum.*`` count per fold performed."""

    @pytest.mark.parametrize("program, ops, combine_op, chunks", [
        (_plain_reduce, ["sum"], "sum", 1),
        (_overlapped_reduce, ["sum"], "sum", 8),
        (_fused_reduces, ["sum", "max", "mink(k=10)"], "fused[3]", 1),
        (_plain_scan, ["sum"], "sum", 1),
    ])
    def test_phases_and_fold_counts(self, program, ops, combine_op, chunks):
        p = 4
        tracer = Tracer()
        spmd_run(program, p, tracer=tracer)
        by_op = phase_summary(tracer)["ops"]
        for op in ops:
            assert by_op[op]["accumulate"]["spans"] == p * chunks
            assert by_op[op]["accumulate"]["bytes"] > 0
            assert by_op[op]["generate"]["spans"] == p
        combine = by_op[combine_op]["combine"]
        assert combine["spans"] == p and combine["bytes"] > 0
        # Waiting on the chunks' / the wave's rounds is combine time.
        assert combine["virtual_seconds"] > 0
        counters = tracer.metrics.snapshot()["counters"]
        folds = sum(
            n for name, n in counters.items()
            if name.startswith("kernels.accum.")
        )
        assert folds == len(ops) * p * chunks


# -- charges are leaf spans --------------------------------------------------


class TestChargeSpans:
    """A charge under a tracer is a completed, un-phased leaf span: the
    profile shows where charged time went, and everything that reads
    phased spans is exactly what it was without them (the literals were
    recorded on this program before charges produced spans)."""

    @pytest.fixture(scope="class")
    def traced(self):
        import numpy as np

        def prog(comm):
            data = np.arange(1000, dtype=np.float64) + comm.rank
            return global_reduce(
                comm, SumOp(), data, accum_rate="numpy_stream"
            )

        tracer = Tracer()
        return tracer, spmd_run(prog, 4, tracer=tracer)

    def test_phase_summary_unchanged(self, traced):
        tracer, result = traced
        assert result.returns == [2004000.0] * 4
        assert phase_summary(tracer) == {
            "runs": 1,
            "total_virtual_seconds": 1.1016000000000003e-05,
            "ops": {"sum": {
                "accumulate": {
                    "spans": 4, "virtual_seconds": 8.000000000000001e-06,
                    "bytes": 32000, "elements": 4000,
                },
                "combine": {
                    "spans": 4, "virtual_seconds": 3.606400000000001e-05,
                    "bytes": 32, "elements": 0,
                },
                "generate": {
                    "spans": 4, "virtual_seconds": 0.0,
                    "bytes": 0, "elements": 0,
                },
            }},
        }

    def test_critical_path_unchanged(self, traced):
        tracer, _ = traced
        cp = critical_path(tracer.runs[0])
        assert (cp.total, cp.end_rank) == (1.1016000000000003e-05, 0)
        assert cp.phase_seconds == {
            "accumulate": 2.0000000000000003e-06,
            "combine": 3.000000000000001e-06,
            "comm": 6.016000000000001e-06,
        }

    def test_jsonl_gains_the_accumulate_charge(self, traced):
        tracer, _ = traced
        records = [json.loads(line) for line in dumps_jsonl(tracer).splitlines()]
        spans = {r["id"]: r for r in records if r["type"] == "span"}
        charges = [r for r in spans.values() if r["name"] == "accum:sum"]
        assert sorted(r["rank"] for r in charges) == [0, 1, 2, 3]
        for r in charges:
            assert r["phase"] is None
            assert (r["t_start"], r["t_end"]) == (0.0, 2.0000000000000003e-06)
            assert spans[r["parent"]]["name"] == "accumulate"

    def test_straggler_charge_span_shows_the_slowed_time(self):
        from repro.faults import FaultPlan

        tracer = Tracer()
        spmd_run(
            lambda comm: comm.charge(1e-3, "kernel"), 2, tracer=tracer,
            fault_plan=FaultPlan(seed=1, stragglers={1: 3.0}),
        )
        by_rank = {s.rank: s for s in tracer.spans() if s.name == "kernel"}
        assert by_rank[0].duration == 1e-3
        assert by_rank[1].duration == 3e-3


# -- critical path ---------------------------------------------------------


class TestCriticalPath:
    def _two_rank_exchange(self):
        """Rank 0 computes [0,1], sends at t=1 (available t=6); rank 1
        arrives at its recv at t=2, blocks until 6, finishes the recv at
        t=7, then combines [7,10]."""
        m = MetricsRegistry()
        r0 = RankTracer(0, clock=None, metrics=m)
        r1 = RankTracer(1, clock=None, metrics=m)
        from repro.obs import SendEdge, RecvEdge
        from repro.obs.tracer import Span

        r0.spans.append(Span("r0.0", None, "accumulate", 0, 0.0, 1.0,
                             phase="accumulate"))
        r0.sends.append(SendEdge(dest=1, tag=7, nbytes=8,
                                 t_send=1.0, available_at=6.0))
        r1.recvs.append(RecvEdge(source=0, tag=7, nbytes=8, t_arrive=2.0,
                                 available_at=6.0, t_done=7.0))
        r1.spans.append(Span("r1.0", None, "combine", 1, 7.0, 10.0,
                             phase="combine"))
        return RunCapture(index=0, nprocs=2, ranks=[r0, r1],
                          clocks=[1.0, 10.0], makespan=10.0)

    def test_attribution_accounts_for_every_second(self):
        cp = critical_path(self._two_rank_exchange())
        assert cp.end_rank == 1
        assert cp.total == 10.0
        assert cp.phase_seconds == {
            "combine": pytest.approx(3.0),
            "comm": pytest.approx(6.0),
            "accumulate": pytest.approx(1.0),
        }
        assert sum(cp.phase_seconds.values()) == pytest.approx(cp.total)
        assert cp.fraction("comm") == pytest.approx(0.6)

    def test_steps_walk_backwards_through_the_gate(self):
        cp = critical_path(self._two_rank_exchange())
        kinds = [(s.rank, s.kind) for s in cp.steps]
        assert kinds == [(1, "local"), (1, "comm"), (0, "local")]

    def test_unblocked_recv_is_not_a_gate(self):
        run = self._two_rank_exchange()
        # make the message early: recv never blocks, so the whole path
        # is local time on rank 1
        r1 = run.ranks[1]
        edge = r1.recvs[0]
        r1.recvs[0] = type(edge)(edge.source, edge.tag, edge.nbytes,
                                 t_arrive=2.0, available_at=1.5, t_done=7.0)
        cp = critical_path(run)
        assert all(s.kind == "local" and s.rank == 1 for s in cp.steps)
        assert "comm" not in cp.phase_seconds

    def test_real_run_path_sums_to_makespan(self, traced_run):
        tracer, result = traced_run
        cp = critical_path(tracer.runs[0])
        assert cp.total == pytest.approx(result.time)
        assert sum(cp.phase_seconds.values()) == pytest.approx(cp.total)


# -- zero-overhead regression ----------------------------------------------


class TestDisabledTracerIsFree:
    """With tracing off, results, virtual clocks, and collective call
    counts must be bit-identical to a traced run of the same program."""

    MODEL = cluster_2006()

    def _run(self, tracer, p=4):
        return spmd_run(_program, p, cost_model=self.MODEL, tracer=tracer)

    @pytest.mark.parametrize("p", [1, 3, 4, 8])
    def test_identical_results_and_clocks(self, p):
        base = self._run(None, p)
        traced = self._run(Tracer(), p)
        assert traced.returns == base.returns
        assert traced.clocks == base.clocks
        assert traced.time == base.time

    def test_identical_collective_call_counts(self):
        base = merge_traces(self._run(None).traces)
        traced = merge_traces(self._run(Tracer()).traces)
        assert base.collective_calls
        assert traced.collective_calls == base.collective_calls
        assert traced.n_sends == base.n_sends
        assert traced.bytes_sent == base.bytes_sent

    def test_active_profile_context_is_also_free(self):
        base = self._run(None)
        with profiling(ranks=None) as tracer:
            ambient = spmd_run(_program, 4, cost_model=self.MODEL)
        assert ambient.returns == base.returns
        assert ambient.clocks == base.clocks
        assert len(tracer.runs) == 1

    def test_ranks_override_rescales(self):
        with profiling(ranks=2) as tracer:
            res = spmd_run(_program, 64, cost_model=self.MODEL)
        assert res.nprocs == 2
        assert tracer.runs[0].nprocs == 2

    def test_null_tracer_span_allocates_nothing(self):
        assert NULL_TRACER.span("x", phase="accumulate") is NULL_TRACER.span("y")


# -- merge_traces ----------------------------------------------------------


class TestMergeTraces:
    def test_counters_still_sum(self):
        a, b = Trace(rank=0), Trace(rank=1)
        a.on_send(10)
        b.on_send(30)
        a.on_collective("reduce", "reduce")
        b.on_collective("reduce", "reduce")
        merged = merge_traces([a, b])
        assert merged.rank == -1
        assert merged.n_sends == 2
        assert merged.bytes_sent == 40
        assert merged.collective_calls["reduce"] == 2
        assert merged.n_reduction_calls == 2


# -- exporters -------------------------------------------------------------


class TestExporters:
    def test_jsonl_every_line_parses(self, traced_run):
        tracer, _ = traced_run
        lines = dumps_jsonl(tracer).splitlines()
        records = [json.loads(line) for line in lines]
        kinds = {r["type"] for r in records}
        assert kinds == {"run", "span", "metrics"}
        spans = [r for r in records if r["type"] == "span"]
        assert all(r["t_end"] >= r["t_start"] for r in spans)

    def test_chrome_trace_has_duration_slices(self, traced_run):
        tracer, result = traced_run
        doc = to_chrome_trace(result)
        slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert slices
        assert all(e["dur"] >= 0 and "ts" in e for e in slices)
        colls = [e for e in slices if e["cat"] == "collective"]
        assert colls, "collectives must be duration slices, not instants"
        json.dumps(doc, allow_nan=False)

    def test_tracer_chrome_trace_one_pid_per_run(self, traced_run):
        tracer, _ = traced_run
        doc = tracer_to_chrome_trace(tracer)
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {run.index for run in tracer.runs}

    def test_no_events_no_profile_raises(self):
        res = spmd_run(_program, 2)
        assert res.profile is None
        with pytest.raises(ValueError, match="pass a tracer"):
            to_chrome_trace(res)


# -- CLI -------------------------------------------------------------------


class TestProfileCli:
    def test_profile_example_jsonl(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "p.jsonl"
        rc = main([
            "profile", str(REPO / "examples" / "quickstart.py"),
            "--ranks", "2", "--format", "jsonl", "--out", str(out),
        ])
        assert rc == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert any(r["type"] == "span" for r in records)
        assert all(r["nprocs"] == 2 for r in records if r["type"] == "run")

    def test_profile_example_text(self, tmp_path, capsys):
        from repro.__main__ import main

        rc = main([
            "profile", str(REPO / "examples" / "quickstart.py"),
            "--ranks", "4", "--format", "text",
        ])
        assert rc == 0
        report = capsys.readouterr().out
        assert "per-operator phase breakdown" in report
        assert "accumulate" in report
        assert "critical path" in report

    def test_profile_example_chrome(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "p.trace.json"
        rc = main([
            "profile", str(REPO / "examples" / "cg_solver_demo.py"),
            "256", "4", "--format", "chrome", "--out", str(out),
        ])
        assert rc == 0
        events = json.loads(out.read_text())["traceEvents"]
        assert events
        # Charged compute renders as a slice named by the charge's label.
        dots = [e for e in events if e["name"] == "cg:dots"]
        assert dots and all(e["ph"] == "X" and e["dur"] > 0 for e in dots)

    def test_tour_trace_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "tour.trace.json"
        rc = main(["2", "--trace", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])


class TestDisabledTracerAllocatesNothing:
    """Satellite guarantee: with no profile active, the hot paths build
    zero span or metric-instrument objects — the disabled branch is an
    attribute check, not a null object per call."""

    @pytest.fixture
    def poisoned(self, monkeypatch):
        """Make every observability constructor raise if reached."""
        from repro.obs import metrics as metrics_mod
        from repro.obs import tracer as tracer_mod

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError(
                "observability object constructed with tracing disabled"
            )

        monkeypatch.setattr(tracer_mod.Span, "__init__", boom)
        monkeypatch.setattr(tracer_mod._SpanContext, "__init__", boom)
        monkeypatch.setattr(metrics_mod.Counter, "__init__", boom)
        monkeypatch.setattr(metrics_mod.Gauge, "__init__", boom)
        monkeypatch.setattr(metrics_mod.Histogram, "__init__", boom)

    def test_reduce_scan_paths(self, poisoned):
        import numpy as np

        from repro.core.fusion import global_reduce_many
        from repro.localview import LOCAL_ALLREDUCE, LOCAL_XSCAN
        from repro import mpi

        def prog(comm):
            xs = np.arange(8.0) + comm.rank
            a = global_reduce(comm, SumOp(), xs)
            b = global_scan(comm, SumOp(), [1.0, 2.0])
            c = LOCAL_ALLREDUCE(comm, mpi.SUM, float(comm.rank))
            d = LOCAL_XSCAN(comm, lambda: 0.0, mpi.SUM, 1.0)
            e = global_reduce_many(comm, [(SumOp(), xs), (SumOp(), xs)])
            f = comm.iallreduce(float(comm.rank), mpi.SUM).wait()
            comm.ibarrier().wait()
            return a, b, c, d, e, f

        out = spmd_run(prog, 4).returns  # no tracer: must not allocate
        assert out[0][0] == pytest.approx(sum(np.arange(8.0) + r for r in range(4)).sum())

    def test_collectives_and_p2p(self, poisoned):
        def prog(comm):
            comm.barrier()
            v = comm.bcast(comm.rank or "root", root=0)
            g = comm.gather(comm.rank, root=0)
            s = comm.scan(comm.rank + 1, lambda a, b: a + b)
            return v, g, s

        assert len(spmd_run(prog, 4).returns) == 4
