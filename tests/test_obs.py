"""Tests for the observability subsystem: tracer, span notes and the
counts read off them, an engine job's wall stamps on its run record,
critical path, exporters, timeline rendering, and the profiling CLI."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import mpi
from repro.analysis import to_chrome_trace, tracer_to_chrome_trace
from repro.core import global_reduce, global_reduce_many, global_scan, make_op
from repro.faults import FailStop, FaultPlan, LinkFaults
from repro.obs import (
    NULL_TRACER,
    RankTracer,
    RunCapture,
    Tracer,
    critical_path,
    dumps_jsonl,
    format_text_report,
    phase_summary,
    phase_topmost_spans,
    profiling,
)
from repro.engine import Engine
from repro.errors import EngineSaturated
from repro.obs.export import profile_counts
from repro.ops import CountsOp, MaxOp, MinKOp, SumOp
from repro.runtime import cluster_2006, spmd_run
from repro.runtime.fabric import multi_node
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
        folds = sum(
            n for name, n in profile_counts(tracer).items()
            if name.startswith("kernels.accum.")
        )
        assert folds == len(ops) * p * chunks


# -- counts read off the span profile ----------------------------------------


def _allreduce_auto_and_named(comm):
    comm.allreduce(1.0, mpi.SUM)  # auto: recursive doubling, radix 8
    comm.allreduce(np.arange(64.0), mpi.SUM, algorithm="ring")


def _iallreduce(comm):
    return comm.iallreduce(float(comm.rank), mpi.SUM).wait()


def _hierarchical(comm):
    return comm.allreduce(np.arange(16.0), mpi.SUM, algorithm="hierarchical")


_PLUS = make_op(ident=lambda: 0, accum=lambda s, x: s + x,
                combine=lambda a, b: a + b, name="plus")


def _accumulates(comm):
    x = np.arange(100, dtype=np.int64) + comm.rank
    global_reduce(comm, SumOp(), x)  # elementwise
    global_reduce(comm, MinKOp(3), x)  # segmented
    global_reduce(comm, _PLUS, x.tolist())  # fallback
    global_scan(comm, SumOp(), x)  # scan: elementwise
    # One tile: the batch folds each member in its own pass ...
    small = np.arange(20_000, dtype=np.int64) * (comm.rank + 1)
    global_reduce_many(comm, [(SumOp(), small), (MinKOp(10), small)])
    # ... more than one: all three share one sweep.
    big = np.arange(40_000, dtype=np.int64) % 89 + comm.rank
    global_reduce_many(comm, [
        (SumOp(), big), (MaxOp(-1), big), (MinKOp(10, 1 << 40), big),
    ])


def _fused_wave(comm):
    return global_reduce_many(
        comm, [(SumOp(), np.arange(4.0) + comm.rank) for _ in range(5)]
    )


def _reduce_sum(comm):
    return global_reduce(comm, SumOp(), np.arange(64.0) + comm.rank)


_LOSSY = FaultPlan(seed=11, link=LinkFaults(
    drop_rate=0.2, dup_rate=0.2, delay_rate=0.2, reorder_rate=0.2,
))
_FAILSTOP = FaultPlan(seed=11, failstops=(FailStop(rank=5, at_op=1),))

#: One small traced job per counter family, and its counts.  The values
#: are what the tracer's metrics registry reported for the same jobs
#: before counts were read off the profile (``collective.allreduce_rd
#: .calls`` is now ``collective.allreduce.recursive_doubling``, its
#: radix histogram one ``….radix_<r>`` count per call, and so on);
#: ``hierarchical`` alone differs: its internal subgroup plans (2
#: Rabenseifner allreduces and 4 ring reduce-scatters) were counted as
#: calls of their own, and only the communicator's call is one now.
COUNT_FAMILIES = {
    "allreduce": (_allreduce_auto_and_named, 8, {}, {
        "collective.allreduce.recursive_doubling": 1,
        "collective.allreduce.recursive_doubling.radix_8": 1,
        "collective.allreduce.ring": 1,
    }),
    "iallreduce": (_iallreduce, 4, {}, {
        "coll.nonblocking.issued": 4,
        "collective.allreduce.recursive_doubling": 1,
        "collective.allreduce.recursive_doubling.radix_4": 1,
    }),
    "hierarchical": (_hierarchical, 8, {"topology": multi_node(2)}, {
        "collective.allreduce.hierarchical": 1,
    }),
    "accumulates": (_accumulates, 2, {}, {
        "coll.nonblocking.issued": 4,
        "collective.allreduce.recursive_doubling": 5,
        "collective.allreduce.recursive_doubling.radix_4": 5,
        "collective.scan.chain": 1,
        "fusion.waves": 4,
        "fusion.waves_saved": 6,
        "kernels.accum.elementwise": 10,
        "kernels.accum.fallback": 2,
        "kernels.accum.segmented": 6,
        "kernels.batch.fallback_passes": 4,
        "kernels.batch.members": 6,
        "kernels.batch.sweeps": 2,
        "kernels.scan.elementwise": 2,
    }),
    "fused_wave": (_fused_wave, 4, {}, {
        "coll.nonblocking.issued": 4,
        "collective.allreduce.recursive_doubling": 1,
        "collective.allreduce.recursive_doubling.radix_4": 1,
        "fusion.waves": 4,
        "fusion.waves_saved": 16,
        "kernels.accum.elementwise": 20,
    }),
    "lossy": (_reduce_sum, 8, {"fault_plan": _LOSSY}, {
        "collective.allreduce.recursive_doubling": 1,
        "collective.allreduce.recursive_doubling.radix_8": 1,
        "faults.delays": 14,
        "faults.duplicates": 13,
        "faults.reorders": 10,
        "faults.retransmits": 15,
        "kernels.accum.elementwise": 8,
    }),
    "failstop": (_reduce_sum, 8, {"fault_plan": _FAILSTOP}, {
        "collective.allreduce.recursive_doubling": 2,
        "collective.allreduce.recursive_doubling.radix_8": 2,
        "faults.failstops": 1,
        "faults.recoveries": 7,
        "kernels.accum.elementwise": 8,
    }),
}


class TestProfileCounts:
    @pytest.mark.parametrize("family", sorted(COUNT_FAMILIES))
    def test_counts_read_off_the_profile(self, family):
        program, p, kwargs, expected = COUNT_FAMILIES[family]
        tracer = Tracer()
        result = spmd_run(program, p, tracer=tracer, **kwargs)
        counts = profile_counts(tracer)
        assert counts == expected
        assert profile_counts(result.profile) == counts
        # Fault events are the traces' own: the same with no tracer.
        faults = {
            f"faults.{k}": v
            for k, v in (result.summary_trace.faults or {}).items()
        }
        assert faults == {
            k: v for k, v in expected.items() if k.startswith("faults.")
        }
        untraced = spmd_run(program, p, **kwargs).summary_trace.faults
        assert dict(untraced or {}) == dict(result.summary_trace.faults or {})

    def test_only_the_calling_communicators_rank_0_notes_the_schedule(self):
        tracer = Tracer()
        spmd_run(_allreduce_auto_and_named, 8, tracer=tracer)
        noted = {}
        for span in tracer.spans():
            if span.phase == "collective":
                noted.setdefault(span.rank, []).append(span.notes)
        assert noted[0] == [
            {"schedule": "allreduce.recursive_doubling", "radix": 8},
            {"schedule": "allreduce.ring"},
        ]
        assert all(notes == [None, None] for r, notes in noted.items() if r)

    def test_recovery_is_a_leaf_span_per_survivor(self):
        tracer = Tracer()
        spmd_run(_reduce_sum, 8, tracer=tracer, fault_plan=_FAILSTOP)
        spans = [s for s in tracer.spans() if s.name == "recovery"]
        assert sorted(s.rank for s in spans) == [0, 1, 2, 3, 4, 6, 7]
        for span in spans:
            assert span.phase is None and span.duration > 0

    def test_text_report_and_jsonl_carry_the_counts(self):
        tracer = Tracer()
        spmd_run(_iallreduce, 4, tracer=tracer)
        report = format_text_report(tracer)
        assert "counts" in report
        assert "coll.nonblocking.issued" in report
        lines = dumps_jsonl(tracer).splitlines()
        records = [json.loads(line) for line in lines]
        counts = profile_counts(tracer)
        assert records[-1] == {"type": "counts", "counts": counts}
        notes = [r["notes"] for r in records if r["type"] == "span"]
        assert {"request": True} in notes


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
        r0 = RankTracer(0, clock=None)
        r1 = RankTracer(1, clock=None)
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
        assert kinds == {"run", "span", "counts"}
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

    def test_text_report_of_an_overlapped_reduce(self):
        # Each column chunk's accumulate span counts an integer share of
        # the block's rows, so the shares of one rank sum to n and the
        # text report's integer column renders.
        tracer = Tracer()
        spmd_run(_overlapped_reduce, 8, tracer=tracer)
        text = format_text_report(tracer)
        assert "accumulate" in text
        spans = [
            s for s in tracer.runs[0].ranks[0].spans if s.name == "accumulate"
        ]
        assert len(spans) == 8
        assert all(isinstance(s.elements, int) for s in spans)
        cell = phase_summary(tracer)["ops"]["sum"]["accumulate"]
        assert cell["elements"] == 4 * 8 and isinstance(cell["elements"], int)

    def test_no_events_no_profile_raises(self):
        res = spmd_run(_program, 2)
        assert res.profile is None
        with pytest.raises(ValueError, match="pass a tracer"):
            to_chrome_trace(res)


class TestRunRecordWallStamps:
    """A traced engine job's run record is the job node of the tree: it
    carries the attempt's wall-clock queue wait and execution time
    beside the virtual makespan, in the text report and the JSONL."""

    def test_traced_engine_job_carries_its_wall_split(self):
        tracer = Tracer()
        with Engine(4) as eng:
            eng.submit(_program, tracer=tracer).result()
        (run,) = tracer.runs
        assert run.t_admitted <= run.t_started <= run.t_finished
        assert run.exec_s > 0.0 and run.queue_wait_s >= 0.0
        assert run.queue_wait_s + run.exec_s == pytest.approx(run.wall_s)
        (record,) = [
            json.loads(line) for line in dumps_jsonl(tracer).splitlines()
            if json.loads(line)["type"] == "run"
        ]
        assert (record["queue_wait_s"], record["exec_s"], record["wall_s"]) == (
            run.queue_wait_s, run.exec_s, run.wall_s
        )
        line = format_text_report(tracer).splitlines()[1]
        assert "makespan" in line
        assert f"queue_wait_s {run.queue_wait_s:.6f}" in line
        assert f"exec_s {run.exec_s:.6f}" in line
        assert f"wall_s {run.wall_s:.6f}" in line

    def test_an_unsealed_run_reports_no_wall_split(self):
        tracer = Tracer()
        tracer.runs.append(RunCapture(index=0, nprocs=2, ranks=[]))
        run = tracer.runs[0]
        assert run.queue_wait_s is run.exec_s is run.wall_s is None
        record = json.loads(dumps_jsonl(tracer).splitlines()[0])
        assert record["wall_s"] is None
        assert "wall_s" not in format_text_report(tracer)


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
    """Satellite guarantee: with no profile active, the hot paths and the
    engine's submit → dispatch → worker → finalize path build zero run,
    rank-tracer or span objects — the disabled branch is an attribute
    check, not a null object per call, and an untraced job is stamped
    with nothing beyond what the scheduler keeps."""

    @pytest.fixture
    def poisoned(self, monkeypatch):
        """Make every observability constructor raise if reached."""
        from repro.obs import tracer as tracer_mod

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError(
                "observability object constructed with tracing disabled"
            )

        monkeypatch.setattr(tracer_mod.Span, "__init__", boom)
        monkeypatch.setattr(tracer_mod._SpanContext, "__init__", boom)
        monkeypatch.setattr(tracer_mod.RankTracer, "__init__", boom)
        monkeypatch.setattr(tracer_mod.RunCapture, "__init__", boom)

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

    def test_submit_path_is_clean(self, poisoned):
        with Engine(4) as eng:
            handles = [eng.submit(_reduce_job, nprocs=2) for _ in range(4)]
            results = [h.result() for h in handles]
        assert all(res.profile is None for res in results)
        assert len(results) == 4

    def test_spmd_run_compat_shim_is_clean(self, poisoned):
        res = spmd_run(_reduce_job, 4)
        assert res.profile is None and len(res.returns) == 4

    def test_saturated_path_is_clean(self, poisoned):
        gate = threading.Event()
        with Engine(2, queue_depth=1) as eng:
            blocker = eng.submit(lambda comm: gate.wait(10.0), nprocs=2)
            eng.submit(_reduce_job, nprocs=2, block=False)
            with pytest.raises(EngineSaturated):
                eng.submit(_reduce_job, nprocs=2, block=False)
            gate.set()
            blocker.result()
            assert eng.stats()["rejected"] == 1


def _reduce_job(comm):
    return global_reduce(comm, SumOp(), np.arange(8.0) + comm.rank)
