"""Acceptance grid: ``backend="process"`` is byte-identical to the
threaded oracle.

The process backend offloads accumulate folds to forked rank workers
over shared-memory frames; nothing user-visible may depend on that.
For every public operator (the chaos catalogue covers each exactly
once) at nprocs in {4, 8, 16}, both a reduction and a scan must produce
identical per-rank results, per-rank final virtual times and message
counts on both backends — including under a lossy fault plan, where the
reliable-delivery layer's virtual-time arithmetic sits between the
accumulate charges being compared.

The process engines force offload (``MIN_OFFLOAD_BYTES`` patched to 0)
so the grid exercises the IPC path for every payload the catalogue
generates — ndarray frames, pickled lists of tuples, and the inline
fallback for the unpicklable segmented lambda.  Folds whose kernel is
elementwise (11 of the catalogue's 31 operators) are one
``ufunc.reduce`` and are never offered to a worker; the other 20 are.
"""

import pickle
import random

import numpy as np
import pytest

from repro.core.fusion import global_reduce_many
from repro.core.operator import state_equal
from repro.core.reduce import global_reduce
from repro.core.scan import global_scan
from repro.engine import Engine
from repro.faults.chaos import CHAOS_CASES
from repro.faults.plan import random_plan
from repro.ops import MaxKOp, MeanVarOp, MinKOp, SumOp
from repro.runtime import procworld

SIZES = (4, 8, 16)
N_PER_RANK = 5

#: Force offload of even tiny blocks, on small rings: the grid's point
#: is IPC-path coverage, not wall-clock.
PROC_CONSTANTS = {"MIN_OFFLOAD_BYTES": 0, "RING_BYTES": 1 << 20}


def reduce_program(comm, case, shards):
    return global_reduce(comm, case.make_op(), shards[comm.rank])


def scan_program(comm, case, shards):
    return global_scan(comm, case.make_op(), shards[comm.rank])


def _shards(case, nprocs):
    return [
        case.make_data(random.Random(1000 * nprocs + r), N_PER_RANK)
        for r in range(nprocs)
    ]


@pytest.fixture(scope="module")
def engines():
    pool = {}
    with pytest.MonkeyPatch.context() as patch:
        for name, value in PROC_CONSTANTS.items():
            patch.setattr(procworld, name, value)
        try:
            for n in SIZES:
                pool[n] = (Engine(n), Engine(n, backend="process"))
            yield pool
        finally:
            for thread_eng, proc_eng in pool.values():
                thread_eng.shutdown(drain=False)
                proc_eng.shutdown(drain=False)


def _assert_identical(case, program, nprocs, engines, fault_plan=None):
    shards = _shards(case, nprocs)
    thread_eng, proc_eng = engines[nprocs]
    kw = dict(args=(case, shards), label=case.name, fault_plan=fault_plan)
    baseline = thread_eng.submit(program, **kw).result()
    via_proc = proc_eng.submit(program, **kw).result()

    for g in range(nprocs):
        assert state_equal(via_proc.returns[g], baseline.returns[g]), (
            f"{case.name} rank {g}: {via_proc.returns[g]!r} != "
            f"{baseline.returns[g]!r}"
        )
    assert via_proc.clocks == baseline.clocks
    assert via_proc.time == baseline.time
    assert via_proc.summary_trace.n_sends == baseline.summary_trace.n_sends
    assert [t.n_sends for t in via_proc.traces] == [
        t.n_sends for t in baseline.traces
    ]


@pytest.mark.parametrize("nprocs", SIZES)
@pytest.mark.parametrize("case", CHAOS_CASES, ids=lambda c: c.name)
def test_reduce_identity(case, nprocs, engines):
    _assert_identical(case, reduce_program, nprocs, engines)


@pytest.mark.parametrize("nprocs", SIZES)
@pytest.mark.parametrize(
    "case",
    [c for c in CHAOS_CASES if c.scan],
    ids=lambda c: c.name,
)
def test_scan_identity(case, nprocs, engines):
    _assert_identical(case, scan_program, nprocs, engines)


@pytest.mark.parametrize("nprocs", (4, 8))
@pytest.mark.parametrize(
    "case", CHAOS_CASES[:8], ids=lambda c: c.name
)
def test_reduce_identity_lossy(case, nprocs, engines):
    """Byte-identity must survive a lossy link plan: drops, dups,
    reorders and a straggler all interleave virtual-time charges with
    the accumulate charge the backends must agree on."""
    plan = random_plan(
        7000 + nprocs, nprocs, failstop=False, lossy=True, stragglers=True
    )
    assert plan.lossy
    _assert_identical(case, reduce_program, nprocs, engines, fault_plan=plan)


class RowLoopSumOp(SumOp):
    """``SumOp`` folding row by row in Python: its own block method makes
    it a segmented kernel — a fold that holds the GIL — while it still
    qualifies for the overlapped pipeline (elementwise, default hooks)."""

    def accum_block(self, state, values):
        for row in np.asarray(values):
            state = state + row
        return state


def fused_program(comm):
    x = np.arange(20_000, dtype=np.int64) * (comm.rank + 1)
    return global_reduce_many(
        comm, [(MinKOp(10), x), (MaxKOp(10), x), (MeanVarOp(), x)]
    )


def overlapped_program(comm, op=RowLoopSumOp):
    block = np.random.default_rng(comm.rank).standard_normal((4, 65536))
    return global_reduce(comm, op(), block)  # pipelined: 8 column chunks


def _both_backends(program, engines, **kw):
    """Run on the 4-rank pair; the bytes, clocks and sends must match.
    Returns how many frames the process engine moved for it."""
    thread_eng, proc_eng = engines[4]
    frames_before = proc_eng.stats()["ipc"]["frames"]
    baseline = thread_eng.submit(program, **kw).result()
    via_proc = proc_eng.submit(program, **kw).result()
    assert pickle.dumps(via_proc.returns) == pickle.dumps(baseline.returns)
    assert via_proc.clocks == baseline.clocks
    assert via_proc.summary_trace.n_sends == baseline.summary_trace.n_sends
    return proc_eng.stats()["ipc"]["frames"] - frames_before


@pytest.mark.parametrize("program", [fused_program, overlapped_program])
def test_every_entry_point_offers_its_folds(program, engines):
    """The fused and the overlapped drivers accumulate through the same
    body as the plain reduce, so their folds reach the workers too —
    and come back as the thread backend's bytes."""
    folds = {fused_program: 3, overlapped_program: 8}[program]
    assert _both_backends(program, engines) == 2 * folds * 4


def test_elementwise_fold_stays_inline(engines):
    """A float64 ``SumOp`` fold is one ``ufunc.reduce``, which releases
    the GIL by itself: offering it to a worker only added the round trip
    (EX-BACKEND), so it moves no frame — at any size, even with the
    threshold forced to zero — and returns the thread backend's bytes."""
    assert _both_backends(overlapped_program, engines, args=(SumOp,)) == 0


def test_grid_actually_offloaded(engines):
    """Guard against the grid silently passing because every request
    missed: the process engines must report real IPC traffic, both
    zero-copy ndarray frames and pickled-list fallbacks."""
    # Drive one ndarray-heavy job through each size first, so this test
    # is order-independent.
    def nd_job(comm):
        data = np.arange(4096, dtype=np.float64) + comm.rank
        return global_reduce(comm, MinKOp(3), data)

    totals = {"frames": 0, "shm_hits": 0, "pickle_fallbacks": 0}
    for n in SIZES:
        proc_eng = engines[n][1]
        proc_eng.submit(nd_job).result()
        stats = proc_eng.stats()
        assert stats["backend"] == "process"
        for key in totals:
            totals[key] += stats["ipc"][key]
    assert totals["frames"] > 0
    assert totals["shm_hits"] > 0, "no zero-copy frame ever crossed"


def test_thread_engine_reports_backend(engines):
    stats = engines[4][0].stats()
    assert stats["backend"] == "thread"
    assert stats["ipc"] is None
