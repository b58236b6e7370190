"""EX-FUSION — bucketed fusion and nonblocking overlap of concurrent
reductions (extension).

The paper's aggregation argument (§2.1) batches many values into one
reduction *of one operator*.  Bucketed fusion generalizes it across
operators and call sites: K reductions issued together share combine
waves, and the nonblocking request layer overlaps whatever cannot fuse.
This benchmark measures both levers on K=8 concurrent small reductions
— the shape of a solver's per-iteration diagnostics block — plus the
chunked accumulate/combine pipeline on one large reduction.

Acceptance floor (CI perf smoke): at 16 ranks, fused must cut the
virtual makespan by >= 25% and the message count by >= 2x versus
sequential blocking calls.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import PROC_GRID, write_result
from repro.analysis import Series, format_series_csv, format_table
from repro.core.fusion import global_reduce_many
from repro.core.reduce import global_reduce
from repro.mpi import waitall
from repro.ops import MaxOp, MinOp, SumOp
from repro.runtime import spmd_run

K = 8  # concurrent reductions per round
N_LOCAL = 64  # elements per rank per reduction (latency-bound regime)
ROUNDS = 4


def _ops():
    return [SumOp(), MaxOp(), MinOp(), SumOp(), MaxOp(), MinOp(),
            SumOp(), MaxOp()][:K]


def _data(rank: int):
    rng = np.random.default_rng(31337 + rank)
    return [rng.standard_normal(N_LOCAL) for _ in range(K)]


def _sequential(comm):
    data = _data(comm.rank)
    out = []
    for _ in range(ROUNDS):
        out = [
            global_reduce(comm, op, d) for op, d in zip(_ops(), data)
        ]
    return out


def _fused(comm):
    data = _data(comm.rank)
    out = []
    for _ in range(ROUNDS):
        out = global_reduce_many(comm, list(zip(_ops(), data)))
    return out


def _nonblocking(comm):
    from repro.core.reduce import accumulate_local, wire_op

    data = _data(comm.rank)
    out = []
    for _ in range(ROUNDS):
        ops = _ops()
        states = [
            accumulate_local(comm, op, d) for op, d in zip(ops, data)
        ]
        reqs = [
            comm.iallreduce(s, wire_op(op)) for s, op in zip(states, ops)
        ]
        out = [
            op.red_gen(total) for op, total in zip(ops, waitall(reqs))
        ]
    return out


VARIANTS = {
    "sequential blocking": _sequential,
    "nonblocking overlap": _nonblocking,
    "bucketed fusion": _fused,
}


def _run(fn, p, cost_model):
    return spmd_run(fn, p, cost_model=cost_model, timeout=600)


def test_fusion_k8_makespan_and_messages(cost_model, results_dir):
    """The headline numbers: K=8 concurrent reductions at 16 ranks."""
    seq, nonblk, fused = runs = [
        _run(fn, 16, cost_model) for fn in VARIANTS.values()
    ]

    # all three paths produce identical results
    for a, b, c in zip(seq.returns, fused.returns, nonblk.returns):
        for x, y, z in zip(a, b, c):
            assert np.array_equal(x, y) and np.array_equal(x, z)

    table = format_table(
        ["variant", "makespan", "sends", "vs seq"],
        [[name, f"{r.time:.3e}", r.summary_trace.n_sends,
          f"{seq.time / r.time:.2f}x"]
         for name, r in zip(VARIANTS, runs)],
        title=f"EX-FUSION — K={K} concurrent reductions, 16 ranks, "
        f"{ROUNDS} rounds, n_local={N_LOCAL}",
    )
    write_result(results_dir, "fusion_overlap.txt", table)

    # acceptance floor: >=25% makespan cut, >=2x fewer messages
    assert fused.time <= 0.75 * seq.time
    assert fused.summary_trace.n_sends * 2 <= seq.summary_trace.n_sends
    # nonblocking-without-fusion also beats sequential (overlap alone)
    assert nonblk.time < seq.time


def test_fusion_scaling_sweep(cost_model, results_dir):
    """Makespan of the K=8 block across the processor grid."""
    seq, nonblk, fused = series = [Series(name) for name in VARIANTS]
    for p in PROC_GRID:
        for s, fn in zip(series, VARIANTS.values()):
            s.add(p, _run(fn, p, cost_model).time)

    rows = [
        [p, f"{t_s:.3e}", f"{t_n:.3e}", f"{t_f:.3e}",
         f"{t_s / t_f:.2f}x" if t_f > 0 else "-"]  # p=1: no communication
        for p, t_s, t_n, t_f in zip(seq.procs, seq.times, nonblk.times, fused.times)
    ]
    table = format_table(
        ["p", "sequential", "nonblocking", "fused", "fuse gain"], rows,
        title=f"EX-FUSION — K={K} reductions x {ROUNDS} rounds, varying p",
    )
    write_result(results_dir, "fusion_scaling.txt", table)
    write_result(results_dir, "fusion_scaling.csv", format_series_csv(series))
    # fusion's advantage grows with p (log-depth latency dominates)
    for p, t_s, t_f in zip(seq.procs, seq.times, fused.times):
        if p >= 4:
            assert t_f < t_s


def test_chunked_overlap_pipeline(cost_model, results_dir):
    """One large elementwise reduction: the accumulate/combine pipeline
    (``overlap="auto"``) versus the phase-sequential path."""
    n_rows, n_cols = 48, 1 << 15  # 256 KiB state per rank

    def body(overlap):
        def prog(comm):
            rng = np.random.default_rng(9000 + comm.rank)
            vals = rng.standard_normal((n_rows, n_cols))
            return global_reduce(
                comm, SumOp(), vals,
                accum_rate="np_check", overlap=overlap,
            )
        return prog

    off = Series("phase-sequential")
    auto = Series("chunked overlap")
    for p in [2, 4, 8, 16]:
        r_off = spmd_run(body("off"), p, cost_model=cost_model, timeout=600)
        r_auto = spmd_run(body("auto"), p, cost_model=cost_model, timeout=600)
        for a, b in zip(r_off.returns, r_auto.returns):
            assert np.array_equal(a, b)
        off.add(p, r_off.time)
        auto.add(p, r_auto.time)

    table = format_table(
        ["p", "sequential", "overlapped", "gain"],
        [[p, f"{t_off:.3e}", f"{t_auto:.3e}", f"{t_off / t_auto:.2f}x"]
         for p, t_off, t_auto in zip(off.procs, off.times, auto.times)],
        title=f"EX-FUSION — chunked accumulate/combine overlap, "
        f"{n_rows}x{n_cols} float64 per rank",
    )
    write_result(results_dir, "chunked_overlap.txt", table)
    write_result(results_dir, "chunked_overlap.csv", format_series_csv([off, auto]))
    for t_off, t_auto in zip(off.times, auto.times):
        assert t_auto < t_off
