"""EX-FANOUT — combining-tree fan-out for commutative operators (§1).

"If the branching factor on the log tree is greater than two (common for
many parallel machines), then reductions of commutative operators can
immediately combine whichever partial results are available whereas
reductions on non-commutative operators must stick to a predefined
order."

Sweeps the fan-out of the commutative combine tree at several processor
counts and payload sizes, reporting simulated reduction time.  Wider
trees trade tree depth (fewer rounds of latency) against serialization
at the parent (more receives per node); with per-combine cost attached,
the sweet spot moves — which is the ablation's point.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_result
from repro import mpi
from repro.analysis import format_table
from repro.runtime import spmd_run

PROCS = [16, 64]
FANOUTS = [2, 4, 8, 16]
PAYLOAD = 64  # doubles


def _reduce_time(p, fanout, cost_model, combine_seconds=0.0):
    def prog(comm):
        comm.reduce(
            np.full(PAYLOAD, float(comm.rank)),
            mpi.SUM,
            root=0,
            fanout=fanout,
            combine_seconds=combine_seconds,
        )

    return spmd_run(prog, p, cost_model=cost_model).time


def record(cost_model) -> list[tuple[int, int, float, float]]:
    """(p, fanout, t with free combines, t with 20 µs combines)."""
    return [
        (p, fanout, _reduce_time(p, fanout, cost_model),
         _reduce_time(p, fanout, cost_model, combine_seconds=2e-5))
        for p in PROCS
        for fanout in FANOUTS
    ]


def check(rows) -> None:
    by = {(p, f): (cheap, costly) for p, f, cheap, costly in rows}
    # With cheap combines, a wider tree (fewer latency rounds) helps at
    # p=64: fanout 8 beats binary.
    assert by[(64, 8)][0] < by[(64, 2)][0]
    # With costly combines, extreme fan-out serializes the root's
    # combine work: fanout 16 must be worse than fanout 2 at p=16
    # (15 serialized combines vs 4 parallelizable rounds).
    assert by[(16, 16)][1] > by[(16, 2)][1]


def test_fanout_tradeoff(cost_model, results_dir):
    rows = record(cost_model)
    table = format_table(
        ["p", "fanout", "t (cheap combine)", "t (costly combine)"],
        [[p, f, f"{cheap:.3e}", f"{costly:.3e}"] for p, f, cheap, costly in rows],
        title="EX-FANOUT — commutative SUM reduce, k-ary combine-as-available "
        "tree",
    )
    write_result(results_dir, "ablation_tree_fanout.txt", table)
    check(rows)
