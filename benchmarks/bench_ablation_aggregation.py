"""EX-AGG — aggregation (paper §2.1): one aggregated reduction of k
values vs k scalar reductions.

"Aggregation is an important extension to the local-view reduction.  It
allows the programmer to compute multiple reductions simultaneously,
thus saving the overhead of many smaller messages."

Sweeps k and reports simulated time and message counts for both idioms.
:func:`check` pins the claim: k scalar reductions send exactly k times
the messages of one, while the aggregated reduction's message count
stays bounded whatever k is (``auto`` picks its schedule and fan-out by
payload size, so the count moves between schedules but does not grow
with k), and the aggregated form wins by a factor that grows with k.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_result
from repro import mpi
from repro.analysis import format_table
from repro.localview import LOCAL_ALLREDUCE
from repro.runtime import spmd_run

P = 16
KS = [1, 4, 16, 64, 256, 1024]


def record(cost_model, ks=KS) -> list[tuple[int, float, float, int, int]]:
    """(k, t_agg, t_scalar, sends_agg, sends_scalar)."""
    rows = []
    for k in ks:
        def aggregated(comm):
            LOCAL_ALLREDUCE(comm, mpi.SUM, np.ones(k))

        def scalarized(comm):
            for _ in range(k):
                LOCAL_ALLREDUCE(comm, mpi.SUM, 1.0)

        agg = spmd_run(aggregated, P, cost_model=cost_model)
        sca = spmd_run(scalarized, P, cost_model=cost_model)
        rows.append((k, agg.time, sca.time,
                     agg.summary_trace.n_sends, sca.summary_trace.n_sends))
    return rows


def check(rows) -> None:
    by_k = {k: (ta, ts, ma, ms) for k, ta, ts, ma, ms in rows}
    t1a, t1s, m1a, m1s = by_k[1]
    # messages: k scalar reductions send exactly k times one's messages;
    # one aggregated reduction's count does not grow with k.
    for k, (_, _, ma, ms) in by_k.items():
        assert ms == k * m1s, (k, ms, m1s)
        assert ma <= 2 * m1a, (k, ma, m1a)
    # time: the win grows with k and is large by k=64
    ratios = [ts / ta for _, ta, ts, _, _ in rows]
    assert all(a < b for a, b in zip(ratios, ratios[1:])), ratios
    assert by_k[64][1] / by_k[64][0] > 10
    # k=1 degenerates to (roughly) the same cost
    assert abs(t1a - t1s) / max(t1a, t1s) < 0.2


def test_aggregation_beats_scalar_reductions(cost_model, results_dir):
    rows = record(cost_model)
    table = format_table(
        ["k", "t_agg", "t_scalar", "ratio", "msgs_agg", "msgs_scal"],
        [[k, f"{ta:.3e}", f"{ts:.3e}", f"{ts / ta:.1f}", ma, ms]
         for k, ta, ts, ma, ms in rows],
        title=f"EX-AGG — aggregated vs scalarized allreduce (p={P})",
    )
    write_result(results_dir, "ablation_aggregation.txt", table)
    check(rows)
