"""EX-HIER — flat vs hierarchical allreduce on multi-tier fabrics.

The fabric layer (``repro.runtime.fabric``, docs/topology.md) prices
every message by the network tiers it crosses: intra-node links are
~10x faster than the inter-node tier.  The flat collective schedules
are blind to this — recursive doubling and Rabenseifner send a large
fraction of their traffic across the slow tier.  The hierarchical
allreduce (``algorithm="hierarchical"``,
``repro.mpi.collectives.allreduce_hierarchical_plan``) restructures the
communication around the node boundary: combine inside each node first,
cross the slow tier once per node (and, for splittable payloads, in
parallel segment columns), then redistribute on the fast tier.

Sweeps rank counts {16, 32, 64} x ranks-per-node {2, 4, 8} x payload
sizes, measuring the virtual makespan of every flat allreduce schedule
in the registry against the fabric-only one on the same fabric.  (The
hierarchical *scan* that used to share this grid lost to the flat
binomial scan on all 27 of its cells and was removed; EXPERIMENTS.md
EX-HIER keeps the record.)

The claims, checked by :func:`check` here and on the acceptance cell
alone in ``tests/test_topology_fabric.py``:

* on ``multi_node(ranks_per_node=4)`` at >= 16 ranks the hierarchical
  allreduce beats every flat schedule for >= 1 MiB payloads;
* ``algorithm="auto"`` with a topology-fitted decision table selects
  the hierarchical schedule there (same makespan and message count as
  asking for it explicitly);
* every schedule, flat or hierarchical, returns the exact sum on every
  rank of every cell (asserted as each cell is recorded).

All numbers are virtual seconds under the default cost model, so the
table is exactly reproducible on any host.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_result
from repro.analysis import format_table
from repro.mpi import tuning as _tuning
from repro.mpi.collectives import schedules
from repro.mpi.op import SUM
from repro.runtime import spmd_run
from repro.runtime.fabric import multi_node

RANK_GRID = (16, 32, 64)
RANKS_PER_NODE_GRID = (2, 4, 8)
PAYLOAD_GRID = (8 * 1024, 256 * 1024, 1 << 20)  # 8 KiB .. 1 MiB
LARGE_PAYLOAD = 1 << 20

#: The fabric-only schedule under test, and the flat ones it must beat.
(HIER,) = (s.name for s in schedules("allreduce") if s.groups)
ALLREDUCE_FLAT = _tuning.candidates("allreduce")


def _allreduce_prog(n_elems, algorithm):
    def prog(comm):
        arr = np.ones(n_elems, dtype=np.float64) * (comm.rank + 1)
        return comm.allreduce(arr, SUM, algorithm=algorithm)

    return prog


def _cell(nprocs, rpn, nbytes) -> dict[str, float]:
    """Virtual makespan of every schedule on one grid cell.  Every
    schedule must hand every rank the exact sum: the addends are small
    integers, so float64 rounding cannot hide a wrong segment."""
    n_elems = max(nprocs, nbytes // 8)
    topo = multi_node(rpn)
    expected = np.full(n_elems, nprocs * (nprocs + 1) / 2)
    times = {}
    for algo in ALLREDUCE_FLAT + (HIER,):
        res = spmd_run(_allreduce_prog(n_elems, algo), nprocs, topology=topo)
        for rank, out in enumerate(res.returns):
            np.testing.assert_array_equal(
                out, expected, err_msg=f"{algo}, rank {rank}, cell "
                f"{(nprocs, rpn, nbytes)}",
            )
        times[algo] = res.time
    return times


def fitted_auto(nprocs=16, rpn=4, nbytes=LARGE_PAYLOAD) -> tuple[str, bool]:
    """Fit a decision table on ``multi_node(rpn)`` and return (the
    schedule it picks for this allreduce, whether ``algorithm="auto"``
    under it runs with the explicit hierarchical run's makespan and
    message count).  The tuning registry is restored afterwards."""
    topo = multi_node(rpn)
    table, _report = _tuning.fit_decision_table(
        rank_grid=(nprocs,),
        payload_grid=(4096, 65536, nbytes),
        topology=topo,
    )
    choice = _tuning.choose_allreduce(
        nbytes, nprocs, commutative=True, splittable=True, table=table,
    )
    _tuning.set_decision_table(table)
    try:
        auto, explicit = (
            spmd_run(_allreduce_prog(nbytes // 8, algo), nprocs, topology=topo)
            for algo in ("auto", HIER)
        )
    finally:
        _tuning.set_decision_table(None, topology=topo.signature)
    return choice, (
        auto.time == explicit.time
        and auto.summary_trace.n_sends == explicit.summary_trace.n_sends
    )


def record(rank_grid=RANK_GRID, rpn_grid=RANKS_PER_NODE_GRID,
           payload_grid=PAYLOAD_GRID):
    """({(p, ranks per node, bytes): {schedule: seconds}}, fitted_auto())."""
    cells = {
        (p, rpn, nbytes): _cell(p, rpn, nbytes)
        for p in rank_grid
        for rpn in rpn_grid
        for nbytes in payload_grid
    }
    return cells, fitted_auto()


def _best_flat(times: dict[str, float]) -> str:
    return min(ALLREDUCE_FLAT, key=times.get)


def check(cells, auto) -> None:
    gate = [
        key for key in cells
        if key[0] >= 16 and key[1] == 4 and key[2] >= LARGE_PAYLOAD
    ]
    assert gate, "grid is missing the acceptance cell (16 ranks, rpn=4, 1 MiB)"
    for key in gate:
        t = cells[key]
        assert t[HIER] < t[_best_flat(t)], (key, t)
    assert auto == (HIER, True), auto


def test_hierarchical_vs_flat_allreduce(results_dir):
    cells, auto = record()
    rows = []
    for (p, rpn, nbytes), t in cells.items():
        flat = _best_flat(t)
        rows.append([
            p, rpn, nbytes // 1024, f"{t[HIER]:.3e}", flat,
            f"{t[flat]:.3e}", f"{t[flat] / t[HIER]:.2f}",
        ])
    table = format_table(
        ["p", "ranks/node", "KiB", "hierarchical", "best flat",
         "t best flat", "speedup"],
        rows,
        title="EX-HIER — allreduce on multi_node fabrics, virtual seconds",
    )
    choice, matches = auto
    write_result(
        results_dir, "hierarchy.txt",
        f"{table}\nauto under a table fitted on multi_node:4 (16 ranks, "
        f"1 MiB): {choice!r}, same makespan and messages as explicit: "
        f"{matches}",
    )
    check(cells, auto)
