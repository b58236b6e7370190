"""EX-SCANOH — the abstraction is free (extension ablation).

The paper's RSMPI discussion asserts "it is always possible to write MPI
that is as fast as RSMPI" — the abstraction adds convenience, not cost.
This ablation checks the converse direction for our implementation: the
global-view scan driver (Listing 3) must cost the same as hand-written
local-view code doing exactly what it does — local accumulate, one
exscan of the partials, local generate pass.

If these ever diverge, the driver has grown overhead the paper's design
does not license.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import PROC_GRID, write_result
from repro import mpi
from repro.analysis import format_table
from repro.core import global_scan
from repro.localview import LOCAL_XSCAN
from repro.ops import SumOp
from repro.runtime import spmd_run

N = 1 << 20  # total elements


def _blocks(p):
    whole = np.arange(N, dtype=np.float64)
    bounds = [r * N // p for r in range(p + 1)]
    return [whole[bounds[r] : bounds[r + 1]] for r in range(p)]


def _globalview_time(p, cost_model):
    blocks = _blocks(p)

    def prog(comm):
        return global_scan(
            comm, SumOp(0.0), blocks[comm.rank], accum_rate="np_check"
        )[-1]

    return spmd_run(prog, p, cost_model=cost_model).time


def _handwritten_time(p, cost_model):
    """The local-view chore: what RSMPI generates, written by hand."""
    blocks = _blocks(p)

    def prog(comm):
        local = blocks[comm.rank]
        partial = float(local.sum())  # accumulate phase by hand
        comm.charge_elements("np_check", len(local), "hand:accum")
        prefix = LOCAL_XSCAN(comm, lambda: 0.0, mpi.SUM, partial)
        out = prefix + np.cumsum(local)  # generate phase by hand
        comm.charge_elements("np_check", len(local), "hand:gen")
        return out[-1]

    return spmd_run(prog, p, cost_model=cost_model).time


def test_scan_abstraction_overhead(cost_model, results_dir):
    rows = [
        (p, _globalview_time(p, cost_model), _handwritten_time(p, cost_model))
        for p in PROC_GRID
    ]
    table = format_table(
        ["p", "global-view", "hand-written", "overhead"],
        [[p, f"{gv:.3e}", f"{hw:.3e}", f"{gv / hw - 1:.1%}"] for p, gv, hw in rows],
        title=f"EX-SCANOH — global-view scan vs hand-written local-view "
        f"({N} doubles, SUM)",
    )
    write_result(results_dir, "scan_abstraction_overhead.txt", table)

    # results identical, virtual times within 10% at every p
    for p, gv, hw in rows:
        assert abs(gv - hw) / hw < 0.10, (p, gv, hw)
