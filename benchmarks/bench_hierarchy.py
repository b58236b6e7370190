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

This ablation sweeps rank counts {16, 32, 64} x ranks-per-node
{2, 4, 8} x payload sizes, measuring the **virtual makespan** of every
flat allreduce schedule in the registry against the fabric-only one on
the same fabric, and writes ``results/BENCH_hierarchy.json``.  (The
hierarchical *scan* that used to share this grid lost to the flat
binomial scan on all 27 of its cells and was removed; EXPERIMENTS.md
EX-HIER keeps the record.)

Acceptance (ISSUE 10), asserted by ``--smoke`` (the CI topology-smoke
job) and the full run alike:

* on ``multi_node(ranks_per_node=4)`` at 16 ranks the hierarchical
  allreduce beats the flat ring — and every other flat algorithm —
  for >= 1 MiB payloads;
* ``algorithm="auto"`` with a topology-fitted decision table selects
  the hierarchical schedule there (same makespan and message count as
  asking for it explicitly).

Run standalone::

    PYTHONPATH=src:. python benchmarks/bench_hierarchy.py [--smoke]

All numbers are virtual seconds from the deterministic simulator, so
results are exactly reproducible on any host.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from repro.mpi import tuning as _tuning
from repro.mpi.collectives import schedules
from repro.mpi.op import SUM
from repro.runtime import spmd_run
from repro.runtime.fabric import multi_node
from repro.runtime.costmodel import CostModel

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


def _cell(nbytes, nprocs, ranks_per_node):
    """Virtual makespans of every schedule for one grid cell."""
    n_elems = max(nprocs, nbytes // 8)
    topo = multi_node(ranks_per_node)
    times = {}
    for algo in ALLREDUCE_FLAT + (HIER,):
        times[algo] = spmd_run(
            _allreduce_prog(n_elems, algo), nprocs, topology=topo
        ).time
    best_flat = min(ALLREDUCE_FLAT, key=times.get)
    return {
        "kind": "allreduce",
        "nprocs": nprocs,
        "ranks_per_node": ranks_per_node,
        "nbytes": nbytes,
        "times": times,
        "best_flat": best_flat,
        "hierarchical_speedup_vs_best_flat": times[best_flat] / times[HIER],
        "hierarchical_speedup_vs_ring": times["ring"] / times[HIER],
    }


def run_grid(rank_grid, rpn_grid, payload_grid):
    return [
        _cell(nbytes, nprocs, rpn)
        for nprocs in rank_grid
        for rpn in rpn_grid
        for nbytes in payload_grid
    ]


def check_auto_selects_hierarchical(nbytes=LARGE_PAYLOAD, nprocs=16, rpn=4):
    """Fit a per-fabric decision table and prove ``algorithm="auto"``
    routes the large-payload allreduce to the hierarchical schedule.

    Returns the evidence dict; restores the tuning registry afterwards
    so the ambient flat behavior is untouched.
    """
    topo = multi_node(rpn)
    sig = topo.signature
    table, _report = _tuning.fit_decision_table(
        rank_grid=(nprocs,),
        payload_grid=(4096, 65536, nbytes),
        topology=topo,
    )
    fitted_choice = _tuning.choose_allreduce(
        nbytes, nprocs, commutative=True, splittable=True,
        table=table,
    )
    n_elems = nbytes // 8
    _tuning.set_decision_table(table)
    try:
        auto = spmd_run(
            _allreduce_prog(n_elems, "auto"), nprocs, topology=topo
        )
        explicit = spmd_run(
            _allreduce_prog(n_elems, HIER), nprocs, topology=topo
        )
    finally:
        _tuning.set_decision_table(None, topology=sig)
    return {
        "topology": sig,
        "nprocs": nprocs,
        "nbytes": nbytes,
        "fitted_choice": fitted_choice,
        "auto_makespan": auto.time,
        "explicit_hierarchical_makespan": explicit.time,
        "auto_msgs": auto.summary_trace.n_sends,
        "explicit_msgs": explicit.summary_trace.n_sends,
        "auto_matches_explicit": (
            auto.time == explicit.time
            and auto.summary_trace.n_sends == explicit.summary_trace.n_sends
        ),
    }


def assert_acceptance(cells, auto_evidence):
    """The CI-enforced claims (raise AssertionError with evidence)."""
    gate = [
        c
        for c in cells
        if c["nprocs"] >= 16
        and c["ranks_per_node"] == 4
        and c["nbytes"] >= LARGE_PAYLOAD
    ]
    assert gate, "grid is missing the acceptance cell (16 ranks, rpn=4, 1 MiB)"
    for c in gate:
        t = c["times"]
        assert t[HIER] < t["ring"], (
            f"hierarchical ({t[HIER]:.3e}s) does not beat the "
            f"flat ring ({t['ring']:.3e}s) at {c['nprocs']} ranks, "
            f"{c['nbytes']} B on multi_node:4"
        )
        assert t[HIER] < t[c["best_flat"]], (
            f"hierarchical ({t[HIER]:.3e}s) does not beat the "
            f"best flat schedule {c['best_flat']} "
            f"({t[c['best_flat']]:.3e}s) at {c['nprocs']} ranks, "
            f"{c['nbytes']} B on multi_node:4"
        )
    assert auto_evidence["fitted_choice"] == HIER, auto_evidence
    assert auto_evidence["auto_matches_explicit"], auto_evidence


def render(cells, auto_evidence) -> str:
    lines = ["flat vs hierarchical allreduce (virtual seconds)"]
    for c in cells:
        t = c["times"]
        lines.append(
            f"  {c['kind']:<9} p={c['nprocs']:<3} rpn={c['ranks_per_node']} "
            f"{c['nbytes'] // 1024:>5} KiB: "
            f"hier {t[HIER]:.3e}s vs best-flat "
            f"{c['best_flat']} {t[c['best_flat']]:.3e}s "
            f"({c['hierarchical_speedup_vs_best_flat']:.2f}x)"
        )
    ev = auto_evidence
    lines.append(
        f"  auto on fitted {ev['topology']}: chose "
        f"{ev['fitted_choice']!r}, makespan matches explicit "
        f"hierarchical: {ev['auto_matches_explicit']}"
    )
    return "\n".join(lines)


def measure(smoke: bool) -> dict:
    if smoke:
        cells = run_grid((16,), (4,), (LARGE_PAYLOAD,))
    else:
        cells = run_grid(RANK_GRID, RANKS_PER_NODE_GRID, PAYLOAD_GRID)
    auto_evidence = check_auto_selects_hierarchical()
    cm = CostModel()
    return {
        "mode": "smoke" if smoke else "full",
        "cost_model": {
            "latency": cm.latency,
            "byte_time": cm.byte_time,
        },
        "grid": cells,
        "auto_selection": auto_evidence,
    }


class TestHierarchyBench:
    def test_hierarchical_beats_flat_on_acceptance_cell(self, results_dir):
        m = measure(smoke=True)
        assert_acceptance(m["grid"], m["auto_selection"])
        (results_dir / "BENCH_hierarchy_smoke.json").write_text(
            json.dumps(m, indent=2) + "\n"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="only the acceptance cell (16 ranks, 4 ranks/node, 1 MiB) "
        "plus the fitted-auto check (CI topology smoke)",
    )
    args = parser.parse_args()

    m = measure(args.smoke)
    print(render(m["grid"], m["auto_selection"]))
    assert_acceptance(m["grid"], m["auto_selection"])

    results = Path(__file__).resolve().parent.parent / "results"
    results.mkdir(exist_ok=True)
    suffix = "_smoke" if args.smoke else ""
    (results / f"BENCH_hierarchy{suffix}.json").write_text(
        json.dumps(m, indent=2) + "\n"
    )
    (results / f"hierarchy{suffix}.txt").write_text(
        render(m["grid"], m["auto_selection"]) + "\n"
    )
    print(
        f"PASS: hierarchical beats flat on the acceptance cell; "
        f"auto selects it on a fitted fabric "
        f"(results/BENCH_hierarchy{suffix}.json)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
