"""Fitting the decision table: the cold half of :mod:`repro.mpi.tuning`.

``python -m repro tune`` and :func:`fit_decision_table` simulate every
candidate schedule (and radix) on a grid of rank counts and payload
sizes and derive the byte thresholds from the measured winners — a pure
function of cost model, grid and fabric.  None of it runs when a job
merely *looks up* a decision, so it lives apart from the lookup module;
``tuning`` forwards ``fit_decision_table`` and the two default grids
here on first use.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Sequence

import numpy as np

from repro.mpi import collectives as _coll
from repro.mpi.op import SUM
from repro.mpi.tuning import (
    _UNBOUNDED,
    FUSION_CANDIDATES,
    RADIX_CANDIDATES,
    RADIX_SCHEDULES,
    TUNED_KINDS,
    Band,
    DecisionTable,
    _fanout_byte_limit,
    candidates,
)
from repro.runtime.costmodel import CostModel
from repro.runtime.executor import spmd_run

__all__ = ["DEFAULT_PAYLOAD_GRID", "DEFAULT_RANK_GRID", "fit_decision_table"]

#: Default payload sweep for fitting: 8 B to 4 MiB in powers of 4.
DEFAULT_PAYLOAD_GRID = tuple(8 * 4**k for k in range(10))
DEFAULT_RANK_GRID = (4, 8, 16, 32)


def _simulate(
    kind: str, algorithm: str, nbytes: int, nprocs: int, cost_model,
    topology=None,
):
    """Virtual makespan of one collective call under ``cost_model`` (and
    optionally a non-flat fabric ``topology``)."""
    n = max(nprocs, nbytes // 8)

    def prog(comm):
        arr = np.zeros(n, dtype=np.float64)
        if kind in TUNED_KINDS:
            getattr(comm, kind)(arr, SUM, algorithm=algorithm)
        elif kind == "fusion":
            # Two pending n-element reductions: "fuse" merges them into
            # one recursive-doubling wave over the concatenated payload
            # (what a ReductionBucket flush does); "flush" dispatches
            # them as two individual auto-tuned allreduces.
            if algorithm == "fuse":
                comm.allreduce(
                    np.zeros(2 * n, dtype=np.float64), SUM,
                    algorithm=RADIX_SCHEDULES["allreduce"],
                )
            elif algorithm == "flush":
                comm.allreduce(arr, SUM)
                comm.allreduce(np.zeros(n, dtype=np.float64), SUM)
            else:  # pragma: no cover - internal misuse
                raise ValueError(f"unknown fusion candidate {algorithm!r}")
        else:  # pragma: no cover - internal misuse
            raise ValueError(f"unknown collective kind {kind!r}")

    return spmd_run(
        prog, nprocs, cost_model=cost_model, topology=topology
    ).time


def _simulate_radix(
    kind: str, radix: int, nbytes: int, nprocs: int, cost_model,
    topology=None,
):
    """Virtual makespan of one doubling-schedule call at fan-out
    ``radix``.  The communicator deliberately has no way to ask for a
    radix (it is ``auto``'s decision alone), so this drives the plan on
    a raw collective channel."""
    n = max(1, nbytes // 8)
    doubling = _coll.schedule(kind, RADIX_SCHEDULES[kind])

    def prog(comm):
        ch = comm._channel(kind)
        _coll.run_plan(
            ch,
            doubling.plan(
                ch, np.zeros(n, dtype=np.float64), SUM, radix=radix
            ),
        )

    return spmd_run(
        prog, nprocs, cost_model=cost_model, topology=topology
    ).time


def _cutoffs_from_winners(
    payloads: Sequence[int], winners: Sequence[str | int]
) -> tuple[tuple[int, str | int], ...]:
    """Collapse a winner-per-payload row into byte thresholds, placing
    each crossover at the geometric midpoint of the bracketing grid
    points."""
    cutoffs: list[tuple[int, str | int]] = []
    current = winners[0]
    for i in range(1, len(winners)):
        if winners[i] != current:
            threshold = int(math.sqrt(payloads[i - 1] * payloads[i]))
            cutoffs.append((threshold, current))
            current = winners[i]
    cutoffs.append((_UNBOUNDED, current))
    return tuple(cutoffs)


def fit_decision_table(
    cost_model=None,
    *,
    rank_grid: Sequence[int] = DEFAULT_RANK_GRID,
    payload_grid: Sequence[int] = DEFAULT_PAYLOAD_GRID,
    topology=None,
) -> tuple[DecisionTable, dict[str, Any]]:
    """Re-fit the decision table by simulating every candidate on every
    ``(nprocs, payload)`` grid point.

    When ``topology`` (a :class:`repro.runtime.fabric.Topology`) is
    non-flat, every candidate is simulated on that fabric and the
    topology-aware ``"hierarchical"`` schedule joins the allreduce
    candidate pool — it only enters decision tables through a fit that
    actually measured it winning on a multi-tier fabric.

    Returns ``(table, report)``; the report carries the full measurement
    grid (virtual seconds per candidate per cell) for benchmarking /
    plotting, and serializes cleanly to JSON.
    """
    cm = cost_model if cost_model is not None else CostModel()
    topo_sig = "flat"
    fit_topology = None
    if topology is not None and not getattr(topology, "is_flat", True):
        fit_topology = topology
        topo_sig = topology.signature
    payloads = sorted(int(b) for b in payload_grid)
    ranks = sorted(int(p) for p in rank_grid)
    pools = {
        **{
            kind: candidates(kind, fabric=fit_topology is not None)
            for kind in TUNED_KINDS
        },
        "fusion": FUSION_CANDIDATES,
    }
    # The radix dimension is fitted only where fanout_admitted() could
    # let it through — up to the byte guard's limit, which joins the
    # grid so the fitted cutoff can sit exactly on it; past the limit
    # the answer is 2 by construction.
    fan_limit = max(1, min(_fanout_byte_limit(cm), payloads[-1]))
    radix_payloads = sorted({b for b in payloads if b < fan_limit} | {fan_limit})

    grid: dict[str, list[dict[str, Any]]] = {}
    bands: dict[str, list[Band]] = {}
    for kind, algos in pools.items():
        grid[kind] = []
        bands[kind] = []
        for p in ranks:
            winners: list[str] = []
            for nbytes in payloads:
                times = {
                    a: _simulate(kind, a, nbytes, p, cm, fit_topology)
                    for a in algos
                }
                winner = min(times, key=times.get)
                winners.append(winner)
                grid[kind].append(
                    {"nprocs": p, "nbytes": nbytes, "times": times,
                     "winner": winner}
                )
            bands[kind].append(Band(p, _cutoffs_from_winners(payloads, winners)))
    grid["radix"] = []
    bands["radix"] = []
    for p in ranks:
        fanouts: list[int] = []
        for nbytes in radix_payloads:
            # One radix serves both doubling schedules, so a candidate
            # is scored on the pair; min() keeps the first — smallest —
            # radix on ties.
            times = {
                k: sum(
                    _simulate_radix(c, k, nbytes, p, cm, fit_topology)
                    for c in RADIX_SCHEDULES
                )
                for k in RADIX_CANDIDATES
                if k < 2 * p
            }
            winner = min(times, key=times.get)
            fanouts.append(winner)
            grid["radix"].append(
                {"nprocs": p, "nbytes": nbytes, "times": times,
                 "winner": winner}
            )
        bands["radix"].append(
            Band(
                p,
                _cutoffs_from_winners(
                    radix_payloads + [radix_payloads[-1] + 1], fanouts + [2]
                ),
            )
        )
    for kind in bands:
        # the largest fitted band also covers everything above it
        last = bands[kind][-1]
        bands[kind][-1] = replace(last, max_ranks=_UNBOUNDED)
    table = DecisionTable(
        **{kind: tuple(fitted) for kind, fitted in bands.items()},
        source=(
            f"fitted (ranks={ranks}, payloads={payloads[0]}.."
            f"{payloads[-1]}B, topology={topo_sig})"
        ),
        topology=topo_sig,
    )
    report = {
        "cost_model": {
            "latency": cm.latency,
            "byte_time": cm.byte_time,
            "send_overhead": cm.send_overhead,
            "recv_overhead": cm.recv_overhead,
        },
        "topology": topo_sig,
        "rank_grid": ranks,
        "payload_grid": payloads,
        "grid": grid,
        "table": table.to_dict(),
    }
    return table, report
