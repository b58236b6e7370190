"""EX-RING — all-reduce algorithm choice (extension ablation).

The paper's reductions ride on whatever all-reduce the MPI layer
provides; this ablation maps when that choice matters.  Recursive
doubling moves the full payload log2(p) times (latency-optimal); the
ring moves 2(p-1) segments of 1/p each (bandwidth-optimal, commutative
only); Rabenseifner's reduce-scatter + allgather pays 2·log2(p) rounds
for ring-class bandwidth.  The crossover is the classic small/large-
message boundary — relevant to the paper's aggregated reductions, whose
payloads grow with the aggregation factor.

The ``auto`` rows exercise the tuned selection layer
(:mod:`repro.mpi.tuning`) end-to-end through ``LOCAL_ALLREDUCE``: the
ablation doubles as the acceptance check that the decision table picks a
winner (or ties the winner) at *every* payload size, where any fixed
choice loses somewhere.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_result
from repro import mpi
from repro.localview import LOCAL_ALLREDUCE
from repro.mpi.tuning import candidates
from repro.runtime import spmd_run

P = 16
PAYLOADS = [1, 64, 1024, 16_384, 262_144]  # doubles

#: Every flat schedule the registry offers ``auto``, and ``auto`` itself.
ALGORITHMS = [*candidates("allreduce"), "auto"]

#: Virtual-time slack for "auto ties the explicit winner": the tuner's
#: table is fitted on a grid, so at a grid-boundary payload it may pick
#: the runner-up; anything within 10% counts as a tie.
TIE = 1.10


def _time(n, algorithm, cost_model):
    def prog(comm):
        LOCAL_ALLREDUCE(comm, mpi.SUM, np.zeros(n), algorithm=algorithm)

    return spmd_run(prog, P, cost_model=cost_model).time


def _sweep(cost_model):
    return [
        (n, {a: _time(n, a, cost_model) for a in ALGORITHMS})
        for n in PAYLOADS
    ]


def test_allreduce_algorithm_crossover(benchmark, cost_model, results_dir):
    rows = benchmark.pedantic(_sweep, args=(cost_model,), rounds=1,
                              iterations=1)
    lines = [
        f"EX-RING — allreduce algorithms, p={P} (SUM of n doubles)",
        f"{'n':>8s}  " + "  ".join(f"{a:>17s}" for a in ALGORITHMS)
        + f"  {'winner':>17s}",
    ]
    for n, times in rows:
        winner = min(times, key=times.get)
        lines.append(
            f"{n:>8d}  "
            + "  ".join(f"{times[a]:>17.3e}" for a in ALGORITHMS)
            + f"  {winner:>17s}"
        )
    write_result(results_dir, "ablation_allreduce_algorithms.txt",
                 "\n".join(lines))

    by = {n: times for n, times in rows}
    # small payloads: latency dominates, recursive doubling wins
    assert by[1]["recursive_doubling"] < by[1]["ring"]
    assert by[1]["recursive_doubling"] < by[1]["rabenseifner"]
    # large payloads: bandwidth dominates, the segmenting algorithms win
    assert by[262_144]["ring"] < by[262_144]["recursive_doubling"]
    assert by[262_144]["rabenseifner"] < by[262_144]["recursive_doubling"]
    # and there is a crossover in between
    winners = [
        min(times, key=times.get) for _, times in rows
    ]
    assert winners[0] == "recursive_doubling" or winners[0] == "auto"
    assert winners[-1] in ("ring", "rabenseifner", "auto")

    # the tuned default beats each *fixed* choice somewhere:
    #  - the old fixed default (recursive doubling) at large payloads,
    #  - the fixed bandwidth choice (ring) at small payloads,
    # and never loses to the per-payload winner by more than the fit slack.
    assert by[262_144]["auto"] < by[262_144]["recursive_doubling"]
    assert by[1]["auto"] < by[1]["ring"]
    for n, times in rows:
        best = min(times[a] for a in ALGORITHMS if a != "auto")
        assert times["auto"] <= best * TIE, (n, times)


def _time_reduce(n, algorithm, cost_model):
    def prog(comm):
        comm.reduce(np.zeros(n), mpi.SUM, algorithm=algorithm)

    return spmd_run(prog, P, cost_model=cost_model).time


def test_reduce_pipelined_crossover(benchmark, cost_model, results_dir):
    """Rooted reduce: order-preserving binomial vs. the segmented
    pipelined ring, and the tuned default against both."""
    algos = [*candidates("reduce"), "auto"]

    def sweep(cm):
        return [
            (n, {a: _time_reduce(n, a, cm) for a in algos})
            for n in PAYLOADS
        ]

    rows = benchmark.pedantic(sweep, args=(cost_model,), rounds=1,
                              iterations=1)
    lines = [
        f"EX-RING — rooted reduce algorithms, p={P} (SUM of n doubles)",
        f"{'n':>8s}  " + "  ".join(f"{a:>15s}" for a in algos),
    ]
    for n, times in rows:
        lines.append(
            f"{n:>8d}  " + "  ".join(f"{times[a]:>15.3e}" for a in algos)
        )
    write_result(results_dir, "ablation_reduce_algorithms.txt",
                 "\n".join(lines))

    by = {n: times for n, times in rows}
    assert by[1]["binomial"] < by[1]["pipelined_ring"]
    assert by[262_144]["pipelined_ring"] < by[262_144]["binomial"]
    assert by[262_144]["auto"] < by[262_144]["binomial"]
    for n, times in rows:
        best = min(times["binomial"], times["pipelined_ring"])
        assert times["auto"] <= best * TIE, (n, times)
