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
from repro.analysis import format_table
from repro.localview import LOCAL_ALLREDUCE
from repro.mpi.tuning import candidates
from repro.runtime import spmd_run

P = 16
PAYLOADS = [1, 64, 1024, 16_384, 262_144]  # doubles

#: Every flat schedule the registry offers ``auto``, and ``auto`` itself.
ALGORITHMS = [*candidates("allreduce"), "auto"]
REDUCE_ALGORITHMS = [*candidates("reduce"), "auto"]

#: Virtual-time slack for "auto ties the explicit winner": the tuner's
#: table is fitted on a grid, so at a grid-boundary payload it may pick
#: the runner-up; anything within 10% counts as a tie.
TIE = 1.10


def _allreduce(comm, n, algorithm):
    LOCAL_ALLREDUCE(comm, mpi.SUM, np.zeros(n), algorithm=algorithm)


def _reduce(comm, n, algorithm):
    comm.reduce(np.zeros(n), mpi.SUM, algorithm=algorithm)


def record(collective, algorithms, cost_model) -> dict[int, dict[str, float]]:
    """Virtual time of ``collective`` per payload size and algorithm."""
    return {
        n: {
            a: spmd_run(lambda comm: collective(comm, n, a), P,
                        cost_model=cost_model).time
            for a in algorithms
        }
        for n in PAYLOADS
    }


def _table(title, by, algorithms) -> str:
    rows = [
        [n, *(f"{times[a]:.3e}" for a in algorithms), min(times, key=times.get)]
        for n, times in by.items()
    ]
    return format_table(["n", *algorithms, "winner"], rows, title=title)


def test_allreduce_algorithm_crossover(cost_model, results_dir):
    by = record(_allreduce, ALGORITHMS, cost_model)
    write_result(results_dir, "ablation_allreduce_algorithms.txt", _table(
        f"EX-RING — allreduce algorithms, p={P} (SUM of n doubles)",
        by, ALGORITHMS,
    ))
    # small payloads: latency dominates, recursive doubling wins
    assert by[1]["recursive_doubling"] < by[1]["ring"]
    assert by[1]["recursive_doubling"] < by[1]["rabenseifner"]
    # large payloads: bandwidth dominates, the segmenting algorithms win
    assert by[262_144]["ring"] < by[262_144]["recursive_doubling"]
    assert by[262_144]["rabenseifner"] < by[262_144]["recursive_doubling"]
    # and there is a crossover in between
    winners = [min(times, key=times.get) for times in by.values()]
    assert winners[0] == "recursive_doubling" or winners[0] == "auto"
    assert winners[-1] in ("ring", "rabenseifner", "auto")

    # the tuned default beats each *fixed* choice somewhere:
    #  - the old fixed default (recursive doubling) at large payloads,
    #  - the fixed bandwidth choice (ring) at small payloads,
    # and never loses to the per-payload winner by more than the fit slack.
    assert by[262_144]["auto"] < by[262_144]["recursive_doubling"]
    assert by[1]["auto"] < by[1]["ring"]
    for n, times in by.items():
        best = min(times[a] for a in ALGORITHMS if a != "auto")
        assert times["auto"] <= best * TIE, (n, times)


def test_reduce_pipelined_crossover(cost_model, results_dir):
    """Rooted reduce: order-preserving binomial vs. the segmented
    pipelined ring, and the tuned default against both."""
    by = record(_reduce, REDUCE_ALGORITHMS, cost_model)
    write_result(results_dir, "ablation_reduce_algorithms.txt", _table(
        f"EX-RING — rooted reduce algorithms, p={P} (SUM of n doubles)",
        by, REDUCE_ALGORITHMS,
    ))
    assert by[1]["binomial"] < by[1]["pipelined_ring"]
    assert by[262_144]["pipelined_ring"] < by[262_144]["binomial"]
    assert by[262_144]["auto"] < by[262_144]["binomial"]
    for n, times in by.items():
        best = min(times["binomial"], times["pipelined_ring"])
        assert times["auto"] <= best * TIE, (n, times)
