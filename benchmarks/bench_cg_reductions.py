"""EX-CG — reductions on an iterative solver's critical path (extension).

The paper motivates good reduction abstractions with their ubiquity; CG
shows the *latency* side of that story: every iteration runs dot-product
all-reduces that nothing can hide.  Sweeping the processor count at
fixed problem size (strong scaling) exposes the all-reduce latency floor
— and aggregating the two dots into one message (the §2.1 idea applied
inside a solver, a.k.a. pipelined CG) raises the achievable speedup.
"""

from __future__ import annotations

from benchmarks.conftest import PROC_GRID, write_result
from repro.analysis import Series, format_series_csv, format_table
from repro.nas.cg import (
    cg_solve,
    cg_solve_fused,
    cg_solve_iallreduce,
    random_rhs,
)
from repro.runtime import spmd_run

N = 1 << 17  # unknowns
MAX_ITER = 60  # fixed work per run: time 60 iterations

#: A CG iteration streams the local vectors ~8 times (matvec, two dots,
#: three axpy-like updates); the dot_rate hook charges per element once,
#: so scale the recorded single-pass rate by 8.
PASSES_PER_ITER = 8

SOLVERS = {
    "CG (2 reductions/iter)": cg_solve,
    "CG fused (1 reduction/iter)": cg_solve_fused,
    "CG fused nonblocking": cg_solve_iallreduce,
}


def _time_per_iter(p, solver, cost_model):
    rate = cost_model.rates["np_check"] * PASSES_PER_ITER
    cm = cost_model.with_rates(cg_iter=rate)

    def prog(comm):
        b = random_rhs(comm, N)
        return solver(
            comm, b, max_iter=MAX_ITER, dot_rate="cg_iter"
        ).iterations

    res = spmd_run(prog, p, cost_model=cm, timeout=600)
    iters = res.returns[0]
    return res.time / max(iters, 1)


def record(cost_model) -> list[Series]:
    """Time per iteration of each solver variant (one Series each)."""
    series = [Series(label) for label in SOLVERS]
    for p in PROC_GRID:
        for s, solver in zip(series, SOLVERS.values()):
            s.add(p, _time_per_iter(p, solver, cost_model))
    return series


def test_cg_reduction_latency_floor(cost_model, results_dir):
    std, fused, nonblk = series = record(cost_model)
    rows = [
        [p, f"{std.times[i]:.3e}", f"{fused.times[i]:.3e}",
         f"{nonblk.times[i]:.3e}", f"{std.t1 / std.times[i]:.2f}",
         f"{fused.t1 / fused.times[i]:.2f}"]
        for i, p in enumerate(std.procs)
    ]
    table = format_table(
        ["p", "2 red/iter", "1 red/iter", "1 red nonblk", "S_std", "S_fused"],
        rows,
        title=f"EX-CG — time per CG iteration, n={N} (strong scaling)",
    )
    write_result(results_dir, "cg_reductions.txt", table)
    write_result(results_dir, "cg_reductions.csv", format_series_csv(series))

    # fused is never slower, and wins clearly where latency dominates
    for t_s, t_f in zip(std.times, fused.times):
        assert t_f <= t_s * 1.02
    assert fused.times[-1] < std.times[-1] * 0.8
    # the nonblocking variant overlaps the x-update under the reduce:
    # never slower than the blocking fused variant
    for t_f, t_n in zip(fused.times, nonblk.times):
        assert t_n <= t_f * 1.02
    # strong scaling helps at first...
    assert min(std.times) < std.t1
    # ...but both hit a latency floor: speedup at p=64 far below ideal,
    # and the fused variant's floor is lower (higher peak speedup)
    assert std.t1 / std.times[-1] < 32
    assert max(fused.speedup()) > max(std.speedup())
