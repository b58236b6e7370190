"""FIG3 — NAS MG ZRAN3: 40 reductions (F+MPI) vs 1 user-defined
reduction (F+RSMPI) — paper Figure 3.

For classes A, B and C, sweeps the processor count and reports the
speedup of the ZRAN3 extrema-finding phase (fill excluded, exactly as
the paper times the subroutine's reduction overhead) for:

* ``MPI (40 red.)`` — per extremum, one MAX/MIN all-reduce plus one
  MINLOC owner-resolution all-reduce, re-scanning the masked local
  block each iteration (the F+MPI original);
* ``RSMPI (1 red.)`` — a single ``extrema`` operator: one accumulate
  pass, one combine tree.

Paper-claimed shape (§4.2): "The overhead of not using the single
user-defined reduction is seen more sharply in smaller problem classes
since the reduction accounts for more of the time.  In larger class
sizes ... the efficiency is more comparable."  The checks pin that:
RSMPI always wins (:func:`check`), the 40-reduction variant's speedup
saturates on the smallest class (:func:`check_saturates`), and the
advantage (time ratio) is at least as large for a smaller class as for
a larger one at every processor count above 1 (:func:`check_cross_class`).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import PROC_GRID, write_result
from repro.analysis import Series, format_series_csv, format_table
from repro.nas import mg_class
from repro.nas.mg import zran3_mpi, zran3_rsmpi
from repro.runtime import spmd_run

CLASSES = ["A", "B", "C"]


def _phase_time(cls, p, fn, rate, cost_model) -> float:
    """Virtual time of the extrema phase (t_done - t_fill_end, max over
    ranks)."""

    def prog(comm):
        r = fn(comm, cls, scan_rate=rate)
        return r.t_done - r.t_fill_end

    return max(spmd_run(prog, p, cost_model=cost_model, timeout=600).returns)


def record(cls_name, cost_model, procs=PROC_GRID) -> tuple[Series, Series]:
    """(MPI, RSMPI) extrema-phase times of one class."""
    cls = mg_class(cls_name)
    mpi_s = Series("MPI (40 red.)")
    rsm_s = Series("RSMPI (1 red.)")
    for p in procs:
        mpi_s.add(p, _phase_time(cls, p, zran3_mpi, "mg_scan", cost_model))
        rsm_s.add(p, _phase_time(cls, p, zran3_rsmpi, "mg_accum", cost_model))
    return mpi_s, rsm_s


def _ratios(mpi_s: Series, rsm_s: Series) -> dict[int, float]:
    return {p: m / r for p, m, r in zip(mpi_s.procs, mpi_s.times, rsm_s.times)}


def check(mpi_s: Series, rsm_s: Series) -> None:
    # (1) the single user-defined reduction never loses.
    for t_m, t_r in zip(mpi_s.times, rsm_s.times):
        assert t_r <= t_m
    # (2) the win grows with p for the MPI variant's latency term:
    #     at the largest p the ratio must be clearly above 1.
    assert mpi_s.times[-1] / rsm_s.times[-1] > 1.5


def check_saturates(mpi_s: Series) -> None:
    """40 log-depth all-reduces swamp the shrinking local work: the MPI
    variant's speedup at the largest p is below its own maximum."""
    speedup = mpi_s.speedup()
    assert speedup[-1] < max(speedup), speedup


def check_cross_class(small, large) -> None:
    """"Seen more sharply in smaller problem classes": at every common
    p > 1 the smaller class's MPI/RSMPI ratio is at least the larger's."""
    r_small, r_large = _ratios(*small), _ratios(*large)
    common = [p for p in r_small if p in r_large and p > 1]
    assert common
    for p in common:
        assert r_small[p] >= r_large[p] * 0.95, (p, r_small[p], r_large[p])


_SWEEPS: dict[str, tuple[Series, Series]] = {}


@pytest.mark.parametrize("cls_name", CLASSES)
def test_fig3_class(cls_name, cost_model, results_dir):
    mpi_s, rsm_s = _SWEEPS[cls_name] = record(cls_name, cost_model)
    base = mpi_s.t1
    rows = [
        [p, f"{t_m:.3e}", f"{t_r:.3e}", f"{base / t_m:.2f}",
         f"{base / t_r:.2f}", f"{t_m / t_r:.2f}"]
        for p, t_m, t_r in zip(mpi_s.procs, mpi_s.times, rsm_s.times)
    ]
    table = format_table(
        ["p", "MPI(40red)", "RSMPI(1red)", "S_mpi", "S_rsmpi", "ratio"],
        rows,
        title=f"Figure 3 — class {cls_name}: ZRAN3 extrema-phase times and "
        f"speedups (base = MPI at p=1)",
    )
    write_result(results_dir, f"fig3_class{cls_name}.txt", table)
    write_result(results_dir, f"fig3_class{cls_name}.csv",
                 format_series_csv([mpi_s, rsm_s]))
    check(mpi_s, rsm_s)
    if cls_name == "A":
        check_saturates(mpi_s)


def test_fig3_cross_class_shape(cost_model, results_dir):
    a, c = (_SWEEPS.get(name) or record(name, cost_model) for name in "AC")
    r_a, r_c = _ratios(*a), _ratios(*c)
    table = format_table(
        ["p", "class A", "class C"],
        [[p, f"{r_a[p]:.2f}", f"{r_c[p]:.2f}"] for p in r_a],
        title="Figure 3 cross-class check: MPI/RSMPI time ratio",
    )
    write_result(results_dir, "fig3_cross_class.txt", table)
    check_cross_class(a, c)
